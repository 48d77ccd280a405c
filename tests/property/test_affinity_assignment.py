"""Property tests for the process runtime's owner placement.

A token is minted per dataset in first-sight order, and a token's owner is
its mint index mod the worker count.  Four invariants the owner-routed
process runtime stands on, over random mint sequences and pool sizes — all
of them coordinator book-keeping, so no worker process ever starts:

* **determinism** — placement is a pure function of the mint order: two
  runtimes that see the same datasets in the same order route identically,
  and seeing a dataset again keeps its token (so its owner never moves);
* **exact balance** — the pieces of one call, minted consecutively, put
  ``n // w`` or ``n // w + 1`` pieces on each of ``w`` workers, with
  precisely ``n % w`` workers at the higher load, whatever was minted
  before the call;
* **no movement on recovery** — a dead worker is replaced at its own index
  and keeps every token it owned: routing never changes, every survivor
  keeps its residency, and only the replacement starts empty;
* **replicas follow the owner** — a token with ``m`` tasks in one call runs
  round-robin over its owner and the workers after it, ``min(m, w,
  parallel)`` of them, while a sharded call (one task per token) runs every
  piece on its owner.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.cq.database import Database
from repro.engine import ProcessRuntime

WORKERS = st.integers(min_value=1, max_value=12)
PARALLEL = st.one_of(st.none(), st.integers(min_value=1, max_value=16))
#: A mint sequence: indexes into a pool of datasets, repeats allowed.
SIGHTINGS = st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=64)


class _IdlePool:
    """Stands in for a worker's executor: recovery only shuts pools down."""

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _PoolFreeRuntime(ProcessRuntime):
    def _new_pool(self):
        return _IdlePool()


def _mint(runtime, datasets, sightings) -> list[int]:
    return [runtime._token_for(datasets[index]) for index in sightings]


@settings(max_examples=200, deadline=None)
@given(sightings=SIGHTINGS, workers=WORKERS)
def test_assignment_is_deterministic(sightings, workers):
    datasets = [Database() for _ in range(24)]
    first = ProcessRuntime(max_workers=workers)
    second = ProcessRuntime(max_workers=workers)
    tokens = _mint(first, datasets, sightings)
    first_seen = list(dict.fromkeys(sightings))
    assert tokens == [first_seen.index(index) for index in sightings]
    assert _mint(second, datasets, sightings) == tokens
    assert first.routing() == second.routing()
    # Seeing the datasets again keeps every token, so no owner moves.
    routing = first.routing()
    assert _mint(first, datasets, reversed(sightings)) == tokens[::-1]
    assert first.routing() == routing
    assert set(routing.values()) <= set(range(workers))


@settings(max_examples=200, deadline=None)
@given(
    earlier=st.integers(min_value=0, max_value=40),
    pieces=st.integers(min_value=1, max_value=64),
    workers=WORKERS,
)
def test_assignment_is_balanced_within_one_piece(earlier, pieces, workers):
    runtime = ProcessRuntime(max_workers=workers)
    before = [Database() for _ in range(earlier)]
    _mint(runtime, before, range(earlier))
    call = [Database() for _ in range(pieces)]
    tokens = _mint(runtime, call, range(pieces))
    routing = runtime.routing()
    loads = Counter(routing[token] for token in tokens)
    counts = [loads[worker] for worker in range(workers)]
    floor_load = pieces // workers
    assert set(counts) <= {floor_load, floor_load + 1}
    assert counts.count(floor_load + 1) == pieces % workers


@settings(max_examples=100, deadline=None)
@given(
    pieces=st.integers(min_value=1, max_value=48),
    workers=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_recovering_a_worker_moves_none_of_its_pieces(pieces, workers, data):
    runtime = _PoolFreeRuntime(max_workers=workers)
    datasets = [Database() for _ in range(pieces)]
    _mint(runtime, datasets, range(pieces))
    with runtime._lock:
        slots = runtime._ensure_slots_locked()
    for token, owner in runtime.routing().items():
        slots[owner].resident[token] = {"R": 1}
    routing, residency = runtime.routing(), runtime.residency()
    dead = data.draw(st.sampled_from(range(workers)))
    generation = slots[dead].generation
    runtime._recover_worker(dead, generation)
    # A second observer of the same death finds the worker already replaced.
    runtime._recover_worker(dead, generation)
    assert runtime.worker_restarts == 1
    assert runtime._slots[dead].index == dead
    assert runtime._slots[dead].generation == generation + 1
    assert runtime.routing() == routing
    after = runtime.residency()
    assert after[dead] == frozenset()
    for worker, held in residency.items():
        if worker != dead:
            assert after[worker] == held


@settings(max_examples=200, deadline=None)
@given(
    earlier=st.integers(min_value=0, max_value=30),
    tasks=st.integers(min_value=1, max_value=24),
    workers=WORKERS,
    parallel=PARALLEL,
)
def test_replicas_are_the_workers_that_follow_the_owner(
    earlier, tasks, workers, parallel
):
    runtime = ProcessRuntime(max_workers=workers)
    datasets = [Database() for _ in range(earlier + 1)]
    token = _mint(runtime, datasets, range(earlier + 1))[-1]
    owner = runtime.routing()[token]
    targets = runtime._route([token] * tasks, parallel)
    width = min(tasks, workers, parallel or workers)
    assert targets[0] == owner
    assert set(targets) == {(owner + step) % workers for step in range(width)}
    loads = Counter(targets)
    assert max(loads.values()) - min(loads.values()) <= 1


@settings(max_examples=200, deadline=None)
@given(
    pieces=st.integers(min_value=1, max_value=32),
    workers=WORKERS,
    parallel=PARALLEL,
)
def test_sharded_call_runs_every_piece_on_its_owner(pieces, workers, parallel):
    runtime = ProcessRuntime(max_workers=workers)
    datasets = [Database() for _ in range(pieces)]
    tokens = _mint(runtime, datasets, range(pieces))
    routing = runtime.routing()
    assert runtime._route(tokens, parallel) == [routing[token] for token in tokens]
