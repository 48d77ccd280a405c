"""The columnar kernel's NumPy path against the tuple-set reference.

Operators whose probe side holds at least ``_VECTOR_MIN_ROWS`` rows run on
int64 arrays; smaller ones keep the dict/list code.  On the NumPy path a
join, semijoin or count-DP edge addresses a dense key domain directly and
sorts a sparse one (``_DENSE_FACTOR``).  These tests build relations on
both sides of the row threshold and pin every vectorised operator —
``natural_join``, ``semijoin``, ``semijoin_inplace``, ``project`` and the
counting DP — on both NumPy branches to :class:`NamedRelation` after
decoding, then check the same through the engine on databases large enough
that each vectorised operator and each branch fires.  The last group
covers the exactness guards: int64 would wrap silently where Python ints
grow, so each test below fails if the guard it names is removed.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cq import columnar
from repro.cq import generators as cqgen
from repro.cq.columnar import (
    _INT64_MAX,
    _VECTOR_MIN_ROWS,
    ColumnarRelation,
    ValueInterner,
    columnar_count_join_tree,
)
from repro.cq.counting import count_answers_via_join_tree
from repro.cq.database import Database
from repro.cq.decomposition_eval import (
    decomposition_count_answers,
    decomposition_enumerate_answers,
)
from repro.cq.query import Atom
from repro.cq.relational import NamedRelation
from repro.cq.yannakakis import JoinTree
from repro.engine.session import EngineSession

N = _VECTOR_MIN_ROWS
SIZES = (0, N - 1, N, 3 * N)


def random_relation(columns, rows, domain, rng) -> NamedRelation:
    """``rows`` distinct rows over ``range(domain)``, drawn without
    replacement from the ``domain ** width`` possible rows."""
    width = len(columns)
    found = set()
    for code in rng.sample(range(domain**width), rows):
        row = []
        for _ in range(width):
            code, value = divmod(code, domain)
            row.append(value)
        found.add(tuple(row))
    return NamedRelation(columns, found)


def is_vector(relation: ColumnarRelation) -> bool:
    return bool(relation.columns) and all(
        isinstance(vector, np.ndarray) for vector in relation._data
    )


@st.composite
def relation_pairs(draw):
    """Two relations around the threshold sharing 1-3 columns."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    shared = ("a", "b", "c")[: draw(st.integers(1, 3))]
    left_columns = shared + ("x",)
    right_columns = ("y",) + shared
    left_rows = draw(st.sampled_from(SIZES))
    right_rows = draw(st.sampled_from(SIZES))
    # Narrow enough that keys collide (joins match), wide enough that the
    # largest relation fills at most a half or a quarter of its row space.
    spread = draw(st.sampled_from((2, 4)))
    domain = math.ceil((spread * max(SIZES)) ** (1 / len(left_columns)))
    left = random_relation(left_columns, left_rows, domain, rng)
    right = random_relation(right_columns, right_rows, domain, rng)
    return left, right


@settings(max_examples=30, deadline=None)
@given(pair=relation_pairs())
def test_vectorised_operators_match_the_tuple_set_reference(pair):
    """Each draw runs twice: as is (its narrow domains mostly take the
    dense branch), and with ``_DENSE_FACTOR`` at 0, where every keyed
    NumPy operator sorts."""
    for factor in (columnar._DENSE_FACTOR, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(columnar, "_DENSE_FACTOR", factor)
            _check_operators(*pair)


def _check_operators(left, right):
    interner = ValueInterner()
    cleft = ColumnarRelation.from_named(left, interner)
    cright = ColumnarRelation.from_named(right, interner)

    joined = cleft.natural_join(cright)
    assert joined.to_named() == left.natural_join(right)
    assert cright.natural_join(cleft).to_named() == right.natural_join(left)

    assert cleft.semijoin(cright).to_named() == left.semijoin(right)
    target = ColumnarRelation.from_named(left, interner)
    assert target.semijoin_inplace(cright) is target
    assert target.to_named() == left.semijoin(right)
    assert not is_vector(target) or len(target) >= N

    for columns in (("a",), ("x", "a"), left.columns[:-1]):
        projected = cleft.project(columns)
        assert projected.to_named() == left.project(columns)
        assert not is_vector(projected) or len(projected) >= N
    if len(joined) >= N:
        # A vectorised result feeding the next operator.
        columns = ("y", "a")
        expected = left.natural_join(right).project(columns)
        assert joined.project(columns).to_named() == expected

    tree = JoinTree({0: cleft, 1: cright}, {0: None, 1: 0})
    reference = JoinTree({0: left, 1: right}, {0: None, 1: 0})
    assert columnar_count_join_tree(tree) == count_answers_via_join_tree(reference)


@pytest.mark.parametrize(
    "left_rows, right_rows",
    [(4, N // 4 - 1), (4, N // 4), (1, N), (40, 3 * N // 4)],
)
def test_cross_products_match_the_tuple_set_reference(left_rows, right_rows):
    """Cross products take the NumPy path from ``N`` output pairs, on a
    probe side of any size: both sides of that bound, plus a few dozen
    rows times a whole relation (the shape of the cross products in the
    ``cyclic_analytics`` benchmark)."""
    rng = random.Random(left_rows * right_rows)
    left = random_relation(("a",), left_rows, 50, rng)
    right = random_relation(("b", "c"), right_rows, 100, rng)
    interner = ValueInterner()
    cleft = ColumnarRelation.from_named(left, interner)
    cright = ColumnarRelation.from_named(right, interner)
    joined = cleft.natural_join(cright)
    assert joined.to_named() == left.natural_join(right)
    assert joined.project(("c", "a")).to_named() == left.natural_join(
        right
    ).project(("c", "a"))
    tree = JoinTree({0: cleft, 1: cright}, {0: None, 1: 0})
    reference = JoinTree({0: left, 1: right}, {0: None, 1: 0})
    assert columnar_count_join_tree(tree) == count_answers_via_join_tree(reference)


@pytest.fixture
def dense_sizes(monkeypatch):
    """Records what ``_dense_size`` returns: a table size for each dense
    operator, ``None`` for each sorted one."""
    sizes = []
    real = columnar._dense_size

    def recorded(*keys):
        sizes.append(real(*keys))
        return sizes[-1]

    monkeypatch.setattr(columnar, "_dense_size", recorded)
    return sizes


@pytest.mark.parametrize("key_width", [1, 2])
def test_sparse_key_domains_take_the_sort_path(key_width, dense_sizes):
    """Keys spread over ten or more slots per operand row, past
    ``_DENSE_FACTOR``: one-column keys draw from 40·N interned values for
    2·N rows a side, two-column keys pack under that base.  The join, the
    semijoin and the count DP sort, and match the reference."""
    interner = ValueInterner()
    for value in range(40 * N):
        interner.intern(value)
    rng = random.Random(key_width)
    key = ("a", "b")[:key_width]
    spread = 40 * N if key_width == 1 else 200

    def draw(columns):
        width = len(columns)
        return NamedRelation(
            columns,
            {
                tuple(rng.randrange(spread) for _ in key)
                + tuple(rng.randrange(40 * N) for _ in range(width - key_width))
                for _ in range(2 * N)
            },
        )

    left, right = draw(key + ("x",)), draw(key + ("y",))
    cleft = ColumnarRelation.from_named(left, interner)
    cright = ColumnarRelation.from_named(right, interner)
    assert cleft.natural_join(cright).to_named() == left.natural_join(right)
    assert cleft.semijoin(cright).to_named() == left.semijoin(right)
    tree = JoinTree({0: cleft, 1: cright}, {0: None, 1: 0})
    reference = JoinTree({0: left, 1: right}, {0: None, 1: 0})
    assert columnar_count_join_tree(tree) == count_answers_via_join_tree(reference)
    assert dense_sizes == [None] * 3


# ----------------------------------------------------------------------
# Engine level: every vectorised operator and both NumPy branches fire
# ----------------------------------------------------------------------
VECTOR_OPERATORS = (
    ("ColumnarRelation", "_vector_matches"),
    ("ColumnarRelation", "_vector_survivors"),
    ("ColumnarRelation", "_vector_project"),
    (None, "_vector_child_sums"),
)


@pytest.fixture
def vector_calls(monkeypatch):
    """Counts the calls into each vectorised operator."""
    calls = dict.fromkeys((name for _owner, name in VECTOR_OPERATORS), 0)
    for owner_name, name in VECTOR_OPERATORS:
        owner = getattr(columnar, owner_name) if owner_name else columnar
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "query, domain, tuples, branches",
    # Across the three queries both NumPy branches fire.
    [
        # Two-column keys over 200 values: the bags' (x0, x2) keys are
        # sparse, their one-column join keys dense.
        (cqgen.cycle_query(4), 200, 1200, {"dense", "sort"}),
        (cqgen.hub_cycle_query(3), 14, 1200, {"dense"}),
        (cqgen.star_query(3), 30, 800, {"dense"}),
    ],
    ids=["cycle", "wheel", "star"],
)
def test_engine_answers_and_counts_on_the_vector_path(
    query, domain, tuples, branches, vector_calls, dense_sizes, monkeypatch
):
    # Bag trees in row form: the wheel's and the star's ids are dense
    # enough for bag arrays (tests/cq/test_bag_arrays.py), which would skip
    # the row operators pinned here.
    monkeypatch.setattr(columnar, "_BAG_ARRAY_CELLS", 0)
    database = cqgen.random_database(query, domain, tuples, seed=11)
    session = EngineSession()
    plan = session.plan(query)
    assert plan.decomposition is not None
    answers = session.answer(query, database).rows
    assert answers == decomposition_enumerate_answers(
        query, database, plan.decomposition
    )
    assert session.count(query, database).count == decomposition_count_answers(
        query, database, plan.decomposition
    )
    projected = query.project(sorted(query.variables, key=repr)[:1])
    projected_plan = session.plan(projected)
    assert session.answer(projected, database).rows == decomposition_enumerate_answers(
        projected, database, projected_plan.decomposition
    )
    assert all(count > 0 for count in vector_calls.values()), vector_calls
    fired = {"sort" if size is None else "dense" for size in dense_sizes}
    assert fired == branches


# ----------------------------------------------------------------------
# Exactness guards
# ----------------------------------------------------------------------
def _columns_tree(shapes):
    """A join tree over pairwise-disjoint unary relations: ``shapes`` maps
    node -> (parent, rows).  Every combination of rows is an answer, so the
    count is the product of the sizes."""
    interner = ValueInterner()
    relations, parents = {}, {}
    for node, (parent, rows) in shapes.items():
        relations[node] = ColumnarRelation.from_named(
            NamedRelation((f"v{node}",), {(i,) for i in range(rows)}), interner
        )
        parents[node] = parent
    return JoinTree(relations, parents)


def _product(shapes) -> int:
    total = 1
    for _parent, rows in shapes.values():
        total *= rows
    return total


@pytest.mark.parametrize(
    "shapes",
    [
        # A chain of 7: every weight fits, the root sum (600**7) does not.
        {i: (i - 1 if i else None, 600) for i in range(7)},
        # A chain of 8: the sum of the root's child weights does not fit.
        {i: (i - 1 if i else None, 600) for i in range(8)},
        # Two chains of 4 under one root: each child sum fits, their
        # product does not.
        {
            0: (None, 600),
            **{i: (i - 1 if i > 1 else 0, 600) for i in range(1, 5)},
            **{i: (i - 1 if i > 5 else 0, 600) for i in range(5, 9)},
        },
        # A long chain of small (dict-path) nodes whose Python-int weights
        # outgrow int64 before they reach a vectorised root.
        {0: (None, 600), **{i: (i - 1, 10) for i in range(1, 22)}},
    ],
    ids=["root-sum", "child-sum", "product", "python-weights"],
)
def test_counts_above_int64_stay_exact(shapes):
    expected = _product(shapes)
    assert expected > _INT64_MAX
    assert columnar_count_join_tree(_columns_tree(shapes)) == expected


def test_dense_child_sums_above_int64_rerun_on_python_ints():
    """A count-DP edge over a dense key domain (three key values) whose
    grouped child sums exceed ``2**63`` although every child weight fits:
    a chain of six 600-row nodes gives each child row weight ``600**6``,
    and 200 child rows share each key.  The overflow check runs before
    ``np.add.at``, so the DP reruns on Python ints instead of wrapping."""
    rows, chain = 600, 6
    interner = ValueInterner()
    parent = NamedRelation(("a", "p"), {(i % 3, i) for i in range(rows)})
    child = NamedRelation(("a", "c"), {(i % 3, i) for i in range(rows)})
    relations = {
        0: ColumnarRelation.from_named(parent, interner),
        1: ColumnarRelation.from_named(child, interner),
    }
    parents = {0: None, 1: 0}
    for node in range(2, 2 + chain):
        relations[node] = ColumnarRelation.from_named(
            NamedRelation((f"v{node}",), {(i,) for i in range(rows)}), interner
        )
        parents[node] = node - 1
    grouped = (rows // 3) * rows**chain
    assert rows**chain <= _INT64_MAX < grouped
    base = len(interner)
    assert columnar._dense_size(
        relations[0]._vector_keys(("a",), base),
        relations[1]._vector_keys(("a",), base),
    ) == 3
    expected = rows * grouped
    assert columnar_count_join_tree(JoinTree(relations, parents)) == expected


def test_four_column_keys_stay_exact_when_packing_cannot_fit():
    """From 55,109 dictionary values, ``|dictionary| ** 4 > 2**63``:
    packed 4-column keys do not fit int64, so every operator takes the
    exact dict path.  Wrapped keys only collide once ``|dictionary| ** 4``
    also exceeds ``2**64``, so the dictionary is padded to 70,000 values
    and ``left`` holds one row whose wrapped key equals that of a
    ``right`` row it does not match: without the guard the vector path
    would join them."""
    base = 70_000
    interner = ValueInterner()
    for value in range(base):
        interner.intern(value)
    assert base**4 > 1 << 64
    decoy = (base - 1, 3, 5, 7)
    packed = ((decoy[0] * base + decoy[1]) * base + decoy[2]) * base + decoy[3]
    remainder = packed - (1 << 64)
    twin = []
    for _ in range(4):
        remainder, digit = divmod(remainder, base)
        twin.append(digit)
    twin = tuple(reversed(twin))
    assert twin != decoy and remainder == 0

    rng = random.Random(7)
    columns = ("a", "b", "c", "d")
    left_rows = {decoy} | random_relation(columns, 3 * N, 8, rng).rows
    right_rows = {twin} | random_relation(columns, 2 * N, 8, rng).rows
    left = NamedRelation(columns + ("x",), {row + (0,) for row in left_rows})
    right = NamedRelation(("y",) + columns, {(1,) + row for row in right_rows})
    cleft = ColumnarRelation.from_named(left, interner)
    cright = ColumnarRelation.from_named(right, interner)
    assert len(interner) == base

    assert cleft.natural_join(cright).to_named() == left.natural_join(right)
    assert cleft.semijoin(cright).to_named() == left.semijoin(right)
    both = NamedRelation(columns, left_rows | right_rows)
    assert ColumnarRelation.from_named(both, interner).project(
        columns[::-1]
    ).to_named() == both.project(columns[::-1])
    tree = JoinTree({0: cleft, 1: cright}, {0: None, 1: 0})
    reference = JoinTree({0: left, 1: right}, {0: None, 1: 0})
    assert columnar_count_join_tree(tree) == count_answers_via_join_tree(reference)


def test_resident_view_sees_appends_after_a_vectorised_operation():
    """The sort orders memoized by a resident view's snapshot carry over to
    the next snapshot, which merges the appended rows in, so the next
    vectorised operation sees them; the older snapshot still does not."""
    database = Database()
    for i in range(2 * N):
        database.add_fact("R", (i, i % 7))
    probe = ColumnarRelation.from_named(
        NamedRelation(("y",), {(0,), (1,)}), database.columnar_store().interner
    )
    atom = Atom("R", ["x", "y"])
    view = database.columnar_view(atom)
    assert len(view.semijoin(probe)) == len([i for i in range(2 * N) if i % 7 < 2])
    view.natural_join(probe)
    view.project(("y",))

    database.add_fact("R", ("fresh", 1))
    again = database.columnar_view(atom)
    assert again is not view and again._order_cache is view._order_cache
    semijoined = again.semijoin(probe).to_named()
    assert ("fresh", 1) in semijoined.rows
    assert ("fresh", 1) in again.natural_join(probe).to_named().rows
    assert (1, "fresh") in probe.natural_join(again).to_named().rows
    assert (1, "fresh") not in probe.natural_join(view).to_named().rows


def test_memo_entries_over_pre_append_rows_are_not_served():
    """A sort order shared by a resident view's snapshots and covering the
    rows before an append is merged up to the next snapshot's rows, never
    served as is; the older snapshot then reads the merged entry without
    its later rows and leaves it in place (the race of
    ``TestConcurrentViews``, replayed here in a fixed order)."""
    database = Database()
    for i in range(2 * N):
        database.add_fact("R", (i, i % 7))
    atom = Atom("R", ["x", "y"])
    view = database.columnar_view(atom)
    probe = ColumnarRelation.from_named(
        NamedRelation(("y",), {(1,)}), database.columnar_store().interner
    )
    view.semijoin(probe)
    view.natural_join(probe)
    view.project(("x",))
    key = ((0,), 0)
    assert view._order_cache[key].rows == len(view)

    database.add_fact("R", ("fresh", 1))
    again = database.columnar_view(atom)
    assert ("fresh", 1) in again.semijoin(probe).to_named().rows
    assert (1, "fresh") in probe.natural_join(again).to_named().rows
    assert ("fresh",) in again.project(("x",)).to_named().rows
    assert view._order_cache[key].rows == len(again)
    order, keys = view._sorted_keys(("x",), 0)
    assert sorted(order.tolist()) == list(range(len(view)))
    assert keys.tolist() == sorted(view._column_array(0).tolist())
    assert view._order_cache[key].rows == len(again)
