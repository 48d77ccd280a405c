"""Reference answers computed without the engine.

The large ``cyclic_analytics`` databases are too big for the naive solver
and the tuple-set kernel (a 6-cycle takes 16-18 s there on a 2-core
machine), so each of its query shapes gets a small direct algorithm
instead: walk counting for cycles, set intersection for stars, nested
index lookups for the wheel and the triangle.  :func:`enumerate_answers`
evaluates any conjunctive query on small data.  None of these share code
with the engine.

Besides checking answers, these functions are the workloads' *reference
jobs*: each measured operation is followed by a direct evaluation of the
same work on the same data, and the operation's time is reported relative
to it (see ``scenarios.direct``).
"""

from __future__ import annotations

from collections import defaultdict

from repro.cq.query import Constant


def _successors(relation) -> dict:
    index = defaultdict(set)
    for a, b in relation.tuples:
        index[a].add(b)
    return index


def cycle_roots(database, length: int) -> set:
    """``{(a,)}`` for every ``a`` that starts a closed walk
    ``R0(a, x1), R1(x1, x2), ..., R{n-1}(x{n-1}, a)``."""
    steps = [_successors(database.relation(f"R{i}")) for i in range(length)]
    roots = set()
    for start in list(steps[0]):
        frontier = {start}
        for step in steps:
            frontier = {b for a in frontier for b in step.get(a, ())}
            if not frontier:
                break
        if start in frontier:
            roots.add((start,))
    return roots


def cycle_count(database, length: int) -> int:
    """The number of assignments of the full ``length``-cycle query:
    closed walks counted by a per-start walk-count vector."""
    steps = [_successors(database.relation(f"R{i}")) for i in range(length)]
    total = 0
    for start in list(steps[0]):
        counts = {start: 1}
        for step in steps:
            following: dict = defaultdict(int)
            for a, ways in counts.items():
                for b in step.get(a, ()):
                    following[b] += ways
            counts = following
        total += counts.get(start, 0)
    return total


def wheel_answers(query, database) -> set:
    """Full answers of ``hub_cycle_query(n)``: ``H_i(h, x_i, x_{i+1})``."""
    length = len(query.atoms)
    by_hub = []
    for i in range(length):
        index = defaultdict(lambda: defaultdict(set))
        for h, a, b in database.relation(f"H{i}").tuples:
            index[h][a].add(b)
        by_hub.append(index)
    order = query.free_variables
    answers = set()
    for h, first in by_hub[0].items():
        for x0, seconds in first.items():
            walks = [[x0, x1] for x1 in seconds]
            for i in range(1, length - 1):
                step = by_hub[i].get(h, {})
                walks = [walk + [x] for walk in walks for x in step.get(walk[-1], ())]
            closing = by_hub[length - 1].get(h, {})
            for walk in walks:
                if x0 in closing.get(walk[-1], ()):
                    values = {"h": h}
                    values.update({f"x{i}": x for i, x in enumerate(walk)})
                    answers.add(tuple(values[v] for v in order))
    return answers


def star_centres(database, branches: int) -> set:
    """``{(c,)}`` for the star ``R_i(c, x_i)`` projected onto ``c``."""
    centres = None
    for i in range(branches):
        column = {row[0] for row in database.relation(f"R{i}").tuples}
        centres = column if centres is None else centres & column
    return {(c,) for c in centres}


def hot_pair_keys(database) -> set:
    """``{(h,)}`` for ``A(h, x, y), B(h, x, z), C(y, z)`` projected onto
    ``h``."""
    b_index = defaultdict(set)
    for h, x, z in database.relation("B").tuples:
        b_index[(h, x)].add(z)
    c_index = defaultdict(set)
    for y, z in database.relation("C").tuples:
        c_index[y].add(z)
    keys = set()
    for h, x, y in database.relation("A").tuples:
        if h in keys:
            continue
        zs = b_index.get((h, x))
        if zs and not zs.isdisjoint(c_index.get(y, ())):
            keys.add((h,))
    return keys


def enumerate_answers(query, database) -> set:
    """Answers of any conjunctive query (tuples over its free variables):
    join the atoms one at a time, the one sharing most bound variables
    first, keeping after each join only the variables that a later atom or
    the head still needs."""
    remaining = list(query.atoms)
    order, bound = [], set()
    while remaining:
        atom = max(
            remaining,
            key=lambda a: (len(bound & set(a.variables())),
                           -len(database.relation(a.relation).tuples)),
        )
        remaining.remove(atom)
        order.append(atom)
        bound |= set(atom.variables())
    free = tuple(query.free_variables)
    carried: tuple = ()
    states = {()}
    for i, atom in enumerate(order):
        needed = set(free).union(*(later.variables() for later in order[i + 1:]))
        position = {variable: k for k, variable in enumerate(carried)}
        keyed, fresh, repeats, first = [], [], [], {}
        for p, term in enumerate(atom.terms):
            if isinstance(term, Constant) or term in position:
                keyed.append((p, term))
            elif term in first:
                repeats.append((p, first[term]))
            else:
                first[term] = p
                fresh.append((p, term))
        index = defaultdict(list)
        for row in database.relation(atom.relation).tuples:
            if all(row[p] == row[q] for p, q in repeats):
                index[tuple(row[p] for p, _ in keyed)].append(row)
        following = tuple(v for v in carried + tuple(t for _, t in fresh) if v in needed)
        next_states = set()
        for state in states:
            key = tuple(
                term.value if isinstance(term, Constant) else state[position[term]]
                for _, term in keyed
            )
            for row in index.get(key, ()):
                values = dict(zip(carried, state))
                values.update((term, row[p]) for p, term in fresh)
                next_states.add(tuple(values[v] for v in following))
        states, carried = next_states, following
    return {tuple(dict(zip(carried, state))[v] for v in free) for state in states}
