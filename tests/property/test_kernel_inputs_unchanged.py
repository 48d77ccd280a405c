"""The Yannakakis passes and the counting DP never change a relation.

A join tree's relations may be shared — the store's atom views are, and
bag trees are built from them — so ``yannakakis_boolean``,
``yannakakis_full``, ``semijoin_reduce`` and ``columnar_count_join_tree``
must leave every input relation as they found it.  Over random join trees
in row form (:class:`~repro.cq.columnar.ColumnarRelation`, on the dict path
and, with ``_VECTOR_MIN_ROWS`` at 0, on the NumPy path) and in bag-array
form (:class:`~repro.cq.columnar.BagArray`), each relation's length, id
rows and array read the same after every routine, and the tree still maps
each node to the object it held.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cq import columnar
from repro.cq.columnar import (
    BagArray,
    ColumnarRelation,
    ValueInterner,
    columnar_count_join_tree,
)
from repro.cq.yannakakis import (
    JoinTree,
    semijoin_reduce,
    yannakakis_boolean,
    yannakakis_full,
)

#: Every column ranges over the ids ``0 .. DOMAIN - 1``.
DOMAIN = 4


@st.composite
def join_trees(draw):
    """``(parent, columns, cells)`` of a random join tree.  A node keeps
    up to two of its parent's columns and adds fresh ones, so every column
    spans a connected subtree (running intersection); ``cells`` is each
    node's boolean array over its columns."""
    parent = {0: None}
    columns = {0: tuple(f"c{i}" for i in range(draw(st.integers(1, 3))))}
    fresh = len(columns[0])
    for node in range(1, draw(st.integers(1, 6))):
        up = draw(st.integers(0, node - 1))
        kept = draw(st.lists(st.sampled_from(columns[up]), unique=True, max_size=2))
        added = draw(st.integers(0 if kept else 1, 2))
        parent[node] = up
        columns[node] = tuple(kept) + tuple(f"c{fresh + i}" for i in range(added))
        fresh += added
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.3, 0.6, 0.9)))
    cells = {
        node: rng.random((DOMAIN,) * len(names)) < density
        for node, names in columns.items()
    }
    return parent, columns, cells


def _tree(parent, columns, cells, form: str) -> JoinTree:
    interner = ValueInterner()
    for value in range(DOMAIN):
        interner.intern(value)
    relations = {}
    for node, names in columns.items():
        if form == "arrays":
            relations[node] = BagArray(names, interner, cells[node])
        else:
            data = [ids.tolist() for ids in np.nonzero(cells[node])]
            relations[node] = ColumnarRelation(names, interner, data)
    return JoinTree(relations, parent)


def _id_rows(relation) -> list:
    if isinstance(relation, BagArray):
        return list(relation.rows().id_rows())
    return list(relation.id_rows())


def _array(relation):
    """A bag's cells, or a row relation's column vectors."""
    return relation.array if isinstance(relation, BagArray) else relation._data


@pytest.mark.parametrize("form", ["rows", "vector rows", "arrays"])
@settings(max_examples=60, deadline=None)
@given(drawn=join_trees())
def test_kernel_routines_leave_every_input_relation_unchanged(form, drawn):
    parent, columns, cells = drawn
    with pytest.MonkeyPatch.context() as patch:
        if form == "vector rows":
            patch.setattr(columnar, "_VECTOR_MIN_ROWS", 0)
        tree = _tree(parent, columns, cells, form)
        before = {
            node: (relation, len(relation), _id_rows(relation), _array(relation))
            for node, relation in tree.relations.items()
        }

        def unchanged():
            for node, (relation, length, rows, array) in before.items():
                assert tree.relations[node] is relation
                assert len(relation) == length
                assert _id_rows(relation) == rows
                assert _array(relation) is array

        count = columnar_count_join_tree(tree)
        unchanged()
        assert yannakakis_boolean(tree) == (count > 0)
        unchanged()
        assert len(yannakakis_full(tree)) == count
        unchanged()
        yannakakis_full(tree, output_columns=columns[max(columns)])
        unchanged()
        reduced = semijoin_reduce(tree)
        unchanged()
        assert all(len(reduced[node]) <= before[node][1] for node in before)
