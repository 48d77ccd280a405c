"""Property tests pinning the columnar kernel to set comprehensions.

Two invariants, over random relations:

* **round-trip identity** — ``ColumnarRelation.from_named(r).to_named()``
  is ``r`` (same columns, same rows), including relations whose values mix
  types within a column and the zero-column units;
* **operation agreement** — joins (and semijoins / projections, which the
  join passes are built from) computed columnar-side decode to exactly what
  a set comprehension over the named rows gives, with both relations
  interned into one shared dictionary, in either argument order.
"""

from hypothesis import given, settings, strategies as st

from repro.cq.columnar import ColumnarRelation, ValueInterner
from repro.cq.relational import NamedRelation

# Small pools keep collisions (joins that actually match) likely while the
# mixed-type values exercise interning across Python equality classes.
VALUES = st.sampled_from([0, 1, 2, 3, True, "a", "b", "zz", 1.5, None, (1, 2)])
COLUMN_POOL = ("u", "v", "w", "x", "y", "z")


def _key(relation, row, columns) -> tuple:
    return tuple(row[relation.column_index(c)] for c in columns)


def join(left, right) -> NamedRelation:
    """``left ⋈ right``: every pair of rows agreeing on the shared columns."""
    shared = [c for c in left.columns if c in right.columns]
    extra = tuple(c for c in right.columns if c not in left.columns)
    return NamedRelation(left.columns + extra, {
        row + _key(right, other, extra) for row in left for other in right
        if _key(left, row, shared) == _key(right, other, shared)
    })


def relations(min_width=0, max_width=4):
    def build(columns):
        width = len(columns)
        rows = st.sets(
            st.tuples(*[VALUES] * width) if width else st.just(()),
            max_size=24,
        )
        return rows.map(lambda r: NamedRelation(columns, r))

    return st.sampled_from(
        [
            COLUMN_POOL[start : start + width]
            for width in range(min_width, max_width + 1)
            for start in range(len(COLUMN_POOL) - width + 1)
        ]
    ).flatmap(build)


@settings(max_examples=200, deadline=None)
@given(relation=relations())
def test_round_trip_is_identity(relation):
    interner = ValueInterner()
    columnar = ColumnarRelation.from_named(relation, interner)
    back = columnar.to_named()
    assert back.columns == relation.columns
    assert back == relation
    assert len(columnar) == len(relation.rows)


@settings(max_examples=200, deadline=None)
@given(left=relations(min_width=1), right=relations(min_width=1))
def test_natural_join_agrees_with_set_comprehensions(left, right):
    interner = ValueInterner()
    columnar_left = ColumnarRelation.from_named(left, interner)
    columnar_right = ColumnarRelation.from_named(right, interner)
    expected = join(left, right)
    joined = columnar_left.natural_join(columnar_right)
    assert joined.columns == expected.columns
    assert joined.to_named() == expected
    # Join is commutative up to column order; both orders must decode right.
    assert columnar_right.natural_join(columnar_left).to_named() == join(right, left)


@settings(max_examples=200, deadline=None)
@given(left=relations(min_width=1), right=relations(min_width=1))
def test_semijoin_agrees_with_set_comprehensions(left, right):
    interner = ValueInterner()
    columnar_left = ColumnarRelation.from_named(left, interner)
    columnar_right = ColumnarRelation.from_named(right, interner)
    shared = [c for c in left.columns if c in right.columns]
    keys = {_key(right, row, shared) for row in right}
    expected = {row for row in left if _key(left, row, shared) in keys}
    assert columnar_left.semijoin(columnar_right).to_named() == NamedRelation(
        left.columns, expected
    )


@settings(max_examples=200, deadline=None)
@given(relation=relations(min_width=1), data=st.data())
def test_projection_agrees_with_set_comprehensions(relation, data):
    keep = data.draw(
        st.permutations(relation.columns).flatmap(
            lambda order: st.integers(0, len(order)).map(lambda n: tuple(order[:n]))
        )
    )
    interner = ValueInterner()
    columnar = ColumnarRelation.from_named(relation, interner)
    assert columnar.project(keep).to_named() == NamedRelation(
        keep, {_key(relation, row, keep) for row in relation}
    )
