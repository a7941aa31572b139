"""One property over every value kind: a relation hands back what it was given.

A relation is one read-only column per attribute — ``int64``/``uint64``
for plain ints, ``object`` for anything else — and an ``object`` column
holds the very values. So whatever the values (``int``, ``bool``,
``±0.0``, floats, strings, ``None``, ints past ``int64`` and past 64
bits, numpy scalars, tuples), every operator's ``rows()`` is what the
same operator over plain tuples gives, value for value *and type for
type*; ``join`` and ``semijoin`` equal the nested-loop oracle as bags;
and every array held is read-only.
"""

import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation, union_all
from repro.errors import SchemaError
from repro.testing.oracle import oracle_two_way

BIG = 2**63 + 5  # a uint64 above int64 max

# Values that may meet as join keys: equal ones hash equal across types.
KEYS = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    st.sampled_from(["a", "b", ""]),
    st.none(),
    st.integers(0, 2).map(lambda v: BIG + v),
    st.just(2**64 + 3),
    st.tuples(st.integers(0, 1), st.sampled_from(["a", True])),
)
# ... and numpy scalars, which ride payload columns only (``np.float64 ==
# tuple`` compares elementwise, which no join key may do).
VALUES = st.one_of(
    KEYS, st.integers(-3, 3).map(np.int64), st.sampled_from([0.5, -0.0]).map(np.float64)
)


def rows_of(values, arity=2, max_size=12):
    return st.lists(st.tuples(*[values] * arity), max_size=max_size)


def exactly(rows):
    """Rows as comparable values that tell ``1``, ``True``, ``1.0`` and
    ``np.int64(1)`` — and ``0.0`` and ``-0.0`` — apart."""
    return [tuple((type(v), repr(v)) for v in row) for row in rows]


def read_only(rel):
    assert rel.columns() and not any(column.flags.writeable for column in rel.columns())
    return rel


def outcome(build):
    """``("ok", exact rows)`` of what ``build()`` returns, or the error type."""
    try:
        return "ok", exactly(build())
    except (TypeError, ValueError) as error:
        return "raises", type(error)


@settings(max_examples=150, deadline=None)
@given(rows=rows_of(VALUES), more=rows_of(VALUES, max_size=4), pick=st.integers(0, 11))
def test_every_operator_hands_back_the_values_it_was_given(rows, more, pick):
    rel = read_only(Relation("R", ["x", "y"], rows))
    assert exactly(rel.rows()) == exactly(rows)
    assert exactly(read_only(pickle.loads(pickle.dumps(rel))).rows()) == exactly(rows)
    assert exactly(read_only(rel.project(["y", "x"])).rows()) == exactly([(y, x) for x, y in rows])
    assert exactly(read_only(rel.rename({"x": "u"})).rows()) == exactly(rows)
    assert exactly(read_only(rel.select(lambda row: row[0] is None)).rows()) == \
        exactly([row for row in rows if row[0] is None])
    assert exactly(read_only(rel.distinct()).rows()) == exactly(dict.fromkeys(rows))
    twice = read_only(union_all("U", [rel, Relation("S", ["x", "y"], more)]))
    assert exactly(twice.rows()) == exactly(rows + more)
    if rows:  # (a numpy scalar against a tuple compares elementwise: both raise)
        value = rows[pick % len(rows)][1]
        assert outcome(lambda: read_only(rel.select_eq("y", value)).rows()) == \
            outcome(lambda: [row for row in rows if row[1] == value])
    assert outcome(lambda: read_only(rel.sorted_by(["y"])).rows()) == \
        outcome(lambda: sorted(rows, key=lambda row: (row[1],)))

    grown = Relation("R", ["x", "y"], rows)
    grown.extend(more)
    for row in more[:1]:
        grown.add(row)
    assert exactly(read_only(grown).rows()) == exactly(rows + more + more[:1])
    assert grown.mutation_token() == bool(more) * 2


@settings(max_examples=150, deadline=None)
@given(r_rows=rows_of(KEYS), s_rows=rows_of(KEYS))
def test_join_and_semijoin_are_the_oracle_bags(r_rows, s_rows):
    r = Relation("R", ["x", "k"], r_rows)
    s = Relation("S", ["k", "z"], s_rows)
    joined = read_only(r.join(s))
    assert Counter(exactly(joined.rows())) == Counter(exactly(oracle_two_way(r, s).rows()))
    kept = read_only(r.semijoin(s))
    assert Counter(exactly(kept.rows())) == Counter(exactly(
        [row for row in r_rows if any(row[1] == other[0] for other in s_rows)]
    ))


def test_an_arity_0_relation_cannot_be_built_and_an_empty_one_can():
    with pytest.raises(SchemaError):
        Relation("E", [], [])
    empty = Relation("E", ["x", "y"])
    assert len(empty) == 0 and empty.rows() == []
    assert [c.dtype for c in read_only(empty).columns()] == [np.int64, np.int64]
    assert read_only(empty.join(Relation("S", ["y"], [("a",)]))).rows() == []
