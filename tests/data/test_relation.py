"""Unit and property tests for repro.data.relation."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.relation import Relation, union_all
from repro.errors import SchemaError


@pytest.fixture
def r():
    return Relation("R", ["x", "y"], [(1, 2), (1, 3), (2, 3)])


@pytest.fixture
def s():
    return Relation("S", ["y", "z"], [(2, 10), (3, 11), (3, 12), (4, 13)])


class TestRelationBasics:
    def test_len_and_iter(self, r):
        assert len(r) == 3
        assert list(r) == [(1, 2), (1, 3), (2, 3)]

    def test_arity_checked_on_init(self):
        with pytest.raises(SchemaError):
            Relation("R", ["x", "y"], [(1,)])

    def test_arity_checked_on_add(self, r):
        with pytest.raises(SchemaError):
            r.add((1, 2, 3))

    def test_add_and_extend(self, r):
        r.add((5, 6))
        r.extend([(7, 8)])
        assert len(r) == 5

    def test_bag_equality(self):
        a = Relation("A", ["x"], [(1,), (1,), (2,)])
        b = Relation("B", ["x"], [(2,), (1,), (1,)])
        assert a == b  # name does not matter, multiset does
        c = Relation("C", ["x"], [(1,), (2,)])
        assert a != c

    def test_contains(self, r):
        assert (1, 2) in r
        assert (9, 9) not in r


class TestRelationOperations:
    def test_project_keeps_duplicates(self, r):
        p = r.project(["x"])
        assert p.rows() == [(1,), (1,), (2,)]
        assert p.schema.attributes == ("x",)

    def test_project_reorders(self, r):
        p = r.project(["y", "x"])
        assert p.rows()[0] == (2, 1)

    def test_distinct(self):
        a = Relation("A", ["x"], [(1,), (1,), (2,)])
        assert a.distinct().rows() == [(1,), (2,)]

    def test_select(self, r):
        assert r.select(lambda t: t[0] == 1).rows() == [(1, 2), (1, 3)]

    def test_select_eq(self, r):
        assert r.select_eq("y", 3).rows() == [(1, 3), (2, 3)]

    def test_rename_copies_row_list(self, r):
        q = r.rename({"x": "u"})
        assert q.schema.attributes == ("u", "y")
        # The row list is copied (mutating the rename must not leak into
        # the original) while the tuples themselves are shared.
        assert q.rows() == r.rows()
        assert q.rows() is not r.rows()
        q.add((9, 9))
        assert len(r) == 3

    def test_key_and_column(self, r):
        assert r.key(["y"]) == [(2,), (3,), (3,)]
        assert r.column("y") == [2, 3, 3]

    def test_degrees(self, r):
        assert r.degrees("y") == Counter({3: 2, 2: 1})

    def test_heavy_hitters(self, r):
        assert r.heavy_hitters("y", 2) == {3}
        assert r.heavy_hitters("y", 3) == set()

    def test_sorted_by(self, s):
        assert s.sorted_by(["z"]).rows() == sorted(s.rows(), key=lambda t: t[1])


class TestJoin:
    def test_natural_join(self, r, s):
        j = r.join(s)
        assert j.schema.attributes == ("x", "y", "z")
        assert sorted(j.rows()) == [
            (1, 2, 10),
            (1, 3, 11),
            (1, 3, 12),
            (2, 3, 11),
            (2, 3, 12),
        ]

    def test_join_no_shared_attributes_is_product(self):
        a = Relation("A", ["x"], [(1,), (2,)])
        b = Relation("B", ["y"], [(10,), (20,)])
        j = a.join(b)
        assert len(j) == 4

    def test_join_with_empty(self, r):
        empty = Relation("S", ["y", "z"])
        assert len(r.join(empty)) == 0

    def test_semijoin(self, r, s):
        assert r.semijoin(s).rows() == [(1, 2), (1, 3), (2, 3)]
        small = Relation("S", ["y", "z"], [(3, 1)])
        assert r.semijoin(small).rows() == [(1, 3), (2, 3)]

    def test_semijoin_no_shared_attrs(self, r):
        nonempty = Relation("B", ["w"], [(1,)])
        empty = Relation("B", ["w"], [])
        assert len(r.semijoin(nonempty)) == len(r)
        assert len(r.semijoin(empty)) == 0


class TestFromColumns:
    def test_an_empty_value_list_is_an_empty_int64_column(self):
        # np.asarray([]) is float64, which from_columns once refused.
        rel = Relation.from_columns("R", ["x", "y"], [[], []])
        assert len(rel) == 0 and rel.rows() == []
        assert [c.dtype for c in rel.columns()] == [np.int64, np.int64]

    def test_value_lists_go_by_the_one_rule(self):
        rel = Relation.from_columns("R", ["x", "y", "z"], [[1, 2], [2**63 + 1, 3], ["a", True]])
        assert [c.dtype for c in rel.columns()] == [np.int64, np.uint64, object]
        assert rel.rows() == [(1, 2**63 + 1, "a"), (2, 3, True)]
        assert type(rel.rows()[1][2]) is bool


class TestUnionAll:
    def test_concatenates(self):
        a = Relation("A", ["x"], [(1,)])
        b = Relation("B", ["x"], [(2,), (2,)])
        u = union_all("U", [a, b])
        assert u.rows() == [(1,), (2,), (2,)]

    def test_schema_mismatch_raises(self):
        a = Relation("A", ["x"], [(1,)])
        b = Relation("B", ["y"], [(2,)])
        with pytest.raises(SchemaError):
            union_all("U", [a, b])

    def test_empty_list_raises(self):
        with pytest.raises(SchemaError):
            union_all("U", [])


small_rows = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=40
)


class TestJoinProperties:
    @given(small_rows, small_rows)
    def test_join_matches_nested_loop(self, r_rows, s_rows):
        """Hash-index join must agree with the brute-force definition."""
        r = Relation("R", ["x", "y"], r_rows)
        s = Relation("S", ["y", "z"], s_rows)
        expected = sorted(
            (x, y, z) for (x, y) in r_rows for (y2, z) in s_rows if y == y2
        )
        assert sorted(r.join(s).rows()) == expected

    @given(small_rows, small_rows)
    def test_semijoin_is_filter_of_join(self, r_rows, s_rows):
        r = Relation("R", ["x", "y"], r_rows)
        s = Relation("S", ["y", "z"], s_rows)
        joined_keys = {t[:2] for t in r.join(s).rows()}
        assert sorted(r.semijoin(s).rows()) == sorted(
            t for t in r_rows if t in joined_keys
        )

    @given(small_rows)
    def test_project_then_distinct_size(self, rows):
        r = Relation("R", ["x", "y"], rows)
        assert len(r.project(["x"]).distinct()) == len({t[0] for t in rows})
