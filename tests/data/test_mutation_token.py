"""Regressions for the coherency of a relation's columns and its token.

PR 3 cached ``Relation.columns()`` keyed on ``len(rows)`` only, so a
*same-length* in-place rewrite of a list handed out by ``rows()`` (or
adopted by the since-retired ``wrap()``) kept serving the stale arrays —
the kernels then joined data that no longer existed. A relation now is
its columns: ``rows()`` hands out a copy and the constructor reads the
caller's list into columns of its own, so such a rewrite cannot reach it
at all, and the mutation token moves exactly on ``add``/``extend``. These
tests pin the scenarios the length key missed to that contract: nothing
a caller does to a handed-out list is ever served.
"""

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.errors import SchemaError


class TestStaleColumnRegression:
    """Satellite 1: the length-only cache-invalidation bug."""

    def test_same_length_rewrite_via_rows_is_seen(self):
        # The pre-fix failure was a stale view of the edited list; the
        # list is now the caller's copy, so the relation (and every view
        # of it) is exactly what it was.
        rel = Relation("R", ["x", "y"], [(1, 2), (3, 4)])
        assert [c.tolist() for c in rel.columns()] == [[1, 3], [2, 4]]
        live = rel.rows()
        live[0] = (9, 9)
        assert [c.tolist() for c in rel.columns()] == [[1, 3], [2, 4]]
        assert rel.rows() == [(1, 2), (3, 4)] and rel.mutation_token() == 0

    def test_same_length_rewrite_via_wrap_is_seen(self):
        # wrap() folded into the constructor, which keeps the caller's list
        # no more than wrap() did.
        rows = [(1, 10), (2, 20), (3, 30)]
        rel = Relation("R", ["x", "y"], rows)
        assert [c.tolist() for c in rel.columns()] == [[1, 2, 3], [10, 20, 30]]
        rows[1] = (7, 70)  # the caller's list, not the relation's snapshot
        assert [c.tolist() for c in rel.columns()] == [[1, 2, 3], [10, 20, 30]]
        assert rel.rows_readonly() == [(1, 10), (2, 20), (3, 30)]

    def test_same_length_rewrite_invalidates_key_column_reuse(self):
        rel = Relation("R", ["x", "y"], [(1, 2), (3, 4)])
        other = Relation("S", ["y", "z"], [(2, 5), (9, 6)])
        assert sorted(rel.join(other).rows_readonly()) == [(1, 2, 5)]
        live = rel.rows()
        live[0] = (1, 9)  # would match the other S tuple, were it seen
        assert sorted(rel.join(other).rows_readonly()) == [(1, 2, 5)]
        rel.add((1, 9))  # a real mutation is
        assert sorted(rel.join(other).rows_readonly()) == [(1, 2, 5), (1, 9, 6)]

    def test_extraction_is_cached_after_rows(self):
        # The columns are the relation itself: the same arrays before and
        # after a hand-out, whatever the caller does to it.
        rel = Relation("R", ["x"], [(1,), (2,)])
        first = rel.columns()
        rel.rows().append((3,))
        assert rel.columns() is first and first[0].tolist() == [1, 2]

    def test_unborrowed_extraction_is_cached(self):
        rel = Relation("R", ["x"], [(1,), (2,)])
        assert rel.columns() is rel.columns()

    def test_add_invalidates_cached_columns(self):
        rel = Relation("R", ["x"], [(1,)])
        before = rel.columns()
        rel.add((2,))
        after = rel.columns()
        assert before is not after
        assert after[0].tolist() == [1, 2]


class TestMutationToken:
    def test_token_bumps_on_every_mutation(self):
        rel = Relation("R", ["x"], [(1,)])
        t0 = rel.mutation_token()
        rel.add((2,))
        t1 = rel.mutation_token()
        rel.extend([(3,), (4,)])
        t2 = rel.mutation_token()
        rel.rows().append((5,))  # a hand-out is no mutation
        assert t0 < t1 < t2 == rel.mutation_token()

    def test_readonly_accessors_leave_token_alone(self):
        rel = Relation("R", ["x", "y"], [(1, 2)])
        t0 = rel.mutation_token()
        rel.rows_readonly()
        rel.columns()
        list(rel)
        len(rel)
        rel.rows()
        assert rel.mutation_token() == t0

    def test_a_handed_out_list_is_left_behind_by_add(self):
        rel = Relation("R", ["x"], [(1,)])
        live = rel.rows()
        rel.add((2,))
        live.append((9,))
        assert live == [(1,), (9,)] and rel.rows() == [(1,), (2,)]
        assert rel.mutation_token() == 1

    def test_column_primary_stays_columnar_on_rows(self):
        rel = Relation.from_columns("R", ["x"], [np.array([1, 2])])
        columns = rel.columns()
        live = rel.rows()
        live.append((3,))
        assert rel.columns() is columns
        assert rel.columns()[0].tolist() == [1, 2] and rel.mutation_token() == 0


class TestWrapArityCheck:
    """The constructor (which wrap() folded into) rejects malformed rows at
    the boundary."""

    def test_wrong_arity_first_row_raises(self):
        with pytest.raises(SchemaError, match="arity"):
            Relation("R", ["x", "y"], [(1, 2, 3)])

    def test_wrong_arity_later_row_raises_in_debug(self):
        # Every row is checked, in debug runs and optimized ones alike.
        with pytest.raises(SchemaError, match="arity"):
            Relation("R", ["x", "y"], [(1, 2), (3,)])

    def test_empty_and_valid_lists_pass(self):
        assert len(Relation("R", ["x", "y"], [])) == 0
        rel = Relation("R", ["x", "y"], [(1, 2), (3, 4)])
        assert rel.rows_readonly() == [(1, 2), (3, 4)]
