"""Kernel-equivalence property tests: vectorized == pure-Python, exactly.

Every kernel must be a byte-identical drop-in for the tuple-at-a-time
code it replaces — same values, same order, no "close enough". Hypothesis
drives random *and* adversarial inputs: Zipf-style skew (tiny key pools),
all-equal keys, negative integers down to the int64 boundary, and
mixed-type columns that must make the kernels refuse (return ``None``)
rather than guess.
"""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.kernels.columnar import comparable_int64, key_columns
from repro.kernels.config import use_kernels
from repro.kernels.join import join_rows_columnar, semijoin_mask
from repro.kernels.partition import hash_destinations, partition_indices
from repro.kernels.splitters import searchsorted_buckets, tuple_buckets
from repro.mpc.hashing import HashFamily

INT64 = st.integers(-(2**63), 2**63 - 1)
SMALL = st.integers(-4, 4)                      # heavy collisions
SKEWED = st.sampled_from([0, 0, 0, 0, 1, 1, 2, 7, -3])  # Zipf-ish pool
VALUE_STRATEGIES = [INT64, SMALL, SKEWED, st.just(5)]   # st.just = all-equal


def rows_strategy(arity: int, values=None):
    element = st.one_of(*VALUE_STRATEGIES) if values is None else values
    return st.lists(st.tuples(*[element] * arity), max_size=60)


# --------------------------------------------------------------- hashing


class TestHashDestinations:
    @settings(max_examples=50, deadline=None)
    @given(rows=rows_strategy(2), hash_index=st.integers(0, 3))
    def test_matches_scalar_loop(self, rows, hash_index):
        h = HashFamily(7).function(hash_index, 16)
        got = hash_destinations(rows, (1, 0), h)
        assert got is not None
        assert got.tolist() == [h((row[1], row[0])) for row in rows]

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(st.tuples(st.text(max_size=3), SMALL), min_size=1,
                         max_size=20))
    def test_refuses_non_integer_keys(self, rows):
        h = HashFamily(7).function(0, 16)
        assert hash_destinations(rows, (0,), h) is None

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(st.tuples(st.booleans(), SMALL), min_size=1,
                         max_size=30))
    def test_bools_hash_like_python_ints(self, rows):
        # Python dict/set semantics treat True == 1; the kernels widen
        # bool columns to integers and must agree with the scalar path.
        h = HashFamily(7).function(1, 8)
        got = hash_destinations(rows, (0,), h)
        assert got is not None
        assert got.tolist() == [h((row[0],)) for row in rows]


class TestPartitionIndices:
    @settings(max_examples=50, deadline=None)
    @given(destinations=st.lists(st.integers(0, 7), max_size=80))
    def test_stable_grouping(self, destinations):
        array = np.array(destinations, dtype=np.int64)
        groups = partition_indices(array, 8)
        assert len(groups) == 8
        for dest, group in enumerate(groups):
            assert [destinations[i] for i in group] == [dest] * len(group)
            assert list(group) == sorted(group)  # original order kept
        assert sum(len(g) for g in groups) == len(destinations)


# ------------------------------------------------------------------ joins


def dict_join_reference(left, right, left_idx, right_idx, payload_idx):
    index = {}
    for row in right:
        index.setdefault(tuple(row[i] for i in right_idx), []).append(row)
    out = []
    for row in left:
        for match in index.get(tuple(row[i] for i in left_idx), ()):
            out.append(row + tuple(match[i] for i in payload_idx))
    return out


class TestJoinKernel:
    @settings(max_examples=60, deadline=None)
    @given(left=rows_strategy(2), right=rows_strategy(2))
    def test_matches_dict_join_single_key(self, left, right):
        got = join_rows_columnar(left, right, (1,), (0,), (1,))
        assert got == dict_join_reference(left, right, (1,), (0,), (1,))

    @settings(max_examples=40, deadline=None)
    @given(left=rows_strategy(3), right=rows_strategy(3))
    def test_matches_dict_join_two_keys(self, left, right):
        got = join_rows_columnar(left, right, (0, 2), (2, 0), (1,))
        assert got == dict_join_reference(left, right, (0, 2), (2, 0), (1,))

    @settings(max_examples=20, deadline=None)
    @given(left=st.lists(st.tuples(st.text(max_size=2), SMALL), min_size=1,
                         max_size=15),
           right=st.lists(st.tuples(st.text(max_size=2), SMALL), min_size=1,
                          max_size=15))
    def test_refuses_mixed_type_keys(self, left, right):
        assert join_rows_columnar(left, right, (0,), (0,), (1,)) is None

    def test_uint64_overflow_rejected(self):
        # A uint64 column above int64.max cannot be compared exactly in
        # int64 space; the kernel must refuse, not wrap around.
        big = np.array([2**63 + 1], dtype=np.uint64)
        assert comparable_int64(big) is None


class TestSemijoinKernel:
    @settings(max_examples=60, deadline=None)
    @given(rows=rows_strategy(2), members=rows_strategy(1))
    def test_matches_set_membership(self, rows, members):
        mask = semijoin_mask(rows, (1,), members)
        assert mask is not None
        member_set = set(members)
        assert mask.tolist() == [(row[1],) in member_set for row in rows]

    @settings(max_examples=30, deadline=None)
    @given(rows=rows_strategy(3), members=rows_strategy(2))
    def test_matches_set_membership_two_keys(self, rows, members):
        mask = semijoin_mask(rows, (2, 0), members)
        assert mask is not None
        member_set = set(members)
        assert mask.tolist() == [(row[2], row[0]) in member_set for row in rows]


# -------------------------------------------------------------- splitters


class TestSplitterSearch:
    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(st.one_of(INT64, SMALL), max_size=60),
           splitters=st.lists(SMALL, min_size=1, max_size=10))
    def test_scalar_buckets(self, keys, splitters):
        splitters = sorted(splitters)
        got = searchsorted_buckets(keys, splitters)
        assert got is not None
        assert got.tolist() == [bisect_left(splitters, k) for k in keys]

    @settings(max_examples=50, deadline=None)
    @given(keys=rows_strategy(2), splitters=rows_strategy(2))
    def test_tuple_buckets(self, keys, splitters):
        splitters = sorted(splitters)
        got = tuple_buckets(keys, splitters)
        if not splitters:
            return
        assert got is not None
        assert got.tolist() == [bisect_left(splitters, k) for k in keys]

    def test_mixed_tuples_refused(self):
        assert tuple_buckets([("a", 1)], [("a", 0)]) is None


# ------------------------------------------------------------- end to end


class TestEndToEndModes:
    """Whole algorithms must agree between kernel modes, bit for bit."""

    @settings(max_examples=15, deadline=None)
    @given(left=rows_strategy(2, values=SKEWED), right=rows_strategy(2, values=SKEWED),
           p=st.sampled_from([3, 8]))
    def test_hash_join_modes_identical(self, left, right, p):
        r = Relation("R", ["x", "y"], left)
        s = Relation("S", ["y", "z"], right)
        from repro.joins.hash_join import parallel_hash_join

        results = {}
        for mode in (True, False):
            with use_kernels(mode):
                run = parallel_hash_join(r, s, p=p, seed=11)
            results[mode] = (run.output.rows(), run.load, run.rounds)
        assert results[True] == results[False]

    @settings(max_examples=15, deadline=None)
    @given(rows=rows_strategy(3, values=SKEWED), p=st.sampled_from([3, 8]))
    def test_group_by_modes_identical(self, rows, p):
        from repro.multiway.aggregate import group_by

        relation = Relation("G", ["k", "m", "v"], rows)
        results = {}
        for mode in (True, False):
            with use_kernels(mode):
                output, stats = group_by(relation, ["k", "m"], "v", sum, p=p, seed=5)
            results[mode] = (
                output.rows(), [round_.received for round_ in stats.rounds]
            )
        assert results[True] == results[False]

    def test_differential_instances_both_modes(self):
        # A slice of the selftest workload, run under both modes: the
        # records' loads must match execution by execution.
        from repro.testing.differential import (
            ALGORITHMS,
            generate_instances,
            run_differential,
        )

        workload = generate_instances(6, seed=202)
        reports = {}
        for mode in (True, False):
            with use_kernels(mode):
                reports[mode] = run_differential(workload, ALGORITHMS, audit=True)
        on, off = reports[True].records, reports[False].records
        assert [r.ok for r in on] == [r.ok for r in off]
        assert all(r.ok for r in on)
        assert [(r.algorithm, r.max_load) for r in on] == \
            [(r.algorithm, r.max_load) for r in off]


class TestColumnsFallback:
    def test_mixed_rows_have_no_columns(self):
        rel = Relation("M", ["a", "b"], [("x", 1), ("y", 2)])
        assert rel.columns() is None

    def test_key_columns_subset_mixed(self):
        rows = [("x", 1), ("y", 2)]
        assert key_columns(rows, (0,)) is None
        cols = key_columns(rows, (1,))
        assert cols is not None and cols[0].tolist() == [1, 2]

    def test_join_falls_back_on_mixed_relation(self):
        left = Relation("L", ["k", "v"], [("a", 1), ("b", 2), ("a", 3)])
        right = Relation("R", ["k", "w"], [("a", 10), ("c", 11)])
        for mode in (True, False):
            with use_kernels(mode):
                out = left.join(right)
            assert out.rows() == [("a", 1, 10), ("a", 3, 10)]
