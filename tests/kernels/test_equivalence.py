"""Kernel-equivalence property tests: vectorized == pure-Python, exactly.

Every kernel must be a byte-identical drop-in for the per-row code it
replaced (:mod:`repro.testing.scalar_reference`) — same values, same
order, no "close enough" — and must take every value. Hypothesis drives
random *and* adversarial inputs: Zipf-style skew (tiny key pools),
all-equal keys, negative integers down to the int64 boundary, and key
columns of every type, equal values of different types included
(``1``, ``1.0``, ``True``; ``0.0`` and ``-0.0``).
"""

from bisect import bisect_left
from collections import defaultdict
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.kernels.columnar import column_of, columns_of, comparable_int64, key_columns, zip_rows
from repro.kernels.hashing import bucket_tuple_columns
from repro.kernels.join import code_key_columns, join_rows_columnar, lookup_codes, semijoin_mask
from repro.kernels.partition import partition_indices, try_route, try_route_grid
from repro.kernels.splitters import splitter_buckets
from repro.mpc.hashing import HashFamily
from repro.mpc.topology import Grid
from repro.testing import scalar_reference as reference
from tests.holdings import BIG, scalar_rung

INT64 = st.integers(-(2**63), 2**63 - 1)
SMALL = st.integers(-4, 4)                      # heavy collisions
SKEWED = st.sampled_from([0, 0, 0, 0, 1, 1, 2, 7, -3])  # Zipf-ish pool
VALUE_STRATEGIES = [INT64, SMALL, SKEWED, st.just(5)]   # st.just = all-equal


def rows_strategy(arity: int, values=None):
    element = st.one_of(*VALUE_STRATEGIES) if values is None else values
    return st.lists(st.tuples(*[element] * arity), max_size=60)


class Recorder:
    """A round that records, per destination, the rows sent there in order."""

    def __init__(self):
        self.sent = defaultdict(list)

    def send_columns(self, dest, _fragment, columns, units=1):
        self.sent[dest].extend(zip_rows(columns))

    def observed(self):
        return {dest: (rows, [tuple(map(type, row)) for row in rows])
                for dest, rows in self.sent.items()}


def _routed(route, data, *args):
    rnd = Recorder()
    route(rnd, data, *args, "out")
    return rnd.observed()


# --------------------------------------------------------------- hashing


class TestHashDestinations:
    @settings(max_examples=50, deadline=None)
    @given(rows=rows_strategy(2), hash_index=st.integers(0, 3))
    def test_matches_scalar_loop(self, rows, hash_index):
        h = HashFamily(7).function(hash_index, 16)
        got = bucket_tuple_columns(key_columns(rows, (1, 0)), h.salt, h.buckets)
        assert got.tolist() == [h((row[1], row[0])) for row in rows]
        data = columns_of(rows, 2)
        assert _routed(try_route, data, (1, 0), h) == _routed(reference.try_route, data, (1, 0), h)

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(st.tuples(st.text(max_size=3), SMALL), min_size=1,
                         max_size=20))
    def test_non_integer_keys_hash_as_the_scalar_spec(self, rows):
        h = HashFamily(7).function(0, 16)
        got = bucket_tuple_columns(key_columns(rows, (0,)), h.salt, h.buckets)
        assert got.tolist() == [h((row[0],)) for row in rows]
        data = columns_of(rows, 2)
        assert _routed(try_route, data, (0,), h) == _routed(reference.try_route, data, (0,), h)

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(st.tuples(st.booleans(), SMALL), min_size=1,
                         max_size=30))
    def test_bools_hash_like_python_ints(self, rows):
        # Python dict/set semantics treat True == 1; a bool column is an
        # object column, hashed through the scalar spec's canonical form.
        h = HashFamily(7).function(1, 8)
        got = bucket_tuple_columns(key_columns(rows, (0,)), h.salt, h.buckets)
        assert got.tolist() == [h((row[0],)) for row in rows] == [h((int(row[0]),)) for row in rows]
        data = columns_of(rows, 2)
        assert _routed(try_route, data, (0,), h) == _routed(reference.try_route, data, (0,), h)


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


class TestJoinKernel:
    @settings(max_examples=60, deadline=None)
    @given(left=rows_strategy(2), right=rows_strategy(2))
    def test_matches_dict_join_single_key(self, left, right):
        got = join_rows_columnar(left, right, (1,), (0,), (1,))
        assert got == reference.join_rows_columnar(left, right, (1,), (0,), (1,))

    @settings(max_examples=40, deadline=None)
    @given(left=rows_strategy(3), right=rows_strategy(3))
    def test_matches_dict_join_two_keys(self, left, right):
        got = join_rows_columnar(left, right, (0, 2), (2, 0), (1,))
        assert got == reference.join_rows_columnar(left, right, (0, 2), (2, 0), (1,))

    @settings(max_examples=20, deadline=None)
    @given(left=st.lists(st.tuples(st.text(max_size=2), SMALL), min_size=1,
                         max_size=15),
           right=st.lists(st.tuples(st.text(max_size=2), SMALL), min_size=1,
                          max_size=15))
    def test_string_keys_match_dict_join(self, left, right):
        got = join_rows_columnar(left, right, (0,), (0,), (1,))
        assert got == reference.join_rows_columnar(left, right, (0,), (0,), (1,))

    def test_uint64_overflow_rejected(self):
        # A uint64 column above int64.max cannot be compared exactly in
        # int64 space: no int64 view of it exists, and the join codes it
        # by value instead of wrapping around onto a negative key.
        big = np.array([2**63 + 1], dtype=np.uint64)
        assert comparable_int64(big) is None
        minus = np.array([2**63 + 1 - 2**64], dtype=np.int64)
        left, right = code_key_columns([big], [minus])
        assert left.tolist() != right.tolist()


class TestSemijoinKernel:
    @settings(max_examples=60, deadline=None)
    @given(rows=rows_strategy(2), members=rows_strategy(1))
    def test_matches_set_membership(self, rows, members):
        mask = semijoin_mask(rows, (1,), members)
        member_set = set(members)
        assert mask.tolist() == [(row[1],) in member_set for row in rows]

    @settings(max_examples=30, deadline=None)
    @given(rows=rows_strategy(3), members=rows_strategy(2))
    def test_matches_set_membership_two_keys(self, rows, members):
        mask = semijoin_mask(rows, (2, 0), members)
        member_set = set(members)
        assert mask.tolist() == [(row[2], row[0]) in member_set for row in rows]


# -------------------------------------------------------------- splitters


def _buckets(keys, positions, splitters):
    """``splitter_buckets`` over one key column holding the items' and the
    splitters' keys, checked against ``bisect_left`` pair by pair."""
    splitters = sorted(splitters)
    column = column_of(list(keys) + [key for key, _ in splitters])[: len(keys)]
    got = splitter_buckets(column, np.array(positions, dtype=np.int64), splitters)
    assert got.tolist() == [bisect_left(splitters, pair) for pair in zip(keys, positions)]
    return column


POSITION = st.integers(0, 2**40)


class TestSplitterSearch:
    """The one splitter search: ``bisect_left`` over (key, position) pairs."""

    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(st.one_of(INT64, SMALL, st.integers(0, 3).map(lambda v: BIG + v)),
                         max_size=60),
           splitters=st.lists(st.tuples(SMALL, POSITION), min_size=1, max_size=10))
    def test_scalar_buckets(self, keys, splitters):
        # Distinct positions, as a sort's are; int64 and uint64 key columns.
        _buckets(keys, range(len(keys)), splitters)

    @settings(max_examples=50, deadline=None)
    @given(pairs=st.lists(st.tuples(st.one_of(*VALUE_STRATEGIES), POSITION), max_size=60),
           splitters=st.lists(st.tuples(st.one_of(*VALUE_STRATEGIES), POSITION), max_size=10))
    def test_tuple_buckets(self, pairs, splitters):
        # Keys equal to one or many splitters' keys, repeated positions.
        _buckets([k for k, _ in pairs], [i for _, i in pairs], splitters)

    def test_mixed_tuples_refused(self):
        # Tuple keys, and keys of mixed types, ride an object column; numpy
        # compares them with Python's ``<`` and ``==`` (1 == 1.0 == True),
        # and values that do not compare raise as ``bisect_left`` would.
        keys = [("a", 1), ("a", 0), ("b", 2), ("a", 1), ("a", 1)]
        assert _buckets(keys, range(5), [(("a", 1), 0), (("a", 1), 3), (("b", 0), 1)]).dtype == object
        assert _buckets([1, 1.0, True, 0.5, -0.0, 2], range(6), [(1.0, 1), (True, 4)]).dtype == object
        with pytest.raises(TypeError):
            splitter_buckets(column_of([1, "a"]), np.arange(2), [(0, 0)])


# ------------------------------------------------------------ every value

# One strategy per kind of key column, and one mixing them all: an exact
# column takes the vectorized path, any other is coded by value, and the
# two sides of a join may differ in kind (1 meets 1.0 and True).
KEY_KINDS = {
    "int": st.integers(-3, 3),
    "bool": st.booleans(),
    "integral-float": st.integers(-3, 3).map(float),
    "zero": st.sampled_from([0.0, -0.0, 0]),
    "str": st.sampled_from(["a", "b", "1"]),
    "none": st.none(),
    "uint64": st.integers(0, 2).map(lambda v: BIG + v),
    "pair": st.tuples(st.integers(0, 1), st.sampled_from(["a", True, 1])),
}
KEY_KINDS["mixed"] = st.one_of(*KEY_KINDS.values())


@st.composite
def keyed_rows(draw, width=2):
    """Rows of ``width`` key columns, each of one drawn kind, and a
    position payload last (so no two rows are equal)."""
    kinds = [draw(st.sampled_from(sorted(KEY_KINDS))) for _ in range(width)]
    keys = draw(st.lists(st.tuples(*(KEY_KINDS[k] for k in kinds)), max_size=30))
    return [key + (i,) for i, key in enumerate(keys)]


def _same_partition(got, want):
    """Whether two code arrays induce one partition of the positions."""
    got, want = got.tolist(), want.tolist()
    return len(set(zip(got, want))) == len(set(got)) == len(set(want))


def _held_forms(rows):
    """``rows`` as held data: their columns, by the one rule (a key and a
    position each)."""
    return [columns_of(rows, len(rows[0]) if rows else 3)]


class TestEveryValue:
    """The six kernels give the per-row reference's destinations, order
    and codes on every key type — and never decline."""

    @settings(max_examples=80, deadline=None)
    @given(rows=keyed_rows(), key_idx=st.sampled_from([(0,), (1,), (0, 1), (1, 0)]),
           buckets=st.sampled_from([1, 3, 8]))
    def test_try_route(self, rows, key_idx, buckets):
        h = HashFamily(3).function(0, buckets)
        for data in _held_forms(rows):
            assert _routed(try_route, data, key_idx, h) == \
                _routed(reference.try_route, data, key_idx, h)

    @settings(max_examples=80, deadline=None)
    @given(rows=keyed_rows(), column_dims=st.sampled_from([(0, 1, 2), (1, 0, 2), (0, 0, 2)]))
    def test_try_route_grid(self, rows, column_dims):
        extents = (2, 3, 1)
        route = (column_dims, (11, 22, 33), extents, Grid(extents).strides)
        for data in _held_forms(rows):
            assert _routed(try_route_grid, data, *route) == \
                _routed(reference.try_route_grid, data, *route)

    @settings(max_examples=40, deadline=None)
    @given(rows=keyed_rows(), column_dims=st.sampled_from([(0, 1, 2), (0, 0, 2)]))
    def test_try_route_grid_of_one_cell(self, rows, column_dims):
        # One destination: every row, in order, and no dimension hashed.
        extents = (1, 1, 1)
        route = (column_dims, (11, 22, 33), extents, Grid(extents).strides)
        for data in _held_forms(rows):
            assert _routed(try_route_grid, data, *route) == \
                _routed(reference.try_route_grid, data, *route)

    @settings(max_examples=80, deadline=None)
    @given(left=keyed_rows(), right=keyed_rows(), key_idx=st.sampled_from([(0,), (0, 1)]))
    def test_code_key_columns(self, left, right, key_idx):
        left_cols, right_cols = key_columns(left, key_idx), key_columns(right, key_idx)
        got = np.concatenate(code_key_columns(left_cols, right_cols))
        want = np.concatenate(reference.code_key_columns(left_cols, right_cols))
        assert _same_partition(got, want)

    @settings(max_examples=80, deadline=None)
    @given(left=keyed_rows(), right=keyed_rows(), key_idx=st.sampled_from([(0,), (1, 0)]))
    def test_join_rows_columnar(self, left, right, key_idx):
        args = (left, right, key_idx, key_idx, (2,))
        got = join_rows_columnar(*args)
        want = reference.join_rows_columnar(*args)
        assert got == want
        assert [tuple(map(type, row)) for row in got] == [tuple(map(type, row)) for row in want]

    @settings(max_examples=80, deadline=None)
    @given(rows=keyed_rows(), members=keyed_rows(), key_idx=st.sampled_from([(0,), (0, 1)]))
    def test_semijoin_mask(self, rows, members, key_idx):
        keys = [tuple(row[i] for i in key_idx) for row in members]
        assert semijoin_mask(rows, key_idx, keys).tolist() == \
            reference.semijoin_mask(rows, key_idx, keys).tolist()

    @settings(max_examples=80, deadline=None)
    @given(rows=keyed_rows(), keyed=keyed_rows(), width=st.sampled_from([1, 2]))
    def test_lookup_codes(self, rows, keyed, width):
        keys = list(dict.fromkeys(row[:width] for row in keyed))  # distinct, as equal
        key_cols = key_columns(rows, range(width))
        assert lookup_codes(key_cols, keys).tolist() == \
            reference.lookup_codes(key_cols, keys).tolist()


# ------------------------------------------------------------- end to end


class TestEndToEndModes:
    """Whole algorithms must agree between the kernels and the scalar rung,
    bit for bit."""

    @settings(max_examples=15, deadline=None)
    @given(left=rows_strategy(2, values=SKEWED), right=rows_strategy(2, values=SKEWED),
           p=st.sampled_from([3, 8]))
    def test_hash_join_modes_identical(self, left, right, p):
        r = Relation("R", ["x", "y"], left)
        s = Relation("S", ["y", "z"], right)
        from repro.joins.hash_join import parallel_hash_join

        results = []
        for rung in (nullcontext, scalar_rung):
            with rung():
                run = parallel_hash_join(r, s, p=p, seed=11)
            results.append((run.output.rows(), run.load, run.rounds))
        assert results[0] == results[1]

    @settings(max_examples=15, deadline=None)
    @given(rows=rows_strategy(3, values=SKEWED), p=st.sampled_from([3, 8]))
    def test_group_by_modes_identical(self, rows, p):
        from repro.multiway.aggregate import group_by

        relation = Relation("G", ["k", "m", "v"], rows)
        results = []
        for rung in (nullcontext, scalar_rung):
            with rung():
                output, stats = group_by(relation, ["k", "m"], "v", sum, p=p, seed=5)
            results.append((output.rows(), [round_.received for round_ in stats.rounds]))
        assert results[0] == results[1]

    def test_differential_instances_both_modes(self):
        # A slice of the selftest workload, run on both rungs: the
        # records' loads must match execution by execution.
        from repro.testing.differential import (
            ALGORITHMS,
            generate_instances,
            run_differential,
        )

        workload = generate_instances(6, seed=202)
        reports = []
        for rung in (nullcontext, scalar_rung):
            with rung():
                reports.append(run_differential(workload, ALGORITHMS, audit=True))
        on, off = reports[0].records, reports[1].records
        assert [r.ok for r in on] == [r.ok for r in off]
        assert all(r.ok for r in on)
        assert [(r.algorithm, r.max_load) for r in on] == \
            [(r.algorithm, r.max_load) for r in off]


class TestColumnsFallback:
    def test_mixed_rows_hold_an_object_column(self):
        rel = Relation("M", ["a", "b"], [("x", 1), ("y", 2)])
        assert [column.dtype for column in rel.columns()] == [object, np.int64]
        assert rel.columns()[0].tolist() == ["x", "y"]

    def test_key_columns_subset_mixed(self):
        # A column numpy cannot hold exactly is an object column.
        rows = [("x", 1), ("y", 2)]
        [strings] = key_columns(rows, (0,))
        assert strings.dtype == object and strings.tolist() == ["x", "y"]
        [ints] = key_columns(rows, (1,))
        assert ints.dtype == np.int64 and ints.tolist() == [1, 2]

    def test_join_falls_back_on_mixed_relation(self):
        left = Relation("L", ["k", "v"], [("a", 1), ("b", 2), ("a", 3)])
        right = Relation("R", ["k", "w"], [("a", 10), ("c", 11)])
        for rung in (nullcontext, scalar_rung):
            with rung():
                out = left.join(right)
            assert out.rows() == [("a", 1, 10), ("a", 3, 10)]
