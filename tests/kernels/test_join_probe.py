"""The equality kernels probe a table, and answer what a binary search did.

``join_indices`` and ``locate`` read every probe's run from a table over the
codes' slots (:func:`repro.kernels.join.slots`) instead of searching the
sorted codes. The searching bodies they replaced are kept below, verbatim,
as the oracle: the kernels must return the same values, in the same order,
of the same dtype, on duplicates, negative codes, the ``int64`` extremes,
probes outside ``[lo, hi]``, empty sides, and spans on both sides of the
table bound (``6 · (n + m)``, the rank step) and of the radix bound (2¹⁶).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.columnar import column_of, key_columns
from repro.data.relation import Relation
from repro.kernels.join import (
    code_key_columns, join_indices, locate, lookup_codes, match_counts, runs, slots,
)
from repro.testing import scalar_reference as reference

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
INT64 = st.integers(INT64_MIN, INT64_MAX)
EXTREMES = st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX])


def oracle_join_indices(left_codes, right_codes):
    order = np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    starts = np.searchsorted(sorted_codes, left_codes, side="left")
    ends = np.searchsorted(sorted_codes, left_codes, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left_pos = np.repeat(np.arange(len(left_codes)), counts)
    # Within each left row's block, walk the matching right run start..end.
    block_starts = np.repeat(starts, counts)
    block_offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right_pos = order[block_starts + block_offsets]
    return left_pos, right_pos


def oracle_locate(key_cols, table):
    if not len(table[0]):
        return np.full(len(key_cols[0]), -1, dtype=np.int64)
    row_codes, key_codes = code_key_columns(key_cols, table)
    rank = np.argsort(key_codes)
    ranked = key_codes[rank]
    at = np.minimum(np.searchsorted(ranked, row_codes), len(rank) - 1)
    return np.where(ranked[at] == row_codes, rank[at], -1)


def assert_same(got, expected):
    got = got if isinstance(got, tuple) else (got,)
    expected = expected if isinstance(expected, tuple) else (expected,)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype, (g.dtype, e.dtype)
        assert g.tolist() == e.tolist()


def assert_runs_match_the_search(codes, probes):
    order, start, count = runs(codes, probes)
    ordered = codes[np.argsort(codes, kind="stable")]
    assert_same(order, np.argsort(codes, kind="stable"))
    assert_same(start, np.searchsorted(ordered, probes, side="left"))
    assert_same(count, np.searchsorted(ordered, probes, side="right") - start)


def ints(values):
    return np.array(values, dtype=np.int64)


@st.composite
def code_pairs(draw):
    """``(probes, codes)``: codes with duplicates from a small pool that may
    hold negatives and the ``int64`` extremes, probes from the pool or not."""
    pool = draw(st.lists(st.one_of(st.integers(-8, 8), INT64, EXTREMES), min_size=1, max_size=10))
    codes = draw(st.lists(st.sampled_from(pool), max_size=40))
    probes = draw(st.lists(st.one_of(st.sampled_from(pool), INT64, EXTREMES), max_size=40))
    return ints(probes), ints(codes)


@st.composite
def clustered_pairs(draw):
    """A narrow cluster of codes placed anywhere, up against either extreme
    too, and probes around it: below ``lo``, inside, above ``hi``."""
    width = draw(st.integers(0, 30))
    base = draw(st.one_of(INT64, EXTREMES, st.integers(-40, 40)))
    base = min(max(base, INT64_MIN), INT64_MAX - width)
    offsets = st.integers(0, width)
    codes = [base + d for d in draw(st.lists(offsets, max_size=30))]
    near = st.integers(-3, width + 3).map(lambda d: min(max(base + d, INT64_MIN), INT64_MAX))
    probes = draw(st.lists(st.one_of(near, EXTREMES), max_size=30))
    return ints(probes), ints(codes)


def span_pair(n, m, span, seed=0):
    """``n`` codes spanning exactly ``span`` (both ends present) and ``m``
    probes reaching one past either end."""
    g = np.random.default_rng([n, m, span, seed])
    lo = int(g.integers(-(2**40), 2**40))
    codes = lo + g.integers(0, span + 1, n)
    codes[:2] = lo, lo + span
    probes = lo + g.integers(-1, span + 2, m)
    return probes, g.permutation(codes)


class TestJoinIndices:
    @settings(max_examples=400, deadline=None)
    @given(code_pairs())
    def test_equals_the_search(self, pair):
        probes, codes = pair
        assert_same(join_indices(probes, codes), oracle_join_indices(probes, codes))

    @settings(max_examples=300, deadline=None)
    @given(clustered_pairs())
    def test_equals_the_search_around_lo_and_hi(self, pair):
        probes, codes = pair
        assert_same(join_indices(probes, codes), oracle_join_indices(probes, codes))

    @pytest.mark.parametrize("probes, codes", [
        ([], []), ([1, 2], []), ([], [1, 2]),
        ([INT64_MIN, INT64_MAX, 0], [INT64_MAX, INT64_MIN, INT64_MAX]),
        ([INT64_MIN, INT64_MIN + 1], [INT64_MIN]),
        ([INT64_MAX, INT64_MAX - 1], [INT64_MAX]),
        ([INT64_MIN, INT64_MAX], [0]),
        ([-5, 3, 10, 4, -5], [3, 3, -5, 4, 3]),
    ])
    def test_edges(self, probes, codes):
        probes, codes = ints(probes), ints(codes)
        assert_same(join_indices(probes, codes), oracle_join_indices(probes, codes))

    @pytest.mark.parametrize("extra, rank_step", [(0, False), (1, True)])
    @pytest.mark.parametrize("n, m", [(2, 1), (7, 3), (40, 90)])
    def test_the_table_bound_is_isins(self, n, m, extra, rank_step):
        probes, codes = span_pair(n, m, 6 * (n + m) + extra)
        size = slots(codes, probes)[2]
        assert (size <= n + m) == rank_step
        assert_same(join_indices(probes, codes), oracle_join_indices(probes, codes))
        assert_runs_match_the_search(codes, probes)

    @pytest.mark.parametrize("span", [2**16 - 4, 2**16 - 3, 2**16 - 2, 2**16 - 1, 2**16, 2**16 + 1])
    def test_the_radix_boundary(self, span):
        n = m = span // 12 + 1   # keeps the span on the table side of the bound
        probes, codes = span_pair(n, m, span)
        size = slots(codes, probes)[2]
        assert size == span + 3
        assert_same(join_indices(probes, codes), oracle_join_indices(probes, codes))
        assert_runs_match_the_search(codes, probes)


class TestRuns:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(code_pairs(), clustered_pairs()))
    def test_start_and_count_are_the_two_searches(self, pair):
        probes, codes = pair
        if len(codes):
            assert_runs_match_the_search(codes, probes)


class TestMatchCounts:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(code_pairs(), clustered_pairs()))
    def test_is_each_left_rows_number_of_matches(self, pair):
        probes, codes = pair
        left_pos, _ = oracle_join_indices(probes, codes)
        assert_same(match_counts(probes, codes), np.bincount(left_pos, minlength=len(probes)))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.one_of(st.integers(-3, 3), st.text(max_size=1)))),
        st.lists(st.one_of(st.integers(-3, 3), st.just(1.0)), max_size=20),
    )
    def test_a_closing_join_is_the_indexed_join(self, rows, keys):
        # The right side adds no attribute: each left row, repeated in place,
        # is what the match indices pick, in values, order and dtype.
        left = Relation("L", ["x", "y"], rows)
        right = Relation("R", ["x"], [(k,) for k in keys])
        left_pos, _ = oracle_join_indices(*code_key_columns(left.columns()[:1], right.columns()))
        joined = left.join(right)
        assert joined.schema == left.schema
        for got, column in zip(joined.columns(), left.columns()):
            assert_same(got, column[left_pos])


class TestLocate:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(code_pairs(), clustered_pairs()))
    def test_equals_the_search(self, pair):
        probes, codes = pair
        table = [np.random.default_rng(len(codes)).permutation(np.unique(codes))]
        assert_same(locate([probes], table), oracle_locate([probes], table))

    PAIRS = st.tuples(st.integers(-3, 3), st.one_of(st.integers(-3, 3), EXTREMES))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(PAIRS, max_size=30), st.sets(PAIRS, max_size=12))
    def test_two_column_keys(self, rows, keys):
        key_cols = key_columns(rows, (0, 1)) if rows else [ints([]), ints([])]
        table = key_columns(sorted(keys), (0, 1)) if keys else [ints([]), ints([])]
        assert_same(locate(key_cols, table), oracle_locate(key_cols, table))

    @pytest.mark.parametrize("extra", [0, 1])
    def test_both_sides_of_the_table_bound(self, extra):
        probes, codes = span_pair(30, 50, 6 * 80 + extra)
        table = [np.unique(codes)]
        assert_same(locate([probes], table), oracle_locate([probes], table))

    @pytest.mark.parametrize("span", [2**16 - 1, 2**16, 2**16 + 1])
    def test_the_radix_boundary(self, span):
        probes, codes = span_pair(span // 12 + 1, span // 12 + 1, span)
        table = [np.unique(codes)[::-1].copy()]
        assert_same(locate([probes], table), oracle_locate([probes], table))

    def test_empty_sides(self):
        for key_cols, table in (([ints([])], [ints([1])]), ([ints([1, 2])], [ints([])]),
                                ([ints([])], [ints([])])):
            assert_same(locate(key_cols, table), oracle_locate(key_cols, table))


class TestLookupCodesOnObjectKeys:
    """``1``, ``1.0`` and ``True`` are one key: each finds the one table row
    among them, as the dict probe of the reference does."""

    VALUES = [1, 1.0, True, 0, 0.0, False, -0.0, 2, "a", None, (1, "a"), (True, "a"), 10**30]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(VALUES), max_size=30),
           st.lists(st.sampled_from(VALUES), max_size=8))
    def test_equals_the_search_and_the_dict(self, values, candidates):
        keys = []
        for value in candidates:  # table rows distinct under ==
            if all(value != key[0] for key in keys):
                keys.append((value,))
        key_cols = [column_of(values)]
        table = key_columns(keys, range(1)) if keys else [ints([])]
        got = lookup_codes(key_cols, keys)
        assert_same(got, oracle_locate(key_cols, table))
        assert got.tolist() == reference.lookup_codes(key_cols, keys).tolist()

    def test_one_meets_one_point_oh_and_true(self):
        key_cols = [column_of([True, 1.0, 1, 2, "1"])]
        got = lookup_codes(key_cols, [("1",), (1.0,)])
        assert_same(got, ints([1, 1, 1, -1, 0]))
