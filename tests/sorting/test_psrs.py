"""Tests for PSRS: correctness, load, and round count."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sorting.psrs import psrs_sort


class TestCorrectness:
    def test_sorts_random_data(self):
        rng = np.random.default_rng(0)
        items = rng.integers(0, 10**6, size=2000).tolist()
        out, _stats = psrs_sort(items, p=8)
        assert out == sorted(items)

    def test_sorts_with_duplicates(self):
        items = [3, 1, 3, 2, 2, 3, 1] * 50
        out, _ = psrs_sort(items, p=4)
        assert out == sorted(items)

    def test_sorts_already_sorted(self):
        items = list(range(500))
        out, _ = psrs_sort(items, p=5)
        assert out == items

    def test_sorts_reverse_sorted(self):
        items = list(range(500, 0, -1))
        out, _ = psrs_sort(items, p=5)
        assert out == sorted(items)

    def test_custom_key(self):
        items = [(1, "b"), (0, "z"), (2, "a")] * 10
        out, _ = psrs_sort(items, p=3, key=lambda t: t[1])
        assert [t[1] for t in out] == sorted(t[1] for t in items)

    def test_single_server(self):
        out, stats = psrs_sort([4, 2, 7], p=1)
        assert out == [2, 4, 7]

    def test_empty_input(self):
        out, _ = psrs_sort([], p=4)
        assert out == []

    def test_fewer_items_than_servers(self):
        out, _ = psrs_sort([3, 1], p=8)
        assert out == [1, 3]

    def test_random_sampling_variant(self):
        rng = np.random.default_rng(1)
        items = rng.integers(0, 10**6, size=1500).tolist()
        out, _ = psrs_sort(items, p=6, use_random_sampling=True)
        assert out == sorted(items)

    @given(st.lists(st.integers(-1000, 1000), max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_property_sorts_anything(self, items):
        out, _ = psrs_sort(items, p=4)
        assert out == sorted(items)

    def test_uint64_splitters_meet_small_keys(self):
        # A server holding only small values once compared them with int64
        # splitter codes, and a splitter above int64 max raised OverflowError.
        items = [2**63 + (i * 13) % 50 if i % 3 else (i * 7) % 40 for i in range(150)]
        out, _ = psrs_sort(items, p=3)
        assert out == sorted(items)


class TestCosts:
    def test_three_rounds(self):
        rng = np.random.default_rng(2)
        items = rng.integers(0, 10**6, size=1000).tolist()
        _, stats = psrs_sort(items, p=8)
        assert stats.num_rounds == 3

    def test_partition_load_near_n_over_p(self):
        # Slide 102: L = O(N/p) when p << N^(1/3).
        n, p = 8000, 8  # p^3 = 512 << 8000
        rng = np.random.default_rng(3)
        items = rng.integers(0, 10**9, size=n).tolist()
        _, stats = psrs_sort(items, p=p)
        assert stats.load_of("psrs-partition") < 2.0 * n / p

    def test_sample_gather_load_is_p_squared(self):
        n, p = 5000, 10
        rng = np.random.default_rng(4)
        items = rng.integers(0, 10**9, size=n).tolist()
        _, stats = psrs_sort(items, p=p)
        assert stats.load_of("psrs-sample-gather") == p * (p - 1)

    def test_load_decreases_with_more_servers(self):
        rng = np.random.default_rng(5)
        items = rng.integers(0, 10**9, size=6000).tolist()
        _, s4 = psrs_sort(items, p=4)
        _, s16 = psrs_sort(items, p=16)
        assert s16.load_of("psrs-partition") < s4.load_of("psrs-partition")

    def test_skewed_duplicate_heavy_data_still_bounded(self):
        # Massive duplication stresses splitter ties.
        items = [7] * 3000 + [1, 2, 3] * 200
        out, _stats = psrs_sort(items, p=6)
        assert out == sorted(items)
