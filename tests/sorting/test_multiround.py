"""Tests for the multi-round (Goodrich-style) sample sort."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sorting.multiround import expected_rounds, multiround_sort


class TestCorrectness:
    def test_sorts_random_data(self):
        rng = np.random.default_rng(0)
        items = rng.integers(0, 10**6, size=2000).tolist()
        out, _ = multiround_sort(items, p=16, load_cap=400)
        assert out == sorted(items)

    def test_sorts_with_heavy_duplicates(self):
        items = [5] * 1000 + list(range(500))
        out, _ = multiround_sort(items, p=8, load_cap=300)
        assert out == sorted(items)

    def test_single_server(self):
        out, stats = multiround_sort([3, 1, 2], p=1, load_cap=10)
        assert out == [1, 2, 3]
        assert stats.num_rounds == 0  # nothing to exchange

    def test_empty(self):
        out, _ = multiround_sort([], p=4, load_cap=10)
        assert out == []

    def test_invalid_load_cap(self):
        with pytest.raises(ValueError):
            multiround_sort([1], p=2, load_cap=1)

    @given(st.lists(st.integers(-500, 500), max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_property_sorts_anything(self, items):
        out, _ = multiround_sort(items, p=6, load_cap=64)
        assert out == sorted(items)


class TestDuplicateKeys:
    """Ties break by original position, as in PSRS: duplicated keys spread.

    Without the tie-break every copy of a key fell into one interval, so
    3 000 equal items at p = 16 measured L = 3 000 (all of them on one
    server in ``msort-partition-1``) against 240 for ``psrs_sort``.
    """

    @pytest.mark.parametrize("items", [
        [7] * 3000,
        [7] * 2400 + list(range(1000, 1600)),
    ], ids=["all-equal", "heavy-plus-distinct"])
    def test_load_stays_within_twice_n_over_p(self, items):
        p = 16
        out, stats = multiround_sort(items, p=p, load_cap=64)
        assert out == sorted(items)
        assert stats.max_load <= 2 * len(items) / p


class TestRoundScaling:
    def test_small_cap_needs_more_rounds(self):
        rng = np.random.default_rng(1)
        items = rng.integers(0, 10**9, size=4096).tolist()
        _, tight = multiround_sort(items, p=64, load_cap=80)
        _, loose = multiround_sort(items, p=64, load_cap=4096)
        assert tight.num_rounds > loose.num_rounds

    def test_rounds_track_log_l_n(self):
        # r should grow like log_L(N): quadrupling L roughly halves depth
        # in the regime p = N/L.
        n = 4096
        rng = np.random.default_rng(2)
        items = rng.integers(0, 10**9, size=n).tolist()
        _, s_small = multiround_sort(items, p=256, load_cap=16)
        _, s_big = multiround_sort(items, p=16, load_cap=256)
        assert s_small.num_rounds > s_big.num_rounds

    def test_expected_rounds_formula(self):
        assert expected_rounds(10**6, 10**3) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            expected_rounds(10, 1)
