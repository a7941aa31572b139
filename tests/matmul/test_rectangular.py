"""Tests for non-square matrix multiplication (slide 127)."""

import numpy as np
import pytest

from repro.matmul.one_round import rectangle_block_matmul
from repro.matmul.rectangular import (
    balanced_groups,
    rectangular_block_matmul,
    rectangular_costs,
)


class TestCorrectness:
    @pytest.mark.parametrize(
        "shape_a,shape_b,k1,k3",
        [
            ((8, 12), (12, 16), 2, 4),
            ((16, 4), (4, 8), 4, 2),
            ((5, 7), (7, 9), 2, 3),  # non-dividing groups
            ((6, 6), (6, 6), 3, 3),  # square special case
            ((1, 10), (10, 1), 1, 1),
        ],
    )
    def test_matches_numpy(self, shape_a, shape_b, k1, k3):
        rng = np.random.default_rng(0)
        a = rng.random(shape_a)
        b = rng.random(shape_b)
        c, _ = rectangular_block_matmul(a, b, row_groups=k1, col_groups=k3)
        assert np.allclose(c, a @ b)

    @pytest.mark.parametrize("n,k", [(8, 2), (12, 3), (10, 3), (7, 7), (9, 1)])
    def test_square_entry_point_is_the_k_by_k_case(self, n, k):
        rng = np.random.default_rng(n * 100 + k)
        a, b = rng.random((n, n)), rng.random((n, n))
        c, stats = rectangle_block_matmul(a, b, k, seed=2)
        c_rect, stats_rect = rectangular_block_matmul(a, b, k, k, seed=2)
        assert c.tobytes() == c_rect.tobytes()
        assert stats.p == stats_rect.p == k * k
        assert [rd.received for rd in stats.rounds] == [
            rd.received for rd in stats_rect.rounds
        ]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rectangular_block_matmul(np.zeros((3, 4)), np.zeros((5, 6)), 1, 1)

    def test_invalid_groups(self):
        a, b = np.zeros((4, 4)), np.zeros((4, 4))
        with pytest.raises(ValueError):
            rectangular_block_matmul(a, b, row_groups=0, col_groups=1)
        with pytest.raises(ValueError):
            rectangular_block_matmul(a, b, row_groups=1, col_groups=9)


class TestCosts:
    def test_single_round(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((8, 6)), rng.random((6, 12))
        _, stats = rectangular_block_matmul(a, b, 2, 3)
        assert stats.num_rounds == 1

    def test_load_matches_formula(self):
        rng = np.random.default_rng(2)
        n1, n2, n3 = 12, 10, 8
        a, b = rng.random((n1, n2)), rng.random((n2, n3))
        k1, k3 = 3, 2
        _, stats = rectangular_block_matmul(a, b, k1, k3)
        predicted = rectangular_costs(n1, n2, n3, k1, k3)
        assert stats.max_load == predicted["load"]
        assert stats.total_communication == predicted["communication"]

    def test_reduces_to_square_costs(self):
        # n1 = n2 = n3 = n, t1 = t3 = t: L = 2tn like the square algorithm.
        costs = rectangular_costs(24, 24, 24, 4, 4)
        assert costs["load"] == 2 * 6 * 24


class TestBalancedGroups:
    def test_square_case_balanced(self):
        k1, k3 = balanced_groups(100, 100, 16)
        assert k1 == k3 == 4

    def test_lopsided_outputs(self):
        # Tall-skinny output: all budget goes to splitting the long side.
        k1, k3 = balanced_groups(1000, 10, 16)
        assert k1 > k3

    def test_respects_budget(self):
        for p in (3, 7, 12):
            k1, k3 = balanced_groups(50, 50, p)
            assert k1 * k3 <= p
