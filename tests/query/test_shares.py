"""Tests for HyperCube share optimization."""

import dataclasses
import math
import pickle

import pytest

from repro.errors import OptimizationError
from repro.query.cq import star_query, triangle_query, two_way_join
from repro.query import lp
from repro.query.fractional import maximal_load_over_packings
from repro.query.shares import ShareAssignment, equal_size_shares, optimal_shares

APPROX = pytest.approx


class TestFractionalShares:
    def test_triangle_equal_sizes_cube(self):
        # Slide 35: p^(1/3) × p^(1/3) × p^(1/3).
        a = equal_size_shares(triangle_query(), n=10**6, p=64)
        assert a.fractional["x"] == APPROX(4.0, rel=1e-4)
        assert a.fractional["y"] == APPROX(4.0, rel=1e-4)
        assert a.fractional["z"] == APPROX(4.0, rel=1e-4)

    def test_triangle_predicted_load(self):
        # Slide 41: L = N / p^(2/3).
        a = equal_size_shares(triangle_query(), n=10**6, p=64)
        assert a.predicted_load == APPROX(10**6 / 16.0, rel=1e-4)

    def test_two_way_join_hashes_on_y_only(self):
        # τ* = 1: all budget goes to the shared variable y.
        a = equal_size_shares(two_way_join(), n=10**6, p=32)
        assert a.fractional["y"] == APPROX(32.0, rel=1e-4)
        assert a.fractional["x"] == APPROX(1.0, rel=1e-3)
        assert a.fractional["z"] == APPROX(1.0, rel=1e-3)

    def test_small_relation_degenerates_share(self):
        # Slide 44: when |R| is small its private variable gets share 1
        # and the plan degenerates to broadcasting R.
        q = triangle_query()
        sizes = {"R": 100, "S": 10**6, "T": 10**6}
        a = optimal_shares(q, sizes, p=64)
        # y is R∩S's variable; z is only in S and T. |R| small makes the
        # x share ~1... the load formula of slide 44 is |S||T| driven.
        load, packing = maximal_load_over_packings(q, sizes, 64)
        assert a.predicted_load == APPROX(load, rel=1e-3)

    def test_predicted_load_matches_packing_formula(self):
        # LP duality (slide 40): share-LP optimum = max over packings.
        q = triangle_query()
        for sizes in (
            {"R": 4096, "S": 4096, "T": 4096},
            {"R": 10**8, "S": 10**4, "T": 10**4},
            {"R": 10**6, "S": 10**5, "T": 10**4},
        ):
            a = optimal_shares(q, sizes, p=512)
            load, _ = maximal_load_over_packings(q, sizes, 512)
            assert a.predicted_load == APPROX(load, rel=1e-3)

    def test_budget_respected(self):
        a = equal_size_shares(star_query(4), n=10**5, p=100)
        total_exponent = sum(a.exponents.values())
        assert total_exponent <= 1.0 + 1e-6


class TestIntegralShares:
    def test_product_at_most_p(self):
        for p in (7, 8, 60, 64, 100):
            a = equal_size_shares(triangle_query(), n=10**6, p=p)
            assert math.prod(a.integral.values()) <= p

    def test_perfect_cube(self):
        a = equal_size_shares(triangle_query(), n=10**6, p=27)
        assert sorted(a.integral.values()) == [3, 3, 3]

    def test_integral_load_close_to_fractional(self):
        a = equal_size_shares(triangle_query(), n=10**6, p=64)
        assert a.integral_load == APPROX(a.predicted_load, rel=1e-6)

    def test_shares_at_least_one(self):
        a = optimal_shares(
            triangle_query(), {"R": 10, "S": 10**6, "T": 10**6}, p=16
        )
        assert all(s >= 1 for s in a.integral.values())

    def test_extents_order(self):
        q = triangle_query()
        a = equal_size_shares(q, n=1000, p=8)
        assert a.extents(q.variables) == tuple(a.integral[v] for v in ("x", "y", "z"))

    def test_p_one_all_shares_one(self):
        a = equal_size_shares(triangle_query(), n=100, p=1)
        assert all(s == 1 for s in a.integral.values())

    def test_two_way_join_gets_the_whole_grid_on_y(self):
        # The LP's y is 5.33, and y = 7 (load 42 857) is the best grid within
        # ±1 of it; the best grid with Π ≤ 8 is y = 8.
        a = optimal_shares(two_way_join(), {"R": 3 * 10**5, "S": 2 * 10**5}, p=8)
        assert a.integral == {"x": 1, "y": 8, "z": 1}
        assert a.integral_load == 37_500

    def test_skewed_triangle_gets_the_best_grid(self):
        # The LP's shares are (1.2, 6.67, 1), and (1, 8, 1) at load 900 is the
        # best grid within ±1 of them; the best grid with Π ≤ 8 is (2, 4, 1).
        a = optimal_shares(triangle_query(), {"R": 6000, "S": 2000, "T": 900}, p=8)
        assert a.integral == {"x": 2, "y": 4, "z": 1}
        assert a.integral_load == 750

    def test_invalid_p(self):
        with pytest.raises(OptimizationError):
            equal_size_shares(triangle_query(), n=10, p=0)


class TestTheLPIsSolvedOnRead:
    """The grid needs no LP; the fractional fields are solved when read and
    then behave as the eager dataclass's fields."""

    QUERY, SIZES = triangle_query(), {"R": 6000, "S": 2000, "T": 900}

    def test_no_program_is_looked_up_until_a_fractional_field_is_read(self):
        lp.clear()
        hits, misses = lp.counters()[:2]
        assignment = optimal_shares(self.QUERY, self.SIZES, p=8)
        assert assignment.integral_load == 750
        assert lp.counters()[:2] == (hits, misses)
        assert assignment.fractional["y"] == APPROX(6.6667, rel=1e-4)
        assert lp.counters()[:2] == (hits, misses + 1)
        assert assignment.exponents is assignment.exponents
        assert assignment.predicted_load == APPROX(750.0)
        assert lp.counters()[:2] == (hits, misses + 1)

    def test_eq_hash_and_repr_are_the_eager_dataclasss(self):
        lazy = optimal_shares(self.QUERY, self.SIZES, p=8)
        read = optimal_shares(self.QUERY, self.SIZES, p=8)
        eager = ShareAssignment(read.exponents, read.fractional, read.integral,
                                read.predicted_load, read.integral_load)
        assert repr(optimal_shares(self.QUERY, self.SIZES, p=8)) == repr(eager)
        assert eager == lazy and lazy == eager
        assert pickle.loads(pickle.dumps(optimal_shares(self.QUERY, self.SIZES, p=8))) == eager
        assert dataclasses.asdict(optimal_shares(self.QUERY, self.SIZES, p=8)) == dataclasses.asdict(eager)
        for assignment in (eager, optimal_shares(self.QUERY, self.SIZES, p=8)):
            with pytest.raises(TypeError, match="unhashable"):
                hash(assignment)
            with pytest.raises(dataclasses.FrozenInstanceError):
                assignment.integral = {}
        assert not hasattr(lazy, "absent")
