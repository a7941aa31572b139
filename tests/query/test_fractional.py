"""Tests for the hypergraph LPs — the tutorial's worked τ*, ρ*, ψ* values."""

import math

import pytest

from repro.errors import QueryError
from repro.query.agm import agm_bound
from repro.query.cq import (
    Atom,
    ConjunctiveQuery,
    cycle_query,
    path_query,
    spider_query,
    star_query,
    triangle_query,
    two_path_query,
)
from repro.query.fractional import (
    fractional_edge_cover,
    fractional_edge_packing,
    fractional_vertex_cover,
    maximal_load_over_packings,
    psi_star,
    rho_star,
    skew_free_load,
    skewed_load,
    tau_star,
    verify_cover,
    verify_packing,
)

APPROX = pytest.approx


class TestTauStar:
    def test_triangle_is_3_2(self):
        # Slide 41: τ*(Δ) = 3/2 via the all-halves packing.
        assert tau_star(triangle_query()) == APPROX(1.5)

    def test_two_way_join_is_1(self):
        # Slide 41: R(x,y) ⋈ S(y,z) has τ* = 1.
        q = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "z"])])
        assert tau_star(q) == APPROX(1.0)

    def test_two_path_is_2(self):
        # Slide 53: R(x), S(x,y), T(y) has τ* = 2 (pack R and T).
        assert tau_star(two_path_query()) == APPROX(2.0)

    def test_star_is_1(self):
        # All star atoms share A0, so packings sum to ≤ 1... except only
        # via A0: τ*(star-n) = 1.
        assert tau_star(star_query(4)) == APPROX(1.0)

    def test_path_alternation(self):
        # Path-n packs every other atom: τ* = ceil(n/2).
        assert tau_star(path_query(4)) == APPROX(2.0)
        assert tau_star(path_query(5)) == APPROX(3.0)

    def test_spider_is_3(self):
        # S1, S2, S3 are a matching of size 3, and no packing does better.
        assert tau_star(spider_query()) == APPROX(3.0)

    def test_long_cycle(self):
        # Even cycle: perfect matching of n/2 atoms -> τ* = n/2.
        assert tau_star(cycle_query(4)) == APPROX(2.0)
        # Odd cycle: all-halves -> n/2.
        assert tau_star(cycle_query(5)) == APPROX(2.5)

    def test_chain20_is_10(self):
        # Slide 62: R1..R20 path has τ* = 10.
        assert tau_star(path_query(20)) == APPROX(10.0)

    def test_duality_with_vertex_cover(self):
        for q in (triangle_query(), path_query(4), star_query(3), spider_query()):
            assert tau_star(q) == APPROX(fractional_vertex_cover(q).value)


class TestRhoStar:
    def test_two_path_is_1(self):
        # Slide 55: ρ* = 1 (cover S alone).
        assert rho_star(two_path_query()) == APPROX(1.0)

    def test_triangle_is_3_2(self):
        assert rho_star(triangle_query()) == APPROX(1.5)

    def test_star_is_n_minus_covered(self):
        # Star-n: A1..An each need their own atom -> ρ* = n... R1 covers
        # A0,A1; others cover A0,Ai. Must cover A1..An individually: ρ* = n.
        assert rho_star(star_query(3)) == APPROX(3.0)

    def test_spider_is_2(self):
        # Slide 61: ρ* = 2 (cover R1 and R2, which span all six variables).
        assert rho_star(spider_query()) == APPROX(2.0)


class TestPsiStar:
    def test_triangle_is_2(self):
        # Slide 51: ψ*(Δ) = 2 (residual with z heavy gives τ* = 2).
        assert psi_star(triangle_query()) == APPROX(2.0)

    def test_two_way_join_is_2(self):
        # Slide 51 second row: ψ* = 2 for R(x,y) ⋈ S(y,z) (y heavy ->
        # R(x) ⋈ S(z) packs both atoms).
        q = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "z"])])
        assert psi_star(q) == APPROX(2.0)

    def test_two_path_is_2(self):
        # Slide 53: ψ* = 2 = τ* for R(x), S(x,y), T(y).
        assert psi_star(two_path_query()) == APPROX(2.0)

    def test_spider_is_3(self):
        # Slide 61: ψ* = 3.
        assert psi_star(spider_query()) == APPROX(3.0)

    def test_psi_at_least_tau(self):
        for q in (triangle_query(), path_query(3), star_query(3)):
            assert psi_star(q) >= tau_star(q) - 1e-9


class TestFeasibility:
    def test_packing_output_feasible(self):
        q = triangle_query()
        assert verify_packing(q, fractional_edge_packing(q).weights)

    def test_cover_output_feasible(self):
        q = triangle_query()
        assert verify_cover(q, fractional_edge_cover(q).weights)

    def test_verify_packing_rejects_overweight(self):
        q = triangle_query()
        assert not verify_packing(q, {"R": 1.0, "S": 1.0, "T": 1.0})

    def test_verify_cover_rejects_undercover(self):
        q = triangle_query()
        assert not verify_cover(q, {"R": 0.2, "S": 0.2, "T": 0.2})


class TestLoads:
    def test_skew_free_triangle_load(self):
        # Slide 41: L = N / p^(2/3).
        assert skew_free_load(triangle_query(), 1000, 8) == APPROX(1000 / 4.0)

    def test_skewed_triangle_load(self):
        # Slide 51: L = N / p^(1/2).
        assert skewed_load(triangle_query(), 1000, 16) == APPROX(250.0)

    def test_unequal_sizes_table_slide_42(self):
        """The slide 42-44 table: L = max over packings of four candidates."""
        q = triangle_query()
        p = 64
        # Balanced sizes -> geometric-mean row wins.
        sizes = {"R": 4096, "S": 4096, "T": 4096}
        load, packing = maximal_load_over_packings(q, sizes, p)
        assert load == APPROX((4096**3) ** (1 / 3) / p ** (2 / 3))
        assert packing == {"R": APPROX(0.5), "S": APPROX(0.5), "T": APPROX(0.5)}

    def test_unequal_sizes_one_huge_relation(self):
        # |R| >> |S|,|T|: the (1,0,0) packing dominates, L = |R|/p.
        q = triangle_query()
        p = 64
        sizes = {"R": 10**9, "S": 100, "T": 100}
        load, packing = maximal_load_over_packings(q, sizes, p)
        assert load == APPROX(10**9 / p)
        assert packing["R"] == APPROX(1.0)
        assert packing["S"] == APPROX(0.0, abs=1e-9)

    def test_load_formula_monotone_in_p(self):
        q = triangle_query()
        sizes = {"R": 10**6, "S": 10**6, "T": 10**6}
        l8, _ = maximal_load_over_packings(q, sizes, 8)
        l64, _ = maximal_load_over_packings(q, sizes, 64)
        assert l64 < l8


class TestWeightedLPs:
    def test_weighted_cover_is_log_agm(self):
        q = two_path_query()
        sizes = {"R": 10, "S": 1000, "T": 10}
        objective = {n: math.log(s) for n, s in sizes.items()}
        cover = fractional_edge_cover(q, objective)
        # Covering R and T alone (weight 1 each) costs log10 + log10 < log1000.
        assert math.exp(cover.value) == APPROX(100.0)


class TestIncompleteMappings:
    """A per-atom mapping that lacks an atom is a QueryError, never a KeyError."""

    def test_objective_lacking_atoms_names_them(self):
        q = triangle_query()
        for lp_of in (fractional_edge_packing, fractional_edge_cover):
            with pytest.raises(QueryError, match=r"objective lack atoms \['S', 'T'\]"):
                lp_of(q, {"R": 1.0})

    def test_sizes_lacking_atoms_names_them(self):
        q = triangle_query()
        with pytest.raises(QueryError, match=r"sizes lack atoms \['S', 'T'\]"):
            agm_bound(q, {"R": 10})
        with pytest.raises(QueryError, match=r"sizes lack atoms \['T'\]"):
            maximal_load_over_packings(q, {"R": 10, "S": 10}, 8)
