"""Property tests on the hypergraph LPs over random queries.

Invariants from LP theory the implementation must satisfy on *any*
query, not just the tutorial's examples:

- strong duality: τ* (edge packing) = fractional vertex cover optimum;
- ρ* ≥ τ*'s dual relationships: for any query, τ* ≤ ρ* when every
  vertex is covered... (not in general!) — instead we check the safe
  ones: packings are feasible, covers are feasible, ψ* ≥ τ*, and the
  AGM bound respects monotonicity in relation sizes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.errors import OptimizationError
from repro.query import lp
from repro.query.agm import agm_bound
from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.fractional import (
    fractional_edge_cover,
    fractional_edge_packing,
    fractional_vertex_cover,
    psi_star,
    tau_star,
    verify_cover,
    verify_packing,
)
from repro.query.shares import optimal_shares


@st.composite
def random_queries(draw):
    """Random connected-ish CQs: 2–5 atoms over ≤ 5 variables."""
    n_vars = draw(st.integers(2, 5))
    variables = [f"v{i}" for i in range(n_vars)]
    n_atoms = draw(st.integers(2, 5))
    atoms = []
    for i in range(n_atoms):
        arity = draw(st.integers(1, min(3, n_vars)))
        vs = draw(
            st.lists(
                st.sampled_from(variables),
                min_size=arity,
                max_size=arity,
                unique=True,
            )
        )
        atoms.append(Atom(f"S{i}", vs))
    return ConjunctiveQuery(atoms)


class TestLPProperties:
    @given(random_queries())
    @settings(max_examples=40, deadline=None)
    def test_packing_cover_feasible(self, query):
        packing = fractional_edge_packing(query)
        cover = fractional_edge_cover(query)
        assert verify_packing(query, packing.weights)
        assert verify_cover(query, cover.weights)

    @given(random_queries())
    @settings(max_examples=40, deadline=None)
    def test_strong_duality_tau_equals_vertex_cover(self, query):
        assert fractional_vertex_cover(query).value == pytest.approx(
            tau_star(query), abs=1e-6
        )

    @given(random_queries())
    @settings(max_examples=15, deadline=None)
    def test_psi_at_least_tau(self, query):
        assert psi_star(query) >= tau_star(query) - 1e-6

    @given(random_queries())
    @settings(max_examples=25, deadline=None)
    def test_tau_bounded_by_atom_count(self, query):
        tau = tau_star(query)
        assert 0 <= tau <= len(query.atoms) + 1e-9


class TestAgmProperties:
    @given(random_queries(), st.integers(1, 1000), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_agm_monotone_in_sizes(self, query, base, factor):
        small = {a.name: base for a in query.atoms}
        big = {a.name: base * factor for a in query.atoms}
        assert agm_bound(query, small) <= agm_bound(query, big) + 1e-6

    @given(random_queries(), st.integers(1, 100))
    @settings(max_examples=30, deadline=None)
    def test_agm_at_most_product_of_sizes(self, query, n):
        sizes = {a.name: n for a in query.atoms}
        assert agm_bound(query, sizes) <= float(n) ** len(query.atoms) * (1 + 1e-9)


class TestShareProperties:
    @given(random_queries(), st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_shares_respect_budget(self, query, p):
        import math

        sizes = {a.name: 100 for a in query.atoms}
        assignment = optimal_shares(query, sizes, p)
        assert math.prod(assignment.integral.values()) <= p
        assert all(s >= 1 for s in assignment.integral.values())
        assert sum(assignment.exponents.values()) <= 1.0 + 1e-6

    @given(random_queries())
    @settings(max_examples=20, deadline=None)
    def test_predicted_load_decreases_with_p(self, query):
        sizes = {a.name: 10_000 for a in query.atoms}
        l4 = optimal_shares(query, sizes, 4).predicted_load
        l64 = optimal_shares(query, sizes, 64).predicted_load
        assert l64 <= l4 + 1e-6


def _programs_of(call):
    """Every ``(c, a_ub, b_ub, bounds)`` that ``call()`` hands to ``lp.solve``."""
    programs = []
    real = lp.solve

    def recording(*program):
        programs.append(program)
        return real(*program)

    with mock.patch.object(lp, "solve", recording):
        call()
    return programs


def _direct(c, a_ub, b_ub, bounds):
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert result.success
    return float(result.fun), tuple(float(v) for v in result.x)


class TestLPMemoIsInvisible:
    """A hit of ``lp.solve`` ≡ a fresh solve ≡ a direct ``linprog`` call."""

    @given(random_queries(), st.lists(st.integers(1, 5000), min_size=5, max_size=5),
           st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_hit_equals_fresh_equals_direct(self, query, size_list, p):
        sizes = {a.name: n for a, n in zip(query.atoms, size_list)}
        # The share LP is solved when a fractional field is read.
        programs = _programs_of(
            lambda: (tau_star(query), optimal_shares(query, sizes, p).exponents)
        )
        assert len(programs) == 2
        for program in programs:
            lp.clear()
            before = lp.counters()
            fresh = lp.solve(*program)
            hit = lp.solve(*program)
            after = lp.counters()
            assert (after[0] - before[0], after[1] - before[1]) == (1, 1)
            assert after[4] == 1
            assert fresh == hit == _direct(*program)

    @given(random_queries(), st.integers(2, 64))
    @settings(max_examples=20, deadline=None)
    def test_mutating_a_result_cannot_poison_the_next(self, query, p):
        sizes = {a.name: 100 for a in query.atoms}
        packing = fractional_edge_packing(query)
        shares = optimal_shares(query, sizes, p)
        expected_weights = dict(packing.weights)
        expected_exponents = dict(shares.exponents)
        for name in packing.weights:
            packing.weights[name] = -7.0
        for variable in shares.exponents:
            shares.exponents[variable] = 99.0
        assert fractional_edge_packing(query).weights == expected_weights
        assert optimal_shares(query, sizes, p).exponents == expected_exponents

    @pytest.mark.parametrize("program", [
        # x ≤ -1 with x ≥ 0: infeasible.
        ([1.0], [[1.0]], [-1.0], [(0, None)]),
        # maximize x with no upper limit: unbounded.
        ([-1.0], [[-1.0]], [0.0], [(0, None)]),
    ], ids=["infeasible", "unbounded"])
    def test_failed_solve_raises_every_time_and_is_never_stored(self, program):
        lp.clear()
        misses = lp.counters()[1]
        for _ in range(2):
            with pytest.raises(OptimizationError):
                lp.solve(*program)
        assert lp.counters()[1] == misses + 2
        assert lp.counters()[4] == 0

    def test_input_layout_does_not_change_the_key(self):
        lp.clear()
        a = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        first = lp.solve([-1, -1], a, [1, 1, 1], [(0, None)] * 2)
        hits = lp.counters()[0]
        # Fortran order, float32 rows and a list right-hand side are the same LP.
        again = lp.solve(np.array([-1.0, -1.0], dtype=np.float32),
                         np.asfortranarray(a), (1.0, 1.0, 1.0), [(0.0, None)] * 2)
        assert again == first and lp.counters()[0] == hits + 1
