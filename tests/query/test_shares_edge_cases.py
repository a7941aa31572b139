"""Edge cases of share optimization: fallback rounding and odd budgets."""

import math

import pytest

from repro.errors import QueryError
from repro.query.cq import star_query, triangle_query
from repro.query.shares import optimal_shares


class TestFallbackRounding:
    def test_fallback_path_respects_budget(self):
        # Force the greedy floor-rounding path by disabling enumeration.
        q = star_query(6)  # 7 variables
        sizes = {a.name: 10_000 for a in q.atoms}
        assignment = optimal_shares(q, sizes, p=64, max_enumeration=0)
        assert math.prod(assignment.integral.values()) <= 64
        assert all(s >= 1 for s in assignment.integral.values())

    def test_fallback_close_to_enumerated(self):
        q = star_query(3)
        sizes = {a.name: 10_000 for a in q.atoms}
        enumerated = optimal_shares(q, sizes, p=32)
        fallback = optimal_shares(q, sizes, p=32, max_enumeration=0)
        assert fallback.integral_load <= 4 * enumerated.integral_load


class TestOddBudgets:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 31])
    def test_prime_budgets(self, p):
        q = triangle_query()
        sizes = {a.name: 1000 for a in q.atoms}
        assignment = optimal_shares(q, sizes, p)
        assert math.prod(assignment.integral.values()) <= p

    def test_star_gives_hub_everything(self):
        # Star queries hash on the hub variable only: share(A0) = p.
        q = star_query(3)
        sizes = {a.name: 1000 for a in q.atoms}
        assignment = optimal_shares(q, sizes, p=16)
        assert assignment.integral["A0"] == 16
        assert all(
            assignment.integral[v] == 1 for v in q.variables if v != "A0"
        )


class TestIncompleteSizes:
    def test_sizes_lacking_atoms_is_a_query_error(self):
        with pytest.raises(QueryError, match=r"sizes lack atoms \['S', 'T'\]"):
            optimal_shares(triangle_query(), {"R": 10}, 8)
