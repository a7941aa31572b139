"""Tests for the multiway planner."""

import pytest

from repro.data.generators import uniform_relation
from repro.data.graphs import power_law_edges, random_edges, triangle_relations
from repro.data.relation import Relation
from repro.multiway import hypercube_join, skewhc_join
from repro.planner.multiway import execute_multiway_join, plan_multiway_join
from repro.query.cq import path_query, star_query, triangle_query


def triangle_rels(edges):
    r, s, t = triangle_relations(edges)
    return {"R": r, "S": s, "T": t}


class TestPlanChoice:
    def test_cyclic_uniform_picks_hypercube(self):
        rels = triangle_rels(random_edges(300, 60, seed=1))
        plan = plan_multiway_join(triangle_query(), rels, p=8)
        assert plan.algorithm == "hypercube"
        assert not plan.acyclic

    def test_cyclic_skewed_picks_skewhc(self):
        rels = triangle_rels(power_law_edges(400, 80, s=1.6, seed=2))
        plan = plan_multiway_join(triangle_query(), rels, p=8)
        # Both one-round plans are priced by what they do on this instance:
        # HyperCube's heavy slices cost less than SkewHC's residual pools.
        assert plan.algorithm == "hypercube"
        assert plan.skewed
        hypercube = hypercube_join(triangle_query(), rels, p=8)
        skewhc = skewhc_join(triangle_query(), rels, p=8)
        assert hypercube.load < skewhc.load

    def test_acyclic_small_out_picks_gym(self):
        q = path_query(3)
        rels = {
            f"R{i}": uniform_relation(f"R{i}", [f"A{i-1}", f"A{i}"], 200, 300, seed=i)
            for i in range(1, 4)
        }
        plan = plan_multiway_join(q, rels, p=16)
        assert plan.algorithm == "gym"
        assert plan.acyclic

    def test_acyclic_huge_out_picks_one_round(self):
        q = path_query(3)
        rels = {
            f"R{i}": uniform_relation(f"R{i}", [f"A{i-1}", f"A{i}"], 200, 300, seed=i)
            for i in range(1, 4)
        }
        # Inject a fake huge output estimate to flip the crossover.
        plan = plan_multiway_join(q, rels, p=16, out_estimate=10**9)
        assert plan.algorithm == "hypercube"

    def test_describe(self):
        rels = triangle_rels(random_edges(100, 30, seed=3))
        plan = plan_multiway_join(triangle_query(), rels, p=4)
        assert plan.algorithm in plan.describe()


class TestExecution:
    def test_each_branch_correct(self):
        q = triangle_query()
        cases = [
            triangle_rels(random_edges(200, 40, seed=4)),
            triangle_rels(power_law_edges(300, 70, s=1.5, seed=5)),
        ]
        for rels in cases:
            plan, run = execute_multiway_join(q, rels, p=8)
            expected = q.evaluate(rels)
            assert sorted(run.output.rows()) == sorted(expected.rows())

    def test_gym_branch_correct(self):
        # Path-3 has τ* = 2, so the one-round load is IN/√p and GYM's
        # (IN+OUT)/p wins for small outputs.
        q = path_query(3)
        rels = {
            f"R{i}": uniform_relation(f"R{i}", [f"A{i-1}", f"A{i}"], 150, 200, seed=i)
            for i in range(1, 4)
        }
        plan, run = execute_multiway_join(q, rels, p=8)
        assert plan.algorithm == "gym"
        expected = q.evaluate(rels)
        assert sorted(run.output.rows()) == sorted(expected.rows())

    def test_star_prefers_one_round(self):
        # Star queries have τ* = 1: HyperCube degenerates to the plain
        # hash join with L = IN/p, which no multi-round plan beats.
        q = star_query(3)
        rels = {
            f"R{i}": uniform_relation(f"R{i}", ["A0", f"A{i}"], 150, 200, seed=i)
            for i in range(1, 4)
        }
        plan, run = execute_multiway_join(q, rels, p=8)
        assert plan.algorithm == "hypercube"
        assert plan.tau_star == pytest.approx(1.0)
        expected = q.evaluate(rels)
        assert sorted(run.output.rows()) == sorted(expected.rows())

    def test_planner_beats_or_matches_wrong_choice(self):
        from repro.multiway import hypercube_join

        q = path_query(3)
        rels = {
            f"R{i}": uniform_relation(f"R{i}", [f"A{i-1}", f"A{i}"], 300, 500, seed=i)
            for i in range(1, 4)
        }
        plan, run = execute_multiway_join(q, rels, p=16)
        other = hypercube_join(q, rels, p=16)
        assert run.load <= other.load
