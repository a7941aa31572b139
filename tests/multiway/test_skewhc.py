"""Tests for SkewHC (slides 46–51)."""

import pytest

from repro.data.generators import uniform_relation
from repro.data.graphs import count_triangles, power_law_edges, random_edges, triangle_relations
from repro.data.relation import Relation
from repro.multiway.hypercube import triangle_hypercube
from repro.multiway.skewhc import find_heavy_values, skewhc_join
from repro.query.cq import triangle_query, two_way_join


class TestFindHeavyValues:
    def test_detects_hub(self):
        edges = [(i, 0) for i in range(20)] + [(5, i) for i in range(3, 9)]
        e = Relation("E", ["u", "v"], sorted(set(edges)))
        r, s, t = triangle_relations(e)
        q = triangle_query()
        heavy = find_heavy_values(q, {"R": r, "S": s, "T": t}, threshold=10)
        # Vertex 0 has in-degree 20: heavy on y (R's target) and z (S's target).
        assert 0 in heavy["y"]
        assert 0 in heavy["z"]

    def test_no_heavy_on_uniform(self):
        edges = random_edges(100, 200, seed=1)
        r, s, t = triangle_relations(edges)
        heavy = find_heavy_values(
            triangle_query(), {"R": r, "S": s, "T": t}, threshold=10
        )
        assert all(not v for v in heavy.values())


class TestCorrectness:
    def test_uniform_triangles(self):
        edges = random_edges(200, 30, seed=2)
        r, s, t = triangle_relations(edges)
        run = skewhc_join(triangle_query(), {"R": r, "S": s, "T": t}, p=8)
        assert len(run.output) == count_triangles(edges)

    def test_matches_hypercube_output(self):
        edges = random_edges(150, 25, seed=3)
        r, s, t = triangle_relations(edges)
        hc = triangle_hypercube(r, s, t, p=8)
        shc = skewhc_join(triangle_query(), {"R": r, "S": s, "T": t}, p=8)
        assert sorted(shc.output.rows()) == sorted(hc.output.rows())

    def test_skewed_graph(self):
        edges = power_law_edges(300, 80, s=1.5, seed=4)
        r, s, t = triangle_relations(edges)
        run = skewhc_join(triangle_query(), {"R": r, "S": s, "T": t}, p=8)
        assert len(run.output) == count_triangles(edges)

    def test_hub_graph_with_triangles(self):
        hub = [(i, 0) for i in range(1, 60)]
        closing = [(0, i) for i in range(1, 60, 4)] + [
            (i, i + 1) for i in range(1, 50, 4)
        ]
        e = Relation("E", ["u", "v"], sorted(set(hub + closing)))
        r, s, t = triangle_relations(e)
        run = skewhc_join(triangle_query(), {"R": r, "S": s, "T": t}, p=8)
        assert len(run.output) == count_triangles(e)

    def test_two_way_join_with_skew(self):
        q = two_way_join()
        rows_r = [(i, 0) for i in range(40)] + [(100 + i, i) for i in range(1, 20)]
        rows_s = [(0, i) for i in range(40)] + [(i, 200 + i) for i in range(1, 20)]
        r = Relation("R", ["x", "y"], rows_r)
        s = Relation("S", ["y", "z"], rows_s)
        run = skewhc_join(q, {"R": r, "S": s}, p=8)
        assert sorted(run.output.rows()) == sorted(
            q.evaluate({"R": r, "S": s}).rows()
        )

    def test_bag_multiplicities_with_duplicates(self):
        q = two_way_join()
        r = Relation("R", ["x", "y"], [(1, 0), (1, 0), (2, 5)])
        s = Relation("S", ["y", "z"], [(0, 9), (0, 9), (5, 7)])
        run = skewhc_join(q, {"R": r, "S": s}, p=4, threshold=2)
        assert sorted(run.output.rows()) == sorted(
            q.evaluate({"R": r, "S": s}).rows()
        )

    def test_empty_inputs(self):
        q = triangle_query()
        empty = {
            "R": Relation("R", ["x", "y"]),
            "S": Relation("S", ["y", "z"]),
            "T": Relation("T", ["z", "x"]),
        }
        run = skewhc_join(q, empty, p=4)
        assert len(run.output) == 0


class TestCosts:
    def test_one_round_in_model(self):
        edges = power_law_edges(300, 80, s=1.4, seed=5)
        r, s, t = triangle_relations(edges)
        run = skewhc_join(triangle_query(), {"R": r, "S": s, "T": t}, p=8)
        assert run.rounds <= 2  # each residual is 1 HyperCube round

    def test_beats_hypercube_under_z_skew(self):
        # The slide-51 regime: ψ* = 2 load IN/p^(1/2) vs HyperCube's
        # degraded behaviour when one z-value dominates.
        n, p = 420, 16
        r = uniform_relation("R", ["x", "y"], n, 40, seed=1)
        s_rows = [(i % 40, 0) for i in range(n - 60)] + [
            (i % 40, 1 + i % 25) for i in range(60)
        ]
        t_rows = [(0, i % 40) for i in range(n - 60)] + [
            (1 + i % 25, i % 40) for i in range(60)
        ]
        s = Relation("S", ["y", "z"], s_rows)
        t = Relation("T", ["z", "x"], t_rows)
        q = triangle_query()
        hc = triangle_hypercube(r, s, t, p=p)
        shc = skewhc_join(q, {"R": r, "S": s, "T": t}, p=p)
        assert sorted(shc.output.rows()) == sorted(hc.output.rows())
        assert shc.load < hc.load

    def test_details_reported(self):
        edges = random_edges(100, 30, seed=6)
        r, s, t = triangle_relations(edges)
        run = skewhc_join(triangle_query(), {"R": r, "S": s, "T": t}, p=4)
        assert "threshold" in run.details
        assert run.details["jobs"] >= 1

    def test_more_residuals_than_servers_take_servers_past_p(self):
        """Every residual gets a pool of at least one server, side by side
        on the query's one cluster: with more residuals than p the round
        lists servers past p - 1, and the run still reports p."""
        edges = power_law_edges(300, 80, s=1.4, seed=5)
        r, s, t = triangle_relations(edges)
        relations = {"R": r, "S": s, "T": t}
        run = skewhc_join(triangle_query(), relations, p=4, threshold=12)
        allocation = run.details["allocation"]
        assert run.details["jobs"] > 4 and set(allocation) == {0, 1}  # 0: every variable bound
        assert len(run.stats.rounds) == 1
        assert len(run.stats.rounds[0].received) == sum(allocation) > 4
        assert run.stats.p == 4
        assert sorted(run.output.rows()) == sorted(triangle_query().evaluate(relations).rows())
