"""Tests for the HyperCube algorithm (slides 34–44)."""

import pytest

from repro.data.generators import matching_relation, uniform_relation
from repro.data.graphs import (
    count_triangles,
    planted_triangles,
    random_edges,
    triangle_relations,
)
from repro.data.relation import Relation
from repro.errors import QueryError
from repro.multiway.hypercube import hypercube_join, triangle_hypercube
from repro.query.cq import (
    Atom,
    ConjunctiveQuery,
    path_query,
    star_query,
    triangle_query,
)


class TestTriangleCorrectness:
    def test_planted_triangles(self):
        edges, expected = planted_triangles(6, 80, 160, seed=0)
        r, s, t = triangle_relations(edges)
        run = triangle_hypercube(r, s, t, p=8)
        assert len(run.output) == expected

    def test_matches_sequential_evaluation(self):
        edges = random_edges(250, 30, seed=1)
        r, s, t = triangle_relations(edges)
        run = triangle_hypercube(r, s, t, p=27)
        assert len(run.output) == count_triangles(edges)
        expected = triangle_query().evaluate({"R": r, "S": s, "T": t})
        assert sorted(run.output.rows()) == sorted(expected.rows())

    def test_no_duplicates_across_servers(self):
        # Every output tuple is produced at exactly one grid server.
        edges = random_edges(150, 20, seed=2)
        r, s, t = triangle_relations(edges)
        run = triangle_hypercube(r, s, t, p=8)
        assert len(run.output) == len(set(run.output.rows()))
        assert len(run.output) == count_triangles(edges)

    def test_single_round(self):
        edges = random_edges(100, 25, seed=3)
        r, s, t = triangle_relations(edges)
        run = triangle_hypercube(r, s, t, p=8)
        assert run.rounds == 1

    def test_p_one(self):
        edges = random_edges(60, 15, seed=4)
        r, s, t = triangle_relations(edges)
        run = triangle_hypercube(r, s, t, p=1)
        assert len(run.output) == count_triangles(edges)


class TestOtherQueries:
    def test_two_way_join_via_hypercube(self):
        q = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "z"])])
        r = uniform_relation("R", ["x", "y"], 200, 30, seed=1)
        s = uniform_relation("S", ["y", "z"], 200, 30, seed=2)
        run = hypercube_join(q, {"R": r, "S": s}, p=9)
        assert sorted(run.output.rows()) == sorted(
            q.evaluate({"R": r, "S": s}).rows()
        )

    def test_star_query(self):
        q = star_query(3)
        rels = {
            f"R{i}": uniform_relation(f"R{i}", ["A0", f"A{i}"], 100, 15, seed=i)
            for i in (1, 2, 3)
        }
        run = hypercube_join(q, rels, p=8)
        assert sorted(run.output.rows()) == sorted(q.evaluate(rels).rows())

    def test_path_query(self):
        q = path_query(3)
        rels = {
            f"R{i}": uniform_relation(f"R{i}", [f"A{i-1}", f"A{i}"], 150, 20, seed=i)
            for i in (1, 2, 3)
        }
        run = hypercube_join(q, rels, p=16)
        assert sorted(run.output.rows()) == sorted(q.evaluate(rels).rows())

    def test_attribute_order_mismatch_handled(self):
        q = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "z"])])
        r = Relation("R", ["y", "x"], [(2, 1)])
        s = Relation("S", ["y", "z"], [(2, 3)])
        run = hypercube_join(q, {"R": r, "S": s}, p=4)
        assert run.output.rows() == [(1, 2, 3)]

    def test_wrong_attributes_rejected(self):
        q = triangle_query()
        bad = {"R": Relation("R", ["a", "b"]), "S": Relation("S", ["y", "z"]),
               "T": Relation("T", ["z", "x"])}
        with pytest.raises(QueryError):
            hypercube_join(q, bad, p=4)

    def test_missing_relation_rejected(self):
        with pytest.raises(QueryError):
            hypercube_join(triangle_query(), {}, p=4)


class TestShapesAndLoads:
    def test_cube_shares_for_triangle(self):
        edges = random_edges(300, 40, seed=5)
        r, s, t = triangle_relations(edges)
        run = triangle_hypercube(r, s, t, p=27)
        assert run.details["shares"] == {"x": 3, "y": 3, "z": 3}

    def test_load_scales_as_p_to_two_thirds(self):
        # Slide 36: L = O(N / p^(2/3)) on skew-free input.
        n = 2000
        edges = random_edges(n, 500, seed=6)
        r, s, t = triangle_relations(edges)
        l1 = triangle_hypercube(r, s, t, p=1).load
        l8 = triangle_hypercube(r, s, t, p=8).load
        l64 = triangle_hypercube(r, s, t, p=64).load
        # p=8 -> /4, p=64 -> /16 relative to one server (3N load there).
        assert l8 < l1 / 2.5
        assert l64 < l8 / 2.5

    def test_replication_factor(self):
        # Each tuple of a binary atom in a cube grid is replicated to
        # p^(1/3) servers: total communication = 3 * N * p^(1/3).
        n = 500
        edges = random_edges(n, 100, seed=7)
        r, s, t = triangle_relations(edges)
        run = triangle_hypercube(r, s, t, p=27)
        assert run.stats.total_communication == 3 * n * 3

    def test_explicit_shares_override(self):
        edges = random_edges(100, 30, seed=8)
        r, s, t = triangle_relations(edges)
        run = hypercube_join(
            triangle_query(),
            {"R": r, "S": s, "T": t},
            p=8,
            shares={"x": 2, "y": 2, "z": 2},
        )
        assert run.details["shares"] == {"x": 2, "y": 2, "z": 2}
        assert len(run.output) == count_triangles(edges)

    def test_oversized_shares_rejected(self):
        edges = random_edges(50, 20, seed=9)
        r, s, t = triangle_relations(edges)
        with pytest.raises(QueryError):
            hypercube_join(
                triangle_query(),
                {"R": r, "S": s, "T": t},
                p=4,
                shares={"x": 2, "y": 2, "z": 2},
            )

    def test_shares_missing_a_variable_or_not_integers_rejected(self):
        edges = random_edges(50, 20, seed=9)
        r, s, t = triangle_relations(edges)
        rels = {"R": r, "S": s, "T": t}
        with pytest.raises(QueryError, match="give no share to z"):
            hypercube_join(triangle_query(), rels, p=8, shares={"x": 2, "y": 2})
        for share in (2.0, 1.5, "2", True):
            with pytest.raises(QueryError, match="must be integers"):
                hypercube_join(triangle_query(), rels, p=8, shares={"x": 2, "y": 2, "z": share})
        for share in (0, -1):
            with pytest.raises(QueryError, match="must be positive: z"):
                hypercube_join(triangle_query(), rels, p=8, shares={"x": 2, "y": 2, "z": share})
        with pytest.raises(QueryError, match="name w, not a variable"):
            hypercube_join(triangle_query(), rels, p=8, shares={"x": 2, "y": 2, "z": 1, "w": 3})

    def test_skew_free_matching_data_balanced(self):
        # Matching-degree relations: the load should sit near its mean.
        q = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "z"])])
        r = matching_relation("R", ["x", "y"], 1024)
        s = matching_relation("S", ["y", "z"], 1024)
        run = hypercube_join(q, {"R": r, "S": s}, p=16)
        round_stats = run.stats.rounds[0]
        assert round_stats.imbalance < 1.6

