"""Tests for semijoin primitives and the HL+semijoin plans (slides 57–59)."""

import pytest

from repro.data.generators import single_value_relation, uniform_relation
from repro.data.graphs import count_triangles, power_law_edges, random_edges, triangle_relations
from repro.data.relation import Relation
from repro.errors import QueryError
from repro.multiway.base import shuffle_multi_semijoin, shuffle_semijoin
from repro.multiway.semijoin import triangle_hl_semijoin, two_path_semijoin_plan
from repro.query.cq import triangle_query, two_path_query


class TestShuffleSemijoin:
    def test_basic(self):
        r = Relation("R", ["x", "y"], [(1, 2), (3, 4), (5, 6)])
        s = Relation("S", ["y", "z"], [(2, 0), (6, 0)])
        reduced, stats = shuffle_semijoin(r, s, p=4)
        assert sorted(reduced.rows()) == [(1, 2), (5, 6)]
        assert stats.num_rounds == 1

    def test_reducer_sends_distinct_keys_only(self):
        r = Relation("R", ["x", "y"], [(1, 2)])
        s = Relation("S", ["y", "z"], [(2, i) for i in range(100)])
        _, stats = shuffle_semijoin(r, s, p=2)
        # 1 target tuple + 1 distinct reducer key.
        assert stats.total_communication == 2

    def test_multi_semijoin_intersects(self):
        r = Relation("R", ["x", "y"], [(1, 2), (3, 4), (5, 6)])
        s1 = Relation("S1", ["y", "a"], [(2, 0), (4, 0)])
        s2 = Relation("S2", ["y", "b"], [(4, 0), (6, 0)])
        reduced, stats = shuffle_multi_semijoin(r, [s1, s2], p=4)
        assert reduced.rows() == [(3, 4)]
        assert stats.num_rounds == 1

    def test_mismatched_keys_rejected(self):
        r = Relation("R", ["x", "y"], [(1, 2)])
        s1 = Relation("S1", ["y", "a"], [(2, 0)])
        s2 = Relation("S2", ["x", "b"], [(1, 0)])
        with pytest.raises(QueryError):
            shuffle_multi_semijoin(r, [s1, s2], p=2)

    def test_no_shared_attrs_rejected(self):
        r = Relation("R", ["x"], [(1,)])
        s = Relation("S", ["z"], [(2,)])
        with pytest.raises(QueryError):
            shuffle_semijoin(r, s, p=2)

    def test_empty_reducer_list_rejected(self):
        r = Relation("R", ["x"], [(1,)])
        with pytest.raises(QueryError):
            shuffle_multi_semijoin(r, [], p=2)


class TestTwoPathPlan:
    def test_correctness(self):
        q = two_path_query()
        r = Relation("R", ["x"], [(i,) for i in range(0, 40, 2)])
        s = uniform_relation("S", ["x", "y"], 300, 40, seed=1)
        t = Relation("T", ["y"], [(i,) for i in range(0, 40, 3)])
        run = two_path_semijoin_plan(r, s, t, p=8)
        expected = q.evaluate({"R": r, "S": s, "T": t}).project(["x", "y"])
        assert sorted(run.output.rows()) == sorted(expected.rows())

    def test_bag_multiplicities(self):
        r = Relation("R", ["x"], [(1,), (1,)])
        s = Relation("S", ["x", "y"], [(1, 5)])
        t = Relation("T", ["y"], [(5,), (5,), (5,)])
        run = two_path_semijoin_plan(r, s, t, p=2)
        assert len(run.output) == 6

    def test_two_rounds(self):
        r = Relation("R", ["x"], [(1,)])
        s = Relation("S", ["x", "y"], [(1, 2)])
        t = Relation("T", ["y"], [(2,)])
        run = two_path_semijoin_plan(r, s, t, p=4)
        assert run.rounds == 2

    def test_skewed_load_stays_in_over_p(self):
        # Slide 58: semijoins never blow up, even when the one-round
        # bound is IN/p^(1/2).
        n, p = 800, 16
        r = Relation("R", ["x"], [(0,)] * 1)  # single key
        s = single_value_relation("S", ["x", "y"], n, "x", value=0)
        t = Relation("T", ["y"], [(s.rows()[i][1],) for i in range(0, n, 2)])
        run = two_path_semijoin_plan(r, s, t, p=p)
        in_size = len(r) + len(s) + len(t)
        assert run.load <= 3.0 * in_size / p + 5


class TestTriangleHLSemijoin:
    def test_splits_z_by_column_masks_not_row_predicates(self, monkeypatch):
        # The light rows and each heavy z's rows are found by one grouping
        # of the z columns: no per-row Python predicate runs.
        hub_edges = [(i, 0) for i in range(1, 80)] + [(0, i) for i in range(1, 40, 3)]
        e = Relation("E", ["u", "v"], sorted(set(hub_edges + [(0, 1), (1, 2), (2, 0)])))
        r, s, t = triangle_relations(e)
        expected = triangle_query().evaluate({"R": r, "S": s, "T": t})

        def refused(*args, **kwargs):
            raise AssertionError("Relation.select ran")

        monkeypatch.setattr(Relation, "select", refused)
        run = triangle_hl_semijoin(r, s, t, p=8)
        assert 0 in run.details["heavy_z"]
        assert sorted(run.output.rows()) == sorted(expected.rows())
        assert len(run.output) == count_triangles(e)

    def test_correctness_random(self):
        edges = random_edges(250, 30, seed=2)
        r, s, t = triangle_relations(edges)
        run = triangle_hl_semijoin(r, s, t, p=8)
        assert len(run.output) == count_triangles(edges)
        expected = triangle_query().evaluate({"R": r, "S": s, "T": t})
        assert sorted(run.output.rows()) == sorted(expected.rows())

    def test_correctness_skewed(self):
        edges = power_law_edges(400, 100, s=1.5, seed=3)
        r, s, t = triangle_relations(edges)
        run = triangle_hl_semijoin(r, s, t, p=8)
        assert len(run.output) == count_triangles(edges)

    def test_detects_heavy_hub(self):
        # A hub vertex of huge z-degree must be classified heavy.
        hub_edges = [(i, 0) for i in range(1, 80)]  # all point at vertex 0
        cycle = [(0, 1), (1, 2), (2, 0)]
        e = Relation("E", ["u", "v"], sorted(set(hub_edges + cycle)))
        r, s, t = triangle_relations(e)
        run = triangle_hl_semijoin(r, s, t, p=8)
        assert 0 in run.details["heavy_z"]
        assert len(run.output) == count_triangles(e)

    def test_two_rounds_worst_case(self):
        edges = power_law_edges(300, 60, s=1.6, seed=4)
        r, s, t = triangle_relations(edges)
        run = triangle_hl_semijoin(r, s, t, p=8)
        assert run.rounds <= 2

    def test_beats_plain_hypercube_under_z_skew(self):
        # Slide 59's scenario: skew confined to z. Plain HyperCube hashes
        # the hub value to one z-coordinate and overloads its sub-plane;
        # the HL plan gives the hub its own semijoin residual.
        from repro.data.generators import uniform_relation
        from repro.multiway.hypercube import triangle_hypercube

        n, p = 420, 27
        r = uniform_relation("R", ["x", "y"], n, 40, seed=1)
        # z = 0 is a heavy hub in S and T; other z values are light.
        s_rows = [(i % 40, 0) for i in range(n - 60)] + [
            (i % 40, 1 + i % 25) for i in range(60)
        ]
        t_rows = [(0, i % 40) for i in range(n - 60)] + [
            (1 + i % 25, i % 40) for i in range(60)
        ]
        s = Relation("S", ["y", "z"], s_rows)
        t = Relation("T", ["z", "x"], t_rows)
        hc = triangle_hypercube(r, s, t, p=p)
        hl = triangle_hl_semijoin(r, s, t, p=p)
        assert sorted(hl.output.rows()) == sorted(hc.output.rows())
        assert hl.load < hc.load
