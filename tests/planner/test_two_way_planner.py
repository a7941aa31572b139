"""Tests for the two-way join planner."""

import pytest

from repro.data.generators import (
    single_value_relation,
    uniform_relation,
)
from repro.data.relation import Relation
from repro.planner.two_way import execute_two_way_join, plan_two_way_join


class TestPlanChoice:
    def test_uniform_picks_hash(self):
        r = uniform_relation("R", ["x", "y"], 400, 800, seed=1)
        s = uniform_relation("S", ["y", "z"], 400, 800, seed=2)
        plan = plan_two_way_join(r, s, p=8)
        assert plan.algorithm == "hash"

    def test_tiny_side_picks_broadcast(self):
        r = Relation("R", ["x", "y"], [(1, 2), (3, 4)])
        s = uniform_relation("S", ["y", "z"], 1000, 50, seed=3)
        plan = plan_two_way_join(r, s, p=8)
        assert plan.algorithm == "broadcast"
        assert plan.predicted_load == 2

    def test_skewed_picks_skew_join(self):
        r = single_value_relation("R", ["x", "y"], 200, "y")
        s = single_value_relation("S", ["y", "z"], 200, "y")
        plan = plan_two_way_join(r, s, p=8)
        assert plan.algorithm == "skew"

    def test_no_key_picks_cartesian(self):
        r = Relation("R", ["x"], [(1,), (2,)] * 50)
        s = Relation("S", ["z"], [(3,), (4,)] * 50)
        plan = plan_two_way_join(r, s, p=4)
        assert plan.algorithm == "cartesian"

    def test_describe_mentions_algorithm(self):
        r = uniform_relation("R", ["x", "y"], 100, 200, seed=4)
        s = uniform_relation("S", ["y", "z"], 100, 200, seed=5)
        plan = plan_two_way_join(r, s, p=4)
        assert plan.algorithm in plan.describe()


class TestExecution:
    def test_execute_matches_reference(self):
        r = uniform_relation("R", ["x", "y"], 300, 60, seed=6)
        s = uniform_relation("S", ["y", "z"], 300, 60, seed=7)
        plan, run = execute_two_way_join(r, s, p=8)
        assert sorted(run.output.rows()) == sorted(r.join(s).rows())

    def test_execute_each_branch(self):
        cases = [
            (  # broadcast
                Relation("R", ["x", "y"], [(1, 2)]),
                uniform_relation("S", ["y", "z"], 500, 40, seed=8),
                "broadcast",
            ),
            (  # skew
                single_value_relation("R", ["x", "y"], 100, "y"),
                single_value_relation("S", ["y", "z"], 100, "y"),
                "skew",
            ),
            (  # cartesian
                Relation("R", ["x"], [(i,) for i in range(20)]),
                Relation("S", ["z"], [(i,) for i in range(20)]),
                "cartesian",
            ),
        ]
        for r, s, expected in cases:
            plan, run = execute_two_way_join(r, s, p=8)
            assert plan.algorithm == expected
            assert sorted(run.output.rows()) == sorted(r.join(s).rows())

    def test_same_name_inputs(self):
        """The two-atom query names its atoms by position, not by relation."""
        e = uniform_relation("E", ["x", "y"], 120, 20, seed=13)
        f = e.rename({"x": "y", "y": "z"})
        assert f.name == e.name
        plan, run = execute_two_way_join(e, f, p=4)
        assert plan == plan_two_way_join(e, f, p=4)
        assert sorted(run.output.rows()) == sorted(e.join(f).rows())

    def test_skew_peels_what_it_priced(self):
        """One key of degree 200 on both sides, |R|=400, |S|=4000, p=16.

        The key is heavy by the m/p rule in R (200 > 25) but below
        ``skew_join``'s max(N)/p default (250): an executor that announces
        ``skew`` and then runs the default peels nothing and measures about
        the plain hash join's load.
        """
        from repro.joins import parallel_hash_join
        from repro.planner.optimizer import plan_query

        r = Relation(
            "R", ["x", "y"],
            [(i, 0) for i in range(200)] + [(i, 1 + i % 200) for i in range(200)],
        )
        s = Relation(
            "S", ["y", "z"],
            [(0, i) for i in range(200)] + [(1 + i % 1900, i) for i in range(3800)],
        )
        plan, run = execute_two_way_join(r, s, p=16)
        assert plan.algorithm == "skew"
        assert sorted(run.output.rows()) == sorted(r.join(s).rows())
        assert run.load < parallel_hash_join(r, s, 16).load
        explain = plan_query("R(x, y), S(y, z)", {"R": r, "S": s}, 16)
        assert explain.candidate("skew").within_envelope(run.load)

    def test_forced_skew_and_skewhc_are_one_run(self):
        """On two atoms SkewHC is the skew join: forcing either runs one
        call at one threshold, byte for byte, on every two-atom instance
        of the differential corpus."""
        from repro.planner.optimizer import execute_strategy
        from repro.testing.differential import generate_instances

        instances = generate_instances(12, seed=5, kinds=["two_way"])
        assert {instance.profile for instance in instances} == {"uniform", "zipf", "matching"}
        for instance in instances:
            (skew, skew_stats), (skewhc, skewhc_stats) = (
                execute_strategy(instance.query, instance.relations, instance.p, strategy, seed=2)
                for strategy in ("skew", "skewhc")
            )
            assert skew.schema == skewhc.schema, instance.label
            assert skew.rows_readonly() == skewhc.rows_readonly(), instance.label
            assert [(rd.label, rd.received) for rd in skew_stats.rounds] == \
                [(rd.label, rd.received) for rd in skewhc_stats.rounds], instance.label
            assert (skew_stats.max_load, skew_stats.num_rounds) == \
                (skewhc_stats.max_load, skewhc_stats.num_rounds), instance.label

    def test_predicted_load_tracks_measured(self):
        r = uniform_relation("R", ["x", "y"], 800, 1600, seed=9)
        s = uniform_relation("S", ["y", "z"], 800, 1600, seed=10)
        plan, run = execute_two_way_join(r, s, p=8)
        assert run.load <= 3 * plan.predicted_load
        assert run.load >= plan.predicted_load / 3

    def test_planner_never_loses_badly(self):
        """The chosen algorithm is within 2x of the best of the menu."""
        from repro.joins import parallel_hash_join, skew_join, sort_join

        workloads = [
            (
                uniform_relation("R", ["x", "y"], 400, 800, seed=11),
                uniform_relation("S", ["y", "z"], 400, 800, seed=12),
            ),
            (
                single_value_relation("R", ["x", "y"], 150, "y"),
                single_value_relation("S", ["y", "z"], 150, "y"),
            ),
        ]
        for r, s in workloads:
            _, chosen = execute_two_way_join(r, s, p=8)
            menu = [
                parallel_hash_join(r, s, p=8).load,
                skew_join(r, s, p=8).load,
                sort_join(r, s, p=8).load,
            ]
            assert chosen.load <= 2 * min(menu)
