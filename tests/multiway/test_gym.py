"""Tests for GYM, vanilla and optimized (slides 78–95)."""

import pytest

from repro.data.generators import uniform_relation
from repro.data.relation import Relation
from repro.errors import QueryError
from repro.mpc import CrashFault, FaultPlan, faulty
from repro.multiway.gym import gym
from repro.query.cq import Atom, ConjunctiveQuery, path_query, star_query
from repro.query.ghd import path_balanced_ghd, path_chain_ghd, path_flat_ghd


def star4_relations(n=150, universe=50, seed=0):
    return {
        f"R{i}": uniform_relation(f"R{i}", ["A0", f"A{i}"], n, universe, seed=seed + i)
        for i in range(1, 5)
    }


def path_relations(n_atoms, n=120, universe=40, seed=0):
    return {
        f"R{i}": uniform_relation(
            f"R{i}", [f"A{i-1}", f"A{i}"], n, universe, seed=seed + i
        )
        for i in range(1, n_atoms + 1)
    }


class TestCorrectness:
    @pytest.mark.parametrize("variant", ["vanilla", "optimized"])
    def test_star4(self, variant):
        q = star_query(4)
        rels = star4_relations()
        run = gym(q, rels, p=8, variant=variant)
        assert sorted(run.output.rows()) == sorted(q.evaluate(rels).rows())

    @pytest.mark.parametrize("variant", ["vanilla", "optimized"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_paths(self, variant, n):
        q = path_query(n)
        rels = path_relations(n)
        run = gym(q, rels, p=8, variant=variant)
        assert sorted(run.output.rows()) == sorted(q.evaluate(rels).rows())

    def test_slide64_query(self):
        q = ConjunctiveQuery(
            [
                Atom("R1", ["A0", "A1"]),
                Atom("R2", ["A0", "A2"]),
                Atom("R3", ["A1", "A3"]),
                Atom("R4", ["A2", "A4"]),
                Atom("R5", ["A2", "A5"]),
            ]
        )
        rels = {
            name: uniform_relation(name, list(q.atom(name).variables), 100, 30, seed=i)
            for i, name in enumerate(["R1", "R2", "R3", "R4", "R5"])
        }
        for variant in ("vanilla", "optimized"):
            run = gym(q, rels, p=8, variant=variant)
            assert sorted(run.output.rows()) == sorted(q.evaluate(rels).rows())

    def test_empty_output(self):
        q = path_query(2)
        rels = {
            "R1": Relation("R1", ["A0", "A1"], [(1, 2)]),
            "R2": Relation("R2", ["A1", "A2"], [(9, 9)]),
        }
        run = gym(q, rels, p=4)
        assert len(run.output) == 0

    def test_unknown_variant_rejected(self):
        with pytest.raises(QueryError):
            gym(path_query(2), path_relations(2), p=4, variant="turbo")


class TestRoundCounts:
    def test_optimized_fewer_rounds_on_star(self):
        # Slides 80–94: vanilla star-4 needs ~9 rounds, optimized ~4.
        q = star_query(4)
        rels = star4_relations()
        vanilla = gym(q, rels, p=8, variant="vanilla")
        optimized = gym(q, rels, p=8, variant="optimized")
        assert optimized.rounds < vanilla.rounds
        assert optimized.rounds <= 4

    def test_vanilla_rounds_scale_with_atoms(self):
        q3 = path_query(3)
        q6 = path_query(6)
        r3 = gym(q3, path_relations(3), p=4, variant="vanilla")
        r6 = gym(q6, path_relations(6), p=4, variant="vanilla")
        assert r6.rounds > r3.rounds

    def test_optimized_rounds_scale_with_depth(self):
        # A chain GHD has depth n-1; the balanced GHD has depth O(log n).
        n = 8
        q = path_query(n)
        rels = path_relations(n, n=60, universe=25)
        chain = gym(q, rels, p=8, ghd=path_chain_ghd(n), variant="optimized")
        balanced = gym(q, rels, p=8, ghd=path_balanced_ghd(n), variant="optimized")
        assert balanced.rounds < chain.rounds
        # The balanced GHD reuses atoms, so GYM runs it with set semantics;
        # compare distinct outputs.
        assert balanced.details["set_semantics"]
        assert set(chain.output.rows()) == set(balanced.output.rows())


class TestGHDWidthTradeoff:
    def test_flat_ghd_works_and_is_shallow(self):
        # Slide 95: width n/2, depth 1 — few rounds, heavy bag loads.
        n = 4
        q = path_query(n)
        rels = path_relations(n, n=40, universe=15)
        flat = gym(q, rels, p=8, ghd=path_flat_ghd(n), variant="optimized")
        assert sorted(flat.output.rows()) == sorted(q.evaluate(rels).rows())

    def test_flat_trades_load_for_rounds(self):
        n = 4
        q = path_query(n)
        rels = path_relations(n, n=40, universe=15)
        chain = gym(q, rels, p=8, ghd=path_chain_ghd(n), variant="optimized")
        flat = gym(q, rels, p=8, ghd=path_flat_ghd(n), variant="optimized")
        assert flat.rounds <= chain.rounds
        assert flat.load >= chain.load  # the IN^w bag materialization bites

    def test_details_report_shape(self):
        q = path_query(4)
        rels = path_relations(4, n=40, universe=15)
        run = gym(q, rels, p=4, ghd=path_balanced_ghd(4))
        assert run.details["width"] <= 3
        assert "depth" in run.details


class TestLoadBehaviour:
    def test_load_scales_with_in_plus_out_over_p(self):
        q = star_query(3)
        rels = {
            f"R{i}": uniform_relation(f"R{i}", ["A0", f"A{i}"], 300, 100, seed=i)
            for i in range(1, 4)
        }
        run_p4 = gym(q, rels, p=4)
        run_p16 = gym(q, rels, p=16)
        assert run_p16.load < run_p4.load


class TestOneCluster:
    """Every phase of a GYM query runs on one cluster."""

    def test_a_crash_at_round_zero_strikes_once(self):
        """The plan's ordinal is the query's: round 0 is one round, so one
        crash (one per step, 8 in all, when each step built a cluster)."""
        q, rels = path_query(4), path_relations(4)
        with faulty(FaultPlan(crashes=(CrashFault(round=0, server=1),))):
            run = gym(q, rels, p=4)
        assert run.stats.num_rounds == 7
        assert run.stats.faults.crashes == 1 and run.stats.faults.clean
        assert sorted(run.output.rows()) == sorted(q.evaluate(rels).rows())

    def test_an_oversubscribed_wave_takes_servers_past_p(self):
        """Three downward semijoins at p = 2 get a server each: the round
        lists three servers, and the run still reports p = 2."""
        q, rels = star_query(4), star4_relations()
        run = gym(q, rels, p=2)
        assert [len(rd.received) for rd in run.stats.rounds] == [2, 3, 2]
        assert run.stats.rounds[1].label == "semijoin-down"
        assert run.stats.p == 2
        assert sorted(run.output.rows()) == sorted(q.evaluate(rels).rows())
