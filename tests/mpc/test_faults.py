"""Fault injection & recovery: lifecycle, determinism, and counters.

Fast seeds — this suite is part of tier-1. The heavier randomized sweep
lives in ``python -m repro selftest --faults``.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import pytest

from repro.data.generators import uniform_relation
from repro.data.relation import Relation
from repro.engine import Engine
from repro.errors import FaultPlanError
from repro.joins.hash_join import parallel_hash_join
from repro.mpc import (
    ChannelFault,
    Cluster,
    CrashFault,
    FaultPlan,
    FaultStats,
    RecoveryPolicy,
    StragglerFault,
    faulty,
    trace,
)
from repro.mpc.faults import fault_plan_by_default
from repro.testing.scalar_reference import send_row
from tests.holdings import scalar_rung


def shuffle_pipeline(p=4, n=48, depth=3, plan=None, audit=True):
    """``depth`` chained re-hash shuffles; returns (sorted rows, stats)."""
    cluster = Cluster(p, seed=7, faults=plan, audit=audit)
    cluster.scatter(Relation("F0", ["a", "b"], [(i, i % 11) for i in range(n)]))
    for step in range(depth):
        h = cluster.hash_function(step, p)
        with cluster.round(f"shuffle-{step}") as rnd:
            for server in cluster.servers:
                for row in server.take(f"F{step}"):
                    send_row(rnd, h(row[0] + step), f"F{step + 1}", row)
    return sorted(cluster.gather(f"F{depth}")), cluster.stats


BASELINE_ROWS, BASELINE_STATS = shuffle_pipeline()


def assert_transparent(plan, **kwargs):
    """Run the pipeline under ``plan``; it must match the fault-free run
    in rows, per-round loads, and audit — the fault layer's core contract."""
    rows, stats = shuffle_pipeline(plan=plan, **kwargs)
    assert rows == BASELINE_ROWS
    assert [r.received for r in stats.rounds] == [
        r.received for r in BASELINE_STATS.rounds
    ]
    assert stats.audit is not None and stats.audit.ok
    assert stats.faults is not None and stats.faults.clean
    return stats.faults


class TestFaultPlanValidation:
    def test_bad_channel_kind(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(channel_faults=(ChannelFault(0, 0, "corrupt"),))

    def test_negative_round(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(CrashFault(-1, 0),))

    def test_nonpositive_count(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(channel_faults=(ChannelFault(0, 0, "drop", count=0),))

    def test_negative_extra_units(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(stragglers=(StragglerFault(0, 0, -1),))

    def test_bad_checkpoint_interval(self):
        with pytest.raises(FaultPlanError):
            RecoveryPolicy(checkpoint_interval=0)

    def test_random_plan_is_reproducible(self):
        assert FaultPlan.random(5, 8) == FaultPlan.random(5, 8)

    def test_empty_property(self):
        assert FaultPlan().empty
        assert not FaultPlan(crashes=(CrashFault(0, 0),)).empty


class TestCrashRecovery:
    def test_crash_is_transparent(self):
        faults = assert_transparent(FaultPlan(crashes=(CrashFault(1, 2),)))
        assert faults.crashes == 1
        assert faults.checkpoint_restores == 1
        assert faults.rounds_replayed == 1
        assert faults.recovery_load > 0

    def test_crash_in_final_round(self):
        faults = assert_transparent(FaultPlan(crashes=(CrashFault(2, 0),)))
        assert faults.crashes == 1

    def test_two_simultaneous_crashes_with_replay(self):
        plan = FaultPlan(crashes=(CrashFault(1, 0), CrashFault(1, 3)))
        faults = assert_transparent(plan)
        assert faults.crashes == 2
        assert faults.checkpoint_restores == 2
        assert faults.rounds_replayed == 2

    def test_crash_with_sparse_checkpoints_replays_gap(self):
        plan = FaultPlan(
            crashes=(CrashFault(2, 1),),
            recovery=RecoveryPolicy(checkpoint_interval=3),
        )
        faults = assert_transparent(plan)
        # Checkpoint at round 0; rounds 0 and 1 roll forward from the
        # log, round 2 is speculatively re-executed.
        assert faults.rounds_replayed == 3
        assert faults.checkpoints_taken == 1

    def test_sparse_checkpoints_count_from_each_step(self):
        """A step's first barrier is checkpointed, so a crash at a later
        step's first round, between the query's interval-th rounds, still
        finds what that round's block left on the server."""
        from repro.multiway.gym import gym
        from repro.query.cq import path_query
        from tests.multiway.multiway_goldens import path_relations

        query, relations = path_query(4), path_relations(4)
        clean = gym(query, relations, 4)
        for ordinal in range(clean.stats.num_rounds):
            plan = FaultPlan(crashes=(CrashFault(ordinal, 0),),
                             recovery=RecoveryPolicy(checkpoint_interval=3))
            with faulty(plan):
                run = gym(query, relations, 4)
            assert run.output.rows() == clean.output.rows(), ordinal
            assert [rd.received for rd in run.stats.rounds] == \
                [rd.received for rd in clean.stats.rounds]
            assert run.stats.faults.crashes == 1 and run.stats.faults.clean

    def test_server_out_of_range_wraps_modulo_p(self):
        faults = assert_transparent(FaultPlan(crashes=(CrashFault(0, 6),)))
        assert faults.crashes == 1

    def test_crash_past_last_round_never_fires(self):
        faults = assert_transparent(FaultPlan(crashes=(CrashFault(99, 0),)))
        assert faults.crashes == 0 and faults.injected == 0

    def test_unrecovered_crash_loses_data_but_keeps_accounting(self):
        plan = FaultPlan(
            crashes=(CrashFault(1, 2),),
            recovery=RecoveryPolicy(enabled=False),
        )
        rows, stats = shuffle_pipeline(plan=plan)
        assert len(rows) < len(BASELINE_ROWS)
        assert stats.faults.unrecovered > 0
        # The corruption is data loss, not accounting drift: the audit
        # still balances every barrier it saw.
        assert stats.audit is not None and stats.audit.ok
        assert "UNRECOVERED" in stats.faults.summary()


class TestScatterCrash:
    def test_crash_during_scatter_is_transparent(self):
        faults = assert_transparent(FaultPlan(scatter_crashes=(1,)))
        assert faults.scatter_crashes == 1
        assert faults.recovery_load > 0

    def test_crash_during_scatter_without_recovery(self):
        plan = FaultPlan(
            scatter_crashes=(1,), recovery=RecoveryPolicy(enabled=False)
        )
        rows, stats = shuffle_pipeline(plan=plan)
        assert len(rows) < len(BASELINE_ROWS)
        assert stats.faults.unrecovered > 0


class TestStragglers:
    def test_straggler_only_plan_is_byte_identical(self):
        plan = FaultPlan(
            stragglers=(StragglerFault(0, 1, 7), StragglerFault(2, 3, 2))
        )
        faults = assert_transparent(plan)
        assert faults.straggler_events == 2
        assert faults.straggler_units == 9
        # Stragglers cost time, not data: no recovery work at all.
        assert faults.recovery_load == 0


class TestChannelFaults:
    def test_drop_and_duplicate_on_same_channel(self):
        plan = FaultPlan(
            channel_faults=(
                ChannelFault(1, 2, "drop", count=2),
                ChannelFault(1, 2, "duplicate", count=1),
            )
        )
        faults = assert_transparent(plan)
        assert faults.dropped == 2 and faults.retransmitted == 2
        assert faults.duplicated == 1 and faults.deduplicated == 1

    def test_unrecovered_drop_loses_exactly_count(self):
        plan = FaultPlan(
            channel_faults=(ChannelFault(1, 2, "drop", count=2),),
            recovery=RecoveryPolicy(enabled=False),
        )
        rows, stats = shuffle_pipeline(plan=plan)
        assert len(rows) == len(BASELINE_ROWS) - 2
        assert stats.faults.unrecovered == 2

    def test_unrecovered_duplicate_adds_exactly_count(self):
        plan = FaultPlan(
            channel_faults=(ChannelFault(1, 2, "duplicate", count=3),),
            recovery=RecoveryPolicy(enabled=False),
        )
        rows, stats = shuffle_pipeline(plan=plan)
        assert len(rows) == len(BASELINE_ROWS) + 3
        assert stats.faults.unrecovered == 3

    def test_named_fragment_channel(self):
        plan = FaultPlan(
            channel_faults=(ChannelFault(0, 1, "drop", fragment="F1", count=1),)
        )
        faults = assert_transparent(plan)
        assert faults.dropped == 1

    def test_absent_fragment_is_a_noop(self):
        plan = FaultPlan(
            channel_faults=(ChannelFault(0, 1, "drop", fragment="nope"),)
        )
        faults = assert_transparent(plan)
        assert faults.dropped == 0


class TestDeterminism:
    PLAN = FaultPlan.random(seed=42, p=4)

    def test_same_plan_same_stats_twice(self):
        first_rows, first = shuffle_pipeline(plan=self.PLAN)
        second_rows, second = shuffle_pipeline(plan=self.PLAN)
        assert first_rows == second_rows
        assert first.faults == second.faults
        assert first.summary() == second.summary()
        assert [r.received for r in first.rounds] == [
            r.received for r in second.rounds
        ]

    def test_identical_across_kernel_modes(self):
        results = {}
        for mode, rung in ((True, nullcontext), (False, scalar_rung)):
            with rung():
                results[mode] = shuffle_pipeline(plan=self.PLAN)
        rows_on, stats_on = results[True]
        rows_off, stats_off = results[False]
        assert rows_on == rows_off
        assert stats_on.faults == stats_off.faults
        assert stats_on.summary() == stats_off.summary()


class TestAmbientFaulty:
    R = uniform_relation("R", ("a", "b"), 120, 30, seed=1)
    S = uniform_relation("S", ("b", "c"), 120, 30, seed=2)

    def test_faulty_threads_through_algorithm(self):
        plan = FaultPlan(crashes=(CrashFault(0, 1),))
        clean = parallel_hash_join(self.R, self.S, p=4)
        with faulty(plan):
            run = parallel_hash_join(self.R, self.S, p=4)
        assert sorted(run.output.rows()) == sorted(clean.output.rows())
        assert run.stats.faults is not None and run.stats.faults.crashes == 1
        assert clean.stats.faults is None

    def test_faulty_nests_and_restores(self):
        outer = FaultPlan(crashes=(CrashFault(0, 0),))
        inner = FaultPlan()
        assert fault_plan_by_default() is None
        with faulty(outer):
            assert fault_plan_by_default() is outer
            with faulty(inner):
                assert fault_plan_by_default() is inner
            assert fault_plan_by_default() is outer
        assert fault_plan_by_default() is None

    def test_faulty_none_disables(self):
        with faulty(FaultPlan()):
            with faulty(None):
                assert Cluster(2).fault_controller is None


class TestFaultyIsContextLocal:
    """``faulty(plan)`` reaches the clusters its own thread builds, no others."""

    PLAN = FaultPlan(crashes=(CrashFault(0, 1),))

    def test_another_threads_cluster_has_no_fault_controller(self):
        step = threading.Barrier(2, timeout=10)

        def inside():
            with faulty(self.PLAN):
                step.wait()  # the other thread builds its cluster now
                step.wait()
                return Cluster(2).fault_controller is not None

        def outside():
            step.wait()
            built = Cluster(2)
            step.wait()
            return built.fault_controller is not None

        with ThreadPoolExecutor(2) as pool:
            a, b = pool.submit(inside), pool.submit(outside)
            assert a.result(timeout=30) is True
            assert b.result(timeout=30) is False

    def test_overlapping_blocks_restore_the_default(self):
        # A-enter, B-enter, A-exit, B-exit: a process-wide default would
        # be restored by B to the plan A had set, and stay stuck on it.
        step = threading.Barrier(2, timeout=10)
        other = FaultPlan()

        def first():
            with faulty(self.PLAN):
                step.wait()  # A entered
                step.wait()  # B entered
            step.wait()      # A exited
            return fault_plan_by_default()

        def second():
            step.wait()
            with faulty(other):
                step.wait()
                step.wait()
                still_inside = fault_plan_by_default()
            return still_inside, fault_plan_by_default()

        with ThreadPoolExecutor(2) as pool:
            a, b = pool.submit(first), pool.submit(second)
            assert a.result(timeout=30) is None
            assert b.result(timeout=30) == (other, None)
        assert fault_plan_by_default() is None

    def test_concurrent_engine_query_outside_the_block_sees_no_faults(self):
        engine = Engine(p=4)
        engine.register(TestAmbientFaulty.R)
        engine.register(TestAmbientFaulty.S)
        step = threading.Barrier(2, timeout=10)

        def inside():
            with faulty(self.PLAN):
                step.wait()  # both threads query from here ...
                result = engine.query("R(a, b), S(b, c)")
                step.wait()  # ... and the block outlives the other's query
            return result.stats.faults

        def outside():
            step.wait()
            result = engine.query("R(a, b), S(b, c)")
            step.wait()
            return result.stats.faults

        with ThreadPoolExecutor(2) as pool:
            a, b = pool.submit(inside), pool.submit(outside)
            assert isinstance(a.result(timeout=30), FaultStats)
            assert b.result(timeout=30) is None


class TestSurfacing:
    def test_trace_appends_fault_summary(self):
        plan = FaultPlan(crashes=(CrashFault(1, 2),))
        _, stats = shuffle_pipeline(plan=plan)
        assert "faults:" in trace(stats)
        assert "rounds replayed" in trace(stats)

    def test_summary_mentions_faults(self):
        plan = FaultPlan(crashes=(CrashFault(1, 2),))
        _, stats = shuffle_pipeline(plan=plan)
        assert "faults=1" in stats.summary()

    def test_clean_run_summary_unchanged(self):
        assert "faults" not in BASELINE_STATS.summary()

    def test_combine_merges_fault_stats(self):
        """Faults on steps and pools of one cluster land on the query's
        stats: ordinals count the query's rounds, and each pool round's
        faults strike the servers it runs on."""
        plan = FaultPlan(
            crashes=(CrashFault(0, 1), CrashFault(1, 3)),
            stragglers=(StragglerFault(1, 2, 5),),
        )
        cluster = Cluster(4, faults=plan)
        with cluster.step(1) as step:
            with step.round("first") as rnd:
                send_row(rnd, 1, "A", (1,))

        def run(i, pool):
            with pool.round(f"pool-{i}") as rnd:
                send_row(rnd, 0, "B", (i,))

        cluster.side_by_side([2, 2], 0, run)
        faults = cluster.stats.faults
        assert faults.crashes == 2 and faults.straggler_events == 1
        assert faults.straggler_units == 5 and faults.clean

    def test_merged_none_when_no_fault_stats(self):
        cluster = Cluster(4)
        cluster.side_by_side([2, 2], 0, lambda i, pool: None)
        assert cluster.stats.faults is None

    def test_merged_folds_counters_and_by_worker_per_key(self):
        first = FaultStats(crashes=1, dropped=2, recovery_load=10, by_worker={0: 2, 1: 1})
        second = FaultStats(crashes=2, unrecovered=1, by_worker={1: 4, 3: 1})
        merged = FaultStats()
        for part in (first, second):
            merged.add(part)
        assert (merged.crashes, merged.dropped, merged.recovery_load) == (3, 2, 10)
        assert merged.unrecovered == 1 and merged.injected == 5
        assert merged.by_worker == {0: 2, 1: 5, 3: 1}
        # The parts are left as they were.
        assert first.by_worker == {0: 2, 1: 1} and second.by_worker == {1: 4, 3: 1}

    def test_snapshot_and_delta_round_trip(self):
        live = FaultStats(crashes=1, straggler_units=7, by_worker={0: 1})
        before = live.snapshot()
        assert before == live and before.by_worker is not live.by_worker
        live.crashes += 2
        live.by_worker[0] += 1
        live.by_worker[2] = 1
        diff = live.delta(before)
        assert diff.crashes == 2 and diff.straggler_units == 0
        assert diff.by_worker == {0: 1, 2: 1}
        before.add(diff)
        assert before == live
