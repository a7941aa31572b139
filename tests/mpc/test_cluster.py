"""Tests for the MPC cluster simulator: rounds, delivery, load accounting."""

from contextlib import nullcontext

import pytest

from repro.data.relation import Relation
from repro.errors import ClusterError, LoadExceededError
from repro.mpc.cluster import Cluster, combine_parallel, combine_sequential
from repro.mpc.stats import RoundStats, RunStats


class TestClusterBasics:
    def test_server_count(self):
        c = Cluster(4)
        assert c.p == 4 and len(c.servers) == 4

    def test_invalid_p(self):
        with pytest.raises(ClusterError):
            Cluster(0)

    def test_scatter_round_robin(self):
        c = Cluster(3)
        r = Relation("R", ["x"], [(i,) for i in range(7)])
        c.scatter(r)
        assert c.fragment_sizes("R") == [3, 2, 2]

    def test_scatter_is_free(self):
        c = Cluster(3)
        c.scatter(Relation("R", ["x"], [(1,), (2,)]))
        assert c.stats.total_communication == 0

    def test_gather_returns_everything(self):
        c = Cluster(3)
        r = Relation("R", ["x"], [(i,) for i in range(7)])
        c.scatter(r)
        assert sorted(c.gather("R")) == sorted(r.rows())

    def test_gather_relation(self):
        c = Cluster(2)
        c.scatter(Relation("R", ["x", "y"], [(1, 2), (3, 4)]))
        g = c.gather_relation("R", "R", ["x", "y"])
        assert sorted(g.rows()) == [(1, 2), (3, 4)]

    def test_drop(self):
        c = Cluster(2)
        c.scatter(Relation("R", ["x"], [(1,), (2,)]))
        c.drop("R")
        assert c.gather("R") == []


class TestRounds:
    def test_delivery_at_barrier(self):
        c = Cluster(2)
        with c.round("r1") as rnd:
            rnd.send(0, "A", (1,))
            rnd.send(1, "A", (2,))
            # Not delivered until the block exits.
            assert c.servers[0].get("A") == []
        assert c.servers[0].get("A") == [(1,)]
        assert c.servers[1].get("A") == [(2,)]

    def test_load_is_tuples_received(self):
        c = Cluster(2)
        with c.round("r1") as rnd:
            for _ in range(5):
                rnd.send(0, "A", (0,))
            rnd.send(1, "A", (0,))
        assert c.stats.rounds[0].received == [5, 1]
        assert c.stats.max_load == 5
        assert c.stats.total_communication == 6

    def test_round_counting_skips_silent_rounds(self):
        c = Cluster(2)
        with c.round("quiet"):
            pass
        with c.round("busy") as rnd:
            rnd.send(0, "A", (1,))
        assert c.stats.num_rounds == 1
        assert len(c.stats.rounds) == 2

    def test_send_out_of_range(self):
        c = Cluster(2)
        with pytest.raises(ClusterError):
            with c.round("r") as rnd:
                rnd.send(5, "A", (1,))

    def test_nested_round_rejected(self):
        c = Cluster(2)
        with c.round("outer"):
            with pytest.raises(ClusterError):
                c.round("inner")

    def test_send_after_close_rejected(self):
        c = Cluster(2)
        with c.round("r") as rnd:
            rnd.send(0, "A", (1,))
        with pytest.raises(ClusterError):
            rnd.send(0, "A", (2,))

    def test_broadcast(self):
        c = Cluster(3)
        with c.round("b") as rnd:
            rnd.broadcast("B", (7,))
        assert all(s.get("B") == [(7,)] for s in c.servers)
        assert c.stats.rounds[0].received == [1, 1, 1]

    def test_broadcast_to_subset(self):
        c = Cluster(4)
        with c.round("b") as rnd:
            rnd.broadcast("B", (7,), servers=[1, 3])
        assert c.stats.rounds[0].received == [0, 1, 0, 1]

    def test_send_many(self):
        c = Cluster(2)
        with c.round("r") as rnd:
            rnd.send_many(1, "A", [(1,), (2,), (3,)])
        assert c.servers[1].get("A") == [(1,), (2,), (3,)]

    def test_custom_units(self):
        c = Cluster(2)
        with c.round("r") as rnd:
            rnd.send(0, "A", (1, 2, 3), units=3)
        assert c.stats.max_load == 3

    def test_free_round_not_charged(self):
        c = Cluster(2)
        with c.free_round("place") as rnd:
            rnd.send(0, "A", (1,))
        assert c.servers[0].get("A") == [(1,)]
        assert c.stats.total_communication == 0

    def test_appends_to_existing_fragment(self):
        c = Cluster(2)
        c.servers[0].put("A", [(0,)])
        with c.round("r") as rnd:
            rnd.send(0, "A", (1,))
        assert c.servers[0].get("A") == [(0,), (1,)]


class TestLoadCap:
    def test_cap_enforced(self):
        c = Cluster(2, load_cap=2)
        with pytest.raises(LoadExceededError) as exc_info:
            with c.round("r") as rnd:
                for _ in range(3):
                    rnd.send(0, "A", (0,))
        assert exc_info.value.server == 0
        assert exc_info.value.load == 3

    def test_cap_not_triggered_at_limit(self):
        c = Cluster(2, load_cap=2)
        with c.round("r") as rnd:
            rnd.send(0, "A", (0,))
            rnd.send(0, "A", (0,))
        assert c.stats.max_load == 2

    def test_cap_enforced_before_delivery(self):
        """Regression: a cap violation must not mutate server fragments."""
        c = Cluster(2, load_cap=2)
        c.servers[0].put("A", [(99,)])
        with pytest.raises(LoadExceededError):
            with c.round("r") as rnd:
                for _ in range(3):
                    rnd.send(0, "A", (0,))
                rnd.send(1, "B", (1,))
        # Nothing was delivered anywhere — not even to the within-cap server.
        assert c.servers[0].get("A") == [(99,)]
        assert c.servers[1].get("B") == []

    def test_rejected_round_recorded_but_not_aggregated(self):
        """Regression: the violating round's stats stay inspectable."""
        c = Cluster(2, load_cap=2)
        with pytest.raises(LoadExceededError):
            with c.round("over") as rnd:
                for _ in range(5):
                    rnd.send(0, "A", (0,))
        assert len(c.stats.rounds) == 1
        rejected = c.stats.rounds[0]
        assert rejected.label == "over"
        assert not rejected.delivered
        assert rejected.received == [5, 0]
        # Undelivered rounds don't count toward L, r, or C.
        assert c.stats.max_load == 0
        assert c.stats.num_rounds == 0
        assert c.stats.total_communication == 0
        assert "rejected=1" in c.stats.summary()

    def test_cluster_usable_after_cap_violation(self):
        """Regression: LoadExceededError used to wedge the cluster."""
        c = Cluster(2, load_cap=2)
        with pytest.raises(LoadExceededError):
            with c.round("over") as rnd:
                for _ in range(3):
                    rnd.send(0, "A", (0,))
        with c.round("ok") as rnd:
            rnd.send(0, "A", (1,))
            rnd.send(1, "A", (2,))
        assert c.servers[0].get("A") == [(1,)]
        assert c.stats.max_load == 1
        assert c.stats.num_rounds == 1

    def test_free_round_ignores_cap(self):
        c = Cluster(2, load_cap=1)
        with c.free_round("place") as rnd:
            for _ in range(5):
                rnd.send(0, "A", (0,))
        assert c.servers[0].get("A") == [(0,)] * 5


class TestExceptionSafety:
    def test_exception_in_round_releases_cluster(self):
        """Regression: an exception inside `with round(...)` used to leave
        _in_round=True forever ("rounds cannot be nested")."""
        c = Cluster(2)
        with pytest.raises(RuntimeError):
            with c.round("doomed") as rnd:
                rnd.send(0, "A", (1,))
                raise RuntimeError("algorithm bug")
        # The cluster must accept a new round immediately.
        with c.round("next") as rnd:
            rnd.send(1, "A", (2,))
        assert c.servers[1].get("A") == [(2,)]

    def test_aborted_round_delivers_nothing(self):
        c = Cluster(2)
        with pytest.raises(RuntimeError):
            with c.round("doomed") as rnd:
                rnd.send(0, "A", (1,))
                raise RuntimeError
        assert c.servers[0].get("A") == []
        assert c.stats.total_communication == 0
        assert c.stats.rounds == []  # never reached the barrier

    def test_aborted_rounds_counted(self):
        c = Cluster(2)
        for _ in range(3):
            with pytest.raises(ValueError):
                with c.round("x"):
                    raise ValueError
        assert c.stats.aborted == 3
        assert "aborted=3" in c.stats.summary()

    def test_abort_closes_the_round_context(self):
        c = Cluster(2)
        with pytest.raises(RuntimeError):
            with c.round("doomed") as rnd:
                raise RuntimeError
        assert rnd.aborted
        with pytest.raises(ClusterError):
            rnd.send(0, "A", (1,))

    def test_send_error_aborts_cleanly(self):
        c = Cluster(2)
        with pytest.raises(ClusterError):
            with c.round("r") as rnd:
                rnd.send(5, "A", (1,))
        with c.round("again") as rnd:
            rnd.send(0, "A", (1,))
        assert c.servers[0].get("A") == [(1,)]

    def test_exception_in_free_round_releases_cluster(self):
        c = Cluster(2)
        with pytest.raises(RuntimeError):
            with c.free_round("place"):
                raise RuntimeError
        with c.free_round("place2") as rnd:
            rnd.send(0, "A", (1,))
        assert c.servers[0].get("A") == [(1,)]


class TestStats:
    def test_round_stats_properties(self):
        rs = RoundStats("x", [4, 2, 0])
        assert rs.max_load == 4
        assert rs.total == 6
        assert rs.mean_load == 2.0
        assert rs.imbalance == 2.0

    def test_empty_round_stats(self):
        rs = RoundStats("x", [])
        assert rs.max_load == 0 and rs.imbalance == 0.0

    def test_run_stats_aggregation(self):
        run = RunStats(2)
        run.rounds.append(RoundStats("a", [3, 1]))
        run.rounds.append(RoundStats("b", [0, 5]))
        assert run.num_rounds == 2
        assert run.max_load == 5
        assert run.total_communication == 9

    def test_load_of_label(self):
        run = RunStats(2)
        run.rounds.append(RoundStats("a", [3, 1]))
        run.rounds.append(RoundStats("a", [4, 0]))
        assert run.load_of("a") == 4
        with pytest.raises(KeyError):
            run.load_of("zz")

    def test_summary_mentions_costs(self):
        run = RunStats(2)
        run.rounds.append(RoundStats("a", [3, 1]))
        assert "L=3" in run.summary() and "r=1" in run.summary()


class TestCombineParallel:
    def test_parallel_subclusters(self):
        a = RunStats(2)
        a.rounds.append(RoundStats("x", [5, 1]))
        b = RunStats(3)
        b.rounds.append(RoundStats("y", [2, 2, 2]))
        b.rounds.append(RoundStats("y2", [1, 1, 1]))
        combined = combine_parallel(5, [a, b])
        assert combined.num_rounds == 2
        assert combined.max_load == 5
        assert combined.rounds[0].total == 6 + 6
        assert combined.rounds[1].total == 3

    def test_empty(self):
        combined = combine_parallel(4, [])
        assert combined.num_rounds == 0

    def test_labels_deduplicated(self):
        a = RunStats(1)
        a.rounds.append(RoundStats("shuffle", [1]))
        b = RunStats(1)
        b.rounds.append(RoundStats("shuffle", [2]))
        c = RunStats(1)
        c.rounds.append(RoundStats("probe", [3]))
        combined = combine_parallel(3, [a, b, c])
        assert combined.rounds[0].label == "shuffle+probe"

    def test_undelivered_subrounds_excluded(self):
        """Cap-rejected sub-rounds moved nothing and must not misalign."""
        a = RunStats(2)
        a.rounds.append(RoundStats("bad", [9, 0], delivered=False))
        a.rounds.append(RoundStats("good", [1, 1]))
        b = RunStats(2)
        b.rounds.append(RoundStats("other", [2, 2]))
        combined = combine_parallel(4, [a, b])
        assert combined.num_rounds == 1
        assert combined.rounds[0].label == "good+other"
        assert combined.max_load == 2
        assert combined.total_communication == 6

    def test_aborted_counts_summed(self):
        a = RunStats(2, aborted=2)
        b = RunStats(2, aborted=1)
        assert combine_parallel(4, [a, b]).aborted == 3


class TestCombineSequential:
    def test_rounds_concatenate(self):
        a = RunStats(4)
        a.rounds.append(RoundStats("x", [5, 1, 0, 0]))
        b = RunStats(4)
        b.rounds.append(RoundStats("y", [2, 2, 2, 2]))
        combined = combine_sequential(4, [a, b])
        assert combined.num_rounds == 2
        assert combined.max_load == 5
        assert combined.total_communication == 6 + 8

    def test_aborted_counts_summed(self):
        a = RunStats(4, aborted=1)
        b = RunStats(4, aborted=2)
        assert combine_sequential(4, [a, b]).aborted == 3

    def test_undelivered_rounds_stay_inspectable(self):
        a = RunStats(2)
        a.rounds.append(RoundStats("bad", [9, 0], delivered=False))
        b = RunStats(2)
        b.rounds.append(RoundStats("ok", [1, 1]))
        combined = combine_sequential(2, [a, b])
        assert len(combined.rounds) == 2
        assert combined.num_rounds == 1
        assert combined.max_load == 1


class TestFreeRoundAccounting:
    def test_free_round_records_zero_loads(self):
        c = Cluster(3)
        with c.free_round("place") as rnd:
            for sid in range(3):
                rnd.send(sid, "A", (sid,))
        assert c.stats.rounds[0].received == [0, 0, 0]
        assert c.stats.rounds[0].delivered

    def test_free_round_not_counted_as_round(self):
        c = Cluster(2)
        with c.free_round("place") as rnd:
            rnd.send(0, "A", (1,))
        with c.round("work") as rnd:
            rnd.send(1, "A", (2,))
        assert c.stats.num_rounds == 1
        assert c.stats.max_load == 1
        assert c.stats.total_communication == 1

    def test_free_round_custom_units_uncharged(self):
        c = Cluster(2)
        with c.free_round("place") as rnd:
            rnd.send(0, "A", (1, 2, 3), units=3)
        assert c.stats.max_load == 0
        assert c.servers[0].get("A") == [(1, 2, 3)]


class TestHashFunctionAccess:
    def test_default_buckets_is_p(self):
        c = Cluster(7)
        h = c.hash_function(0)
        assert all(0 <= h(v) < 7 for v in range(100))

    def test_same_seed_same_functions(self):
        c1, c2 = Cluster(5, seed=11), Cluster(5, seed=11)
        h1, h2 = c1.hash_function(3), c2.hash_function(3)
        assert [h1(v) for v in range(50)] == [h2(v) for v in range(50)]


def _rung(kernels):
    """The kernels, or (``False``) the scalar rung's test-scope substitution."""
    from tests.holdings import scalar_rung

    return nullcontext() if kernels else scalar_rung()


class TestLoadCapBoundary:
    """load_cap is the *maximum permitted* load: exactly-cap delivers,
    cap+1 raises — on the tuple path and the batched (kernel) path alike."""

    @pytest.mark.parametrize("kernels", [True, False])
    def test_exactly_cap_delivers(self, kernels):
        with _rung(kernels):
            c = Cluster(2, load_cap=3)
            with c.round("r") as rnd:
                rnd.send_rows(0, "A", [(1,), (2,), (3,)])
            assert c.servers[0].get("A") == [(1,), (2,), (3,)]
            assert c.stats.max_load == 3
            assert c.stats.rounds[0].delivered

    @pytest.mark.parametrize("kernels", [True, False])
    def test_cap_plus_one_raises(self, kernels):
        with _rung(kernels):
            c = Cluster(2, load_cap=3)
            with pytest.raises(LoadExceededError) as exc_info:
                with c.round("r") as rnd:
                    rnd.send_rows(0, "A", [(1,), (2,), (3,), (4,)])
            assert exc_info.value.load == 4 and exc_info.value.cap == 3
            assert c.servers[0].get("A") == []
            assert not c.stats.rounds[0].delivered

    def test_negative_units_rejected(self):
        """Regression: send(units=-5) silently offset other senders' units
        and could mask a cap violation (received=[-2, 0] from 4 sends)."""
        c = Cluster(2, load_cap=2)
        with pytest.raises(ClusterError, match="non-negative"):
            with c.round("r") as rnd:
                rnd.send(0, "A", (1,), units=-5)

    def test_zero_units_still_allowed(self):
        c = Cluster(2)
        with c.round("r") as rnd:
            rnd.send(0, "A", (1,), units=0)
        assert c.stats.max_load == 0
        assert c.servers[0].get("A") == [(1,)]


class TestAbortedRoundStats:
    """An aborted round must leave stats and audit identical to never
    having opened it — including when it buffered column blocks."""

    @pytest.mark.parametrize("kernels", [True, False])
    def test_abort_after_partial_sends_leaves_no_trace(self, kernels):
        import numpy as np

        with _rung(kernels):
            c = Cluster(2, audit=True)
            untouched = Cluster(2, audit=True)
            with pytest.raises(RuntimeError):
                with c.round("doomed") as rnd:
                    rnd.send(0, "A", (1,))
                    rnd.send_columns(1, "B", [np.array([2, 3])])
                    raise RuntimeError("algorithm bug")
            assert c.stats.rounds == untouched.stats.rounds
            assert c.stats.max_load == 0
            assert c.stats.total_communication == 0
            assert c.stats.aborted == 1
            report = c.stats.audit
            assert report.rounds_audited == 0
            assert report.checks_run == 0
            assert report.violations == []
            assert report.aborted_rounds == ["doomed"]
            # No fragment anywhere, in either form.
            for server in c.servers:
                assert server.storage == {}

    @pytest.mark.parametrize("kernels", [True, False])
    def test_side_car_installs_correctly_after_abort(self, kernels):
        """A later round to the same fragment behaves as if the aborted
        round never existed (fresh fragment, of the later round's blocks only)."""
        import numpy as np

        with _rung(kernels):
            c = Cluster(2, audit=True)
            with pytest.raises(RuntimeError):
                with c.round("doomed") as rnd:
                    rnd.send_columns(0, "B", [np.array([9])])
                    raise RuntimeError
            with c.round("ok") as rnd:
                rnd.send_columns(0, "B", [np.array([2, 3])])
            part = c.servers[0].take("B")
            assert list(part) == [(2,), (3,)]
            assert [column.tolist() for column in part.arrays()] == [[2, 3]]
            assert c.stats.max_load == 2


class TestLoadOfDeliveredOnly:
    def test_load_of_excludes_cap_rejected_rounds(self):
        """Regression: load_of() used to report the attempted load of a
        cap-rejected round as if the algorithm had realized it."""
        c = Cluster(2, load_cap=2)
        with c.round("shuffle") as rnd:
            rnd.send(0, "A", (1,))
        with pytest.raises(LoadExceededError):
            with c.round("shuffle") as rnd:
                for _ in range(5):
                    rnd.send(0, "A", (0,))
        assert c.stats.load_of("shuffle") == 1

    def test_load_of_only_rejected_rounds_raises(self):
        c = Cluster(2, load_cap=2)
        with pytest.raises(LoadExceededError):
            with c.round("over") as rnd:
                for _ in range(5):
                    rnd.send(0, "A", (0,))
        with pytest.raises(KeyError):
            c.stats.load_of("over")
