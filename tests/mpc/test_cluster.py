"""Tests for the MPC cluster simulator: rounds, delivery, load accounting."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.errors import ClusterError, LoadExceededError
from repro.mpc.cluster import Cluster
from repro.mpc.stats import RoundStats, RunStats
from repro.testing.scalar_reference import send_row
from tests.holdings import fragment_of


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
            send_row(rnd, 0, "A", (1,))
            send_row(rnd, 1, "A", (2,))
            # Not delivered until the block exits.
            assert list(c.servers[0].get("A")) == []
        assert list(c.servers[0].get("A")) == [(1,)]
        assert list(c.servers[1].get("A")) == [(2,)]

    def test_load_is_tuples_received(self):
        c = Cluster(2)
        with c.round("r1") as rnd:
            for _ in range(5):
                send_row(rnd, 0, "A", (0,))
            send_row(rnd, 1, "A", (0,))
        assert c.stats.rounds[0].received == [5, 1]
        assert c.stats.max_load == 5
        assert c.stats.total_communication == 6

    def test_round_counting_skips_silent_rounds(self):
        c = Cluster(2)
        with c.round("quiet"):
            pass
        with c.round("busy") as rnd:
            send_row(rnd, 0, "A", (1,))
        assert c.stats.num_rounds == 1
        assert len(c.stats.rounds) == 2

    def test_send_out_of_range(self):
        c = Cluster(2)
        with pytest.raises(ClusterError):
            with c.round("r") as rnd:
                send_row(rnd, 5, "A", (1,))

    def test_nested_round_rejected(self):
        c = Cluster(2)
        with c.round("outer"):
            with pytest.raises(ClusterError):
                c.round("inner")

    def test_send_after_close_rejected(self):
        c = Cluster(2)
        with c.round("r") as rnd:
            send_row(rnd, 0, "A", (1,))
        with pytest.raises(ClusterError):
            send_row(rnd, 0, "A", (2,))

    def test_broadcast(self):
        c = Cluster(3)
        with c.round("b") as rnd:
            for dest in range(c.p):  # a broadcast is one block per server
                rnd.send_columns(dest, "B", [np.array([7])])
        assert all(list(s.get("B")) == [(7,)] for s in c.servers)
        assert c.stats.rounds[0].received == [1, 1, 1]

    def test_broadcast_to_subset(self):
        c = Cluster(4)
        with c.round("b") as rnd:
            for dest in (1, 3):
                rnd.send_columns(dest, "B", [np.array([7])])
        assert c.stats.rounds[0].received == [0, 1, 0, 1]

    def test_send_many(self):
        c = Cluster(2)
        with c.round("r") as rnd:
            rnd.send_columns(1, "A", [np.array([1, 2, 3])])
        assert list(c.servers[1].get("A")) == [(1,), (2,), (3,)]

    def test_custom_units(self):
        c = Cluster(2)
        with c.round("r") as rnd:
            send_row(rnd, 0, "A", (1, 2, 3), units=3)
        assert c.stats.max_load == 3

    def test_free_round_not_charged(self):
        c = Cluster(2)
        with c.free_round("place") as rnd:
            send_row(rnd, 0, "A", (1,))
        assert list(c.servers[0].get("A")) == [(1,)]
        assert c.stats.total_communication == 0

    def test_appends_to_existing_fragment(self):
        c = Cluster(2)
        c.servers[0].put("A", fragment_of([(0,)], 1))
        with c.round("r") as rnd:
            send_row(rnd, 0, "A", (1,))
        assert list(c.servers[0].get("A")) == [(0,), (1,)]


class TestLoadCap:
    def test_cap_enforced(self):
        c = Cluster(2, load_cap=2)
        with pytest.raises(LoadExceededError) as exc_info:
            with c.round("r") as rnd:
                for _ in range(3):
                    send_row(rnd, 0, "A", (0,))
        assert exc_info.value.server == 0
        assert exc_info.value.load == 3

    def test_cap_not_triggered_at_limit(self):
        c = Cluster(2, load_cap=2)
        with c.round("r") as rnd:
            send_row(rnd, 0, "A", (0,))
            send_row(rnd, 0, "A", (0,))
        assert c.stats.max_load == 2

    def test_cap_enforced_before_delivery(self):
        """Regression: a cap violation must not mutate server fragments."""
        c = Cluster(2, load_cap=2)
        c.servers[0].put("A", fragment_of([(99,)], 1))
        with pytest.raises(LoadExceededError):
            with c.round("r") as rnd:
                for _ in range(3):
                    send_row(rnd, 0, "A", (0,))
                send_row(rnd, 1, "B", (1,))
        # Nothing was delivered anywhere — not even to the within-cap server.
        assert list(c.servers[0].get("A")) == [(99,)]
        assert list(c.servers[1].get("B")) == []

    def test_rejected_round_recorded_but_not_aggregated(self):
        """Regression: the violating round's stats stay inspectable."""
        c = Cluster(2, load_cap=2)
        with pytest.raises(LoadExceededError):
            with c.round("over") as rnd:
                for _ in range(5):
                    send_row(rnd, 0, "A", (0,))
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
                    send_row(rnd, 0, "A", (0,))
        with c.round("ok") as rnd:
            send_row(rnd, 0, "A", (1,))
            send_row(rnd, 1, "A", (2,))
        assert list(c.servers[0].get("A")) == [(1,)]
        assert c.stats.max_load == 1
        assert c.stats.num_rounds == 1

    def test_free_round_ignores_cap(self):
        c = Cluster(2, load_cap=1)
        with c.free_round("place") as rnd:
            for _ in range(5):
                send_row(rnd, 0, "A", (0,))
        assert list(c.servers[0].get("A")) == [(0,)] * 5


class TestExceptionSafety:
    def test_exception_in_round_releases_cluster(self):
        """Regression: an exception inside `with round(...)` used to leave
        _in_round=True forever ("rounds cannot be nested")."""
        c = Cluster(2)
        with pytest.raises(RuntimeError):
            with c.round("doomed") as rnd:
                send_row(rnd, 0, "A", (1,))
                raise RuntimeError("algorithm bug")
        # The cluster must accept a new round immediately.
        with c.round("next") as rnd:
            send_row(rnd, 1, "A", (2,))
        assert list(c.servers[1].get("A")) == [(2,)]

    def test_aborted_round_delivers_nothing(self):
        c = Cluster(2)
        with pytest.raises(RuntimeError):
            with c.round("doomed") as rnd:
                send_row(rnd, 0, "A", (1,))
                raise RuntimeError
        assert list(c.servers[0].get("A")) == []
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
            send_row(rnd, 0, "A", (1,))

    def test_send_error_aborts_cleanly(self):
        c = Cluster(2)
        with pytest.raises(ClusterError):
            with c.round("r") as rnd:
                send_row(rnd, 5, "A", (1,))
        with c.round("again") as rnd:
            send_row(rnd, 0, "A", (1,))
        assert list(c.servers[0].get("A")) == [(1,)]

    def test_exception_in_free_round_releases_cluster(self):
        c = Cluster(2)
        with pytest.raises(RuntimeError):
            with c.free_round("place"):
                raise RuntimeError
        with c.free_round("place2") as rnd:
            send_row(rnd, 0, "A", (1,))
        assert list(c.servers[0].get("A")) == [(1,)]


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


def _load(cluster, label, loads):
    """One round on ``cluster`` in which server i receives ``loads[i]`` rows."""
    with cluster.round(label) as rnd:
        for sid, n in enumerate(loads):
            for j in range(n):
                send_row(rnd, sid, "X", (j,))


def _abort(cluster, times):
    """Abort ``times`` rounds of ``cluster`` by raising inside them."""
    for _ in range(times):
        with pytest.raises(RuntimeError):
            with cluster.round("doomed"):
                raise RuntimeError("boom")


class TestCombineParallel:
    """Pools side by side on one cluster: their k-th rounds are one round."""

    def test_parallel_subclusters(self):
        c = Cluster(5)
        rounds = {0: [("x", [5, 1])], 1: [("y", [2, 2, 2]), ("y2", [1, 1, 1])]}

        def run(i, pool):
            for label, loads in rounds[i]:
                _load(pool, label, loads)
            return [server.sid for server in pool.servers]

        assert c.side_by_side([2, 3], 0, run) == [[0, 1], [2, 3, 4]]
        assert c.stats.num_rounds == 2
        assert c.stats.max_load == 5
        assert [rd.label for rd in c.stats.rounds] == ["x+y", "y2"]
        assert c.stats.rounds[0].received == [5, 1, 2, 2, 2]
        # The shallower pool idles in the second round: its servers read 0.
        assert c.stats.rounds[1].received == [0, 0, 1, 1, 1]
        assert c.stats.rounds[0].total == 6 + 6
        assert c.stats.rounds[1].total == 3

    def test_empty(self):
        c = Cluster(4)
        assert c.side_by_side([], 0, lambda i, pool: i) == []
        assert c.stats.num_rounds == 0 and c.stats.rounds == []

    def test_labels_deduplicated(self):
        c = Cluster(3)
        labels = ["shuffle", "shuffle", "probe"]
        c.side_by_side([1, 1, 1], 0, lambda i, pool: _load(pool, labels[i], [i + 1]))
        assert c.stats.rounds[0].label == "shuffle+probe"
        assert c.stats.rounds[0].received == [1, 2, 3]

    def test_undelivered_subrounds_excluded(self):
        """Cap-rejected pool rounds moved nothing and must not misalign."""
        c = Cluster(4, load_cap=8)

        def run(i, pool):
            if i == 0:
                with pytest.raises(LoadExceededError):
                    _load(pool, "bad", [9, 0])
                _load(pool, "good", [1, 1])
            else:
                _load(pool, "other", [2, 2])

        c.side_by_side([2, 2], 0, run)
        assert c.stats.num_rounds == 1
        assert c.stats.rounds[0].label == "good+other"
        assert c.stats.max_load == 2
        assert c.stats.total_communication == 6

    def test_aborted_counts_summed(self):
        c = Cluster(4)
        c.side_by_side([2, 2], 0, lambda i, pool: _abort(pool, 2 - i))
        assert c.stats.aborted == 3

    def test_oversubscribed_pools_take_servers_past_p(self):
        c = Cluster(2)
        sids = c.side_by_side(
            [1, 1, 1], 0, lambda i, pool: (_load(pool, "r", [i + 1]), pool.servers[0].sid)[1]
        )
        assert sids == [0, 1, 2]
        assert c.stats.p == 2 and len(c.servers) == 2
        assert c.stats.rounds[0].received == [1, 2, 3]

    def test_pool_rounds_share_an_ordinal_and_hash_with_their_seed(self):
        c = Cluster(4, seed=3)
        _load(c, "first", [1, 0, 0, 0])
        seen = []

        def run(i, pool):
            for label in ("a", "b")[: i + 1]:
                with pool.round(label) as rnd:
                    seen.append((i, rnd.ordinal))
            return pool.hash_function(0).salt

        salts = c.side_by_side([2, 2], 9, run)
        assert seen == [(0, 1), (1, 1), (1, 2)]
        assert salts == [Cluster(1, seed=9).hash_function(0).salt] * 2
        with c.round("after") as rnd:
            assert rnd.ordinal == 3

    def test_a_pool_drops_what_it_left_on_its_servers(self):
        c = Cluster(4)
        c.side_by_side([2], 0, lambda i, pool: pool.scatter(Relation("S", ["x"], [(1,)])))
        assert c.fragment_sizes("S") == [0, 0, 0, 0]
        with c.step(1) as step:
            step.scatter(Relation("S", ["x"], [(1,)]))
        assert c.fragment_sizes("S") == [0, 0, 0, 0]


class TestCombineSequential:
    """Steps one after another on one cluster: rounds concatenate."""

    def test_rounds_concatenate(self):
        c = Cluster(4)
        with c.step(1) as step:
            _load(step, "x", [5, 1, 0, 0])
        with c.step(2) as step:
            _load(step, "y", [2, 2, 2, 2])
        assert c.stats.num_rounds == 2
        assert c.stats.max_load == 5
        assert c.stats.total_communication == 6 + 8

    def test_aborted_counts_summed(self):
        c = Cluster(4)
        with c.step(1) as step:
            _abort(step, 1)
        with c.step(2) as step:
            _abort(step, 2)
        assert c.stats.aborted == 3

    def test_undelivered_rounds_stay_inspectable(self):
        c = Cluster(2, load_cap=8)
        with c.step(1) as step:
            with pytest.raises(LoadExceededError):
                _load(step, "bad", [9, 0])
        with c.step(2) as step:
            _load(step, "ok", [1, 1])
        assert len(c.stats.rounds) == 2
        assert c.stats.num_rounds == 1
        assert c.stats.max_load == 1


class TestFreeRoundAccounting:
    def test_free_round_records_zero_loads(self):
        c = Cluster(3)
        with c.free_round("place") as rnd:
            for sid in range(3):
                send_row(rnd, sid, "A", (sid,))
        assert c.stats.rounds[0].received == [0, 0, 0]
        assert c.stats.rounds[0].delivered

    def test_free_round_not_counted_as_round(self):
        c = Cluster(2)
        with c.free_round("place") as rnd:
            send_row(rnd, 0, "A", (1,))
        with c.round("work") as rnd:
            send_row(rnd, 1, "A", (2,))
        assert c.stats.num_rounds == 1
        assert c.stats.max_load == 1
        assert c.stats.total_communication == 1

    def test_free_round_custom_units_uncharged(self):
        c = Cluster(2)
        with c.free_round("place") as rnd:
            send_row(rnd, 0, "A", (1, 2, 3), units=3)
        assert c.stats.max_load == 0
        assert list(c.servers[0].get("A")) == [(1, 2, 3)]


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
                rnd.send_columns(0, "A", [np.array([1, 2, 3])])
            assert list(c.servers[0].get("A")) == [(1,), (2,), (3,)]
            assert c.stats.max_load == 3
            assert c.stats.rounds[0].delivered

    @pytest.mark.parametrize("kernels", [True, False])
    def test_cap_plus_one_raises(self, kernels):
        with _rung(kernels):
            c = Cluster(2, load_cap=3)
            with pytest.raises(LoadExceededError) as exc_info:
                with c.round("r") as rnd:
                    rnd.send_columns(0, "A", [np.array([1, 2, 3, 4])])
            assert exc_info.value.load == 4 and exc_info.value.cap == 3
            assert list(c.servers[0].get("A")) == []
            assert not c.stats.rounds[0].delivered

    def test_negative_units_rejected(self):
        """Regression: units=-5 silently offset other senders' units and
        could mask a cap violation (received=[-2, 0] from 4 sends)."""
        c = Cluster(2, load_cap=2)
        with pytest.raises(ClusterError, match="non-negative"):
            with c.round("r") as rnd:
                rnd.send_columns(0, "A", [np.array([1])], units=-5)

    def test_zero_units_still_allowed(self):
        c = Cluster(2)
        with c.round("r") as rnd:
            rnd.send_columns(0, "A", [np.array([1])], units=0)
        assert c.stats.max_load == 0
        assert list(c.servers[0].get("A")) == [(1,)]

    def test_units_charge_every_row(self):
        c = Cluster(2)
        with c.round("r") as rnd:
            rnd.send_columns(0, "A", [np.array([1, 2, 3])], units=4)
        assert c.stats.rounds[0].received == [12, 0]


class TestBlockArity:
    """Regression: a 2-column and then a 3-column block to one fragment
    charged [3, 0] and delivered [(1, 3), (2, 4), (5, 6, 7)], whose columns
    lost the 7 — nothing raised."""

    def test_a_block_of_another_arity_aborts_the_round(self):
        c = Cluster(2)
        with pytest.raises(ClusterError, match="3 columns for a fragment of 2"):
            with c.round("r") as rnd:
                rnd.send_columns(0, "f", [np.array([1, 2]), np.array([3, 4])])
                rnd.send_columns(0, "f", [np.array([5]), np.array([6]), np.array([7])])
        assert c.stats.aborted == 1 and c.stats.rounds == []
        assert "f" not in c.servers[0].storage

    def test_a_block_must_fit_what_the_destination_holds(self):
        c = Cluster(1)
        c.servers[0].put("f", fragment_of([(1, 2)], 2))
        with pytest.raises(ClusterError, match="1 columns for a fragment of 2"):
            with c.round("r") as rnd:
                rnd.send_columns(0, "f", [np.array([3])])
        assert list(c.servers[0].get("f")) == [(1, 2)]


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
                    send_row(rnd, 0, "A", (1,))
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
            send_row(rnd, 0, "A", (1,))
        with pytest.raises(LoadExceededError):
            with c.round("shuffle") as rnd:
                for _ in range(5):
                    send_row(rnd, 0, "A", (0,))
        assert c.stats.load_of("shuffle") == 1

    def test_load_of_only_rejected_rounds_raises(self):
        c = Cluster(2, load_cap=2)
        with pytest.raises(LoadExceededError):
            with c.round("over") as rnd:
                for _ in range(5):
                    send_row(rnd, 0, "A", (0,))
        with pytest.raises(KeyError):
            c.stats.load_of("over")
