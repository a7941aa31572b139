"""Tests for the conservation-invariant audit layer."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import AuditError, LoadExceededError
from repro.errors import ClusterError
from repro.mpc.audit import audit_enabled_by_default, audited
from repro.mpc.cluster import Cluster
from repro.mpc.server import ChunkedColumns
from repro.testing.scalar_reference import send_row


class _LossyFragment(ChunkedColumns):
    """A fragment that silently drops the first row of every delivery."""

    def extend(self, other):
        super().extend(ChunkedColumns([[column[1:]] for column in other.arrays()]))


class _DuplicatingFragment(ChunkedColumns):
    """A fragment that duplicates every delivered row."""

    def extend(self, other):
        super().extend(other)
        super().extend(other)


def _holding_one_row(kind):
    """A non-empty ``kind`` fragment (an empty one is replaced, not extended)."""
    return kind([[np.array([0])]])


class TestClusterAudit:
    def test_clean_round_passes(self):
        c = Cluster(2, audit=True)
        with c.round("r") as rnd:
            send_row(rnd, 0, "A", (1,))
            send_row(rnd, 1, "A", (2,))
        report = c.stats.audit
        assert report is not None
        assert report.ok
        assert report.rounds_audited == 1
        assert report.checks_run > 0

    def test_audit_off_by_default(self):
        c = Cluster(2)
        assert c.auditor is None
        assert c.stats.audit is None

    def test_free_round_audited(self):
        c = Cluster(2, audit=True)
        with c.free_round("place") as rnd:
            send_row(rnd, 0, "A", (1,))
        assert c.stats.audit.ok

    def test_dropped_tuple_detected(self):
        """A deliberately broken send — a dropped tuple — must be caught."""
        c = Cluster(2, audit=True)
        c.servers[0].storage["A"] = _holding_one_row(_LossyFragment)
        with pytest.raises(AuditError) as exc_info:
            with c.round("r") as rnd:
                send_row(rnd, 0, "A", (1,))
                send_row(rnd, 0, "A", (2,))
        assert exc_info.value.check == "delivery"
        assert not c.stats.audit.ok
        assert c.stats.audit.violations[0].check == "delivery"
        # The cluster is still usable after the failed audit.
        with c.round("again") as rnd:
            send_row(rnd, 1, "B", (3,))
        assert list(c.servers[1].get("B")) == [(3,)]

    def test_duplicated_tuple_detected(self):
        c = Cluster(2, audit=True)
        c.servers[1].storage["A"] = _holding_one_row(_DuplicatingFragment)
        with pytest.raises(AuditError) as exc_info:
            with c.round("r") as rnd:
                send_row(rnd, 1, "A", (1,))
        assert exc_info.value.check == "delivery"

    def test_non_strict_records_without_raising(self):
        c = Cluster(2, audit=True)
        c.auditor.strict = False
        c.servers[0].storage["A"] = _holding_one_row(_LossyFragment)
        with c.round("r") as rnd:
            send_row(rnd, 0, "A", (1,))
            send_row(rnd, 0, "A", (2,))
        report = c.stats.audit
        assert not report.ok
        # delivery + conservation both tripped; the remaining checks ran.
        checks = {v.check for v in report.violations}
        assert "delivery" in checks and "conservation" in checks
        assert "0 violations" not in report.summary()

    def test_abort_recorded(self):
        c = Cluster(2, audit=True)
        with pytest.raises(RuntimeError):
            with c.round("doomed"):
                raise RuntimeError
        assert c.stats.audit.aborted_rounds == ["doomed"]
        assert "1 aborted" in c.stats.audit.summary()

    def test_rejected_recorded(self):
        c = Cluster(2, audit=True, load_cap=1)
        with pytest.raises(LoadExceededError):
            with c.round("over") as rnd:
                send_row(rnd, 0, "A", (1,))
                send_row(rnd, 0, "A", (2,))
        assert c.stats.audit.rejected_rounds == ["over"]
        assert "1 rejected" in c.stats.audit.summary()

    def test_audit_error_attributes(self):
        err = AuditError("delivery", "lost a tuple")
        assert err.check == "delivery"
        assert err.detail == "lost a tuple"
        assert "delivery" in str(err)


class TestAuditedContext:
    def test_sets_and_restores_default(self):
        assert not audit_enabled_by_default()
        with audited():
            assert audit_enabled_by_default()
            assert Cluster(2).auditor is not None
        assert not audit_enabled_by_default()
        assert Cluster(2).auditor is None

    def test_explicit_flag_wins_over_ambient(self):
        with audited():
            assert Cluster(2, audit=False).auditor is None
        assert Cluster(2, audit=True).auditor is not None

    def test_nesting(self):
        with audited():
            with audited(False):
                assert not audit_enabled_by_default()
            assert audit_enabled_by_default()

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with audited():
                raise RuntimeError
        assert not audit_enabled_by_default()


class TestAuditedIsContextLocal:
    """``audited()`` reaches the clusters its own thread builds, no others."""

    def test_another_threads_cluster_has_no_auditor(self):
        step = threading.Barrier(2, timeout=10)

        def inside():
            with audited():
                step.wait()  # the other thread builds its cluster now
                step.wait()
                return Cluster(2).auditor is not None

        def outside():
            step.wait()
            built = Cluster(2)
            step.wait()
            return built.auditor is not None

        with ThreadPoolExecutor(2) as pool:
            a, b = pool.submit(inside), pool.submit(outside)
            assert a.result(timeout=30) is True
            assert b.result(timeout=30) is False

    def test_overlapping_blocks_restore_the_default(self):
        # A-enter, B-enter, A-exit, B-exit: a process-wide default would
        # be restored by B to the value A had set, and stay stuck on.
        step = threading.Barrier(2, timeout=10)

        def first():
            with audited():
                step.wait()  # A entered
                step.wait()  # B entered
            step.wait()      # A exited
            return audit_enabled_by_default()

        def second():
            step.wait()
            with audited():
                step.wait()
                step.wait()
                still_inside = audit_enabled_by_default()
            return still_inside, audit_enabled_by_default()

        with ThreadPoolExecutor(2) as pool:
            a, b = pool.submit(first), pool.submit(second)
            assert a.result(timeout=30) is False
            assert b.result(timeout=30) == (True, False)
        assert audit_enabled_by_default() is False
        assert Cluster(2).auditor is None


def _load(cluster, label, loads):
    """One round on ``cluster`` in which server i receives ``loads[i]`` rows."""
    with cluster.round(label) as rnd:
        for sid, n in enumerate(loads):
            for j in range(n):
                send_row(rnd, sid, "A", (j,))


class TestAuditReport:
    """One report covers every step and pool of the query's cluster."""

    def test_merged_none_when_empty(self):
        c = Cluster(4)
        c.side_by_side([2, 2], 0, lambda i, pool: _load(pool, "r", [1, 1]))
        assert c.stats.audit is None

    def test_merged_accumulates(self):
        c = Cluster(4, audit=True)

        def run(i, pool):
            _load(pool, "r", [1, 2])
            if i:
                _load(pool, "s", [1, 0])
                with pytest.raises(RuntimeError):
                    with pool.round("x"):
                        raise RuntimeError

        c.side_by_side([2, 2], 0, run)
        report = c.stats.audit
        assert report.rounds_audited == 3
        assert report.checks_run > 0
        assert report.aborted_rounds == ["x"]
        assert report.ok

    def test_combine_sequential_merges_reports(self):
        c = Cluster(2, audit=True)
        with c.step(1) as step:
            with step.round("a") as rnd:
                send_row(rnd, 0, "A", (1,))
        with c.step(2) as step:
            with step.round("b") as rnd:
                send_row(rnd, 1, "B", (2,))
        assert c.stats.audit is not None
        assert c.stats.audit.rounds_audited == 2

    def test_combine_without_audits_has_no_report(self):
        c = Cluster(2)
        with c.step(1) as step:
            _load(step, "a", [1, 1])
        c.side_by_side([1, 1], 0, lambda i, pool: _load(pool, "b", [1]))
        assert c.stats.audit is None


class TestVerifyPartition:
    """Pools are contiguous server ranges of the query's cluster."""

    def test_within_budget(self):
        c = Cluster(5, audit=True)
        sids = c.side_by_side([2, 3], 0, lambda i, pool: [s.sid for s in pool.servers])
        assert sids == [[0, 1], [2, 3, 4]]

    def test_non_positive_p_rejected(self):
        with pytest.raises(ClusterError):
            Cluster(4).side_by_side([2, 0], 0, lambda i, pool: None)


class TestVerifyCombined:
    """Each pool round is audited at its own barrier, on its own servers."""

    def test_sequential_ok(self):
        c = Cluster(2, audit=True)
        with c.step(1) as step:
            _load(step, "r0", [1, 2])
        with c.step(2) as step:
            _load(step, "r1", [3, 0])
        assert c.stats.total_communication == 6
        assert c.stats.audit.ok and c.stats.audit.rounds_audited == 2

    def test_parallel_ok(self):
        c = Cluster(4, audit=True)
        loads = [[[1, 2]], [[3, 0], [1, 1]]]

        def run(i, pool):
            for k, round_loads in enumerate(loads[i]):
                _load(pool, f"r{k}", round_loads)

        c.side_by_side([2, 2], 0, run)
        assert c.stats.num_rounds == 2
        assert c.stats.audit.ok and c.stats.audit.rounds_audited == 3

    def test_bad_c_detected(self):
        """A tuple lost on a pool's server is caught at that pool's barrier."""
        c = Cluster(4, audit=True)

        def run(i, pool):
            if i:
                pool.servers[1].storage["A"] = _holding_one_row(_LossyFragment)
            _load(pool, "r", [0, 2])

        with pytest.raises(AuditError) as exc_info:
            c.side_by_side([2, 2], 0, run)
        assert exc_info.value.check == "delivery"
        assert "server 1" in str(exc_info.value)

    def test_parallel_over_budget_rejected(self):
        """A pool round over the load cap is rejected; the others deliver."""
        c = Cluster(4, audit=True, load_cap=2)

        def run(i, pool):
            if i:
                with pytest.raises(LoadExceededError):
                    _load(pool, "over", [3, 0])
            else:
                _load(pool, "fine", [2, 2])

        c.side_by_side([2, 2], 0, run)
        assert c.stats.audit.rejected_rounds == ["over"]
        assert [rd.received for rd in c.stats.rounds] == [[2, 2, 0, 0]]
