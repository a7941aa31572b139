"""Tests for the conservation-invariant audit layer."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import AuditError, LoadExceededError
from repro.mpc.audit import (
    AuditReport,
    AuditViolation,
    audit_enabled_by_default,
    audited,
    verify_combined,
    verify_partition,
)
from repro.mpc.cluster import Cluster, combine_parallel, combine_sequential
from repro.mpc.server import ChunkedColumns
from repro.mpc.stats import RoundStats, RunStats
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


class TestAuditReport:
    def test_merged_none_when_empty(self):
        assert AuditReport.merged([]) is None

    def test_merged_accumulates(self):
        a = AuditReport(rounds_audited=2, checks_run=10)
        a.aborted_rounds.append("x")
        b = AuditReport(rounds_audited=3, checks_run=15)
        b.violations.append(AuditViolation("r", "delivery", "boom"))
        merged = AuditReport.merged([a, b])
        assert merged.rounds_audited == 5
        assert merged.checks_run == 25
        assert merged.aborted_rounds == ["x"]
        assert not merged.ok

    def test_combine_sequential_merges_reports(self):
        c1 = Cluster(2, audit=True)
        with c1.round("a") as rnd:
            send_row(rnd, 0, "A", (1,))
        c2 = Cluster(2, audit=True)
        with c2.round("b") as rnd:
            send_row(rnd, 1, "B", (2,))
        combined = combine_sequential(2, [c1.stats, c2.stats])
        assert combined.audit is not None
        assert combined.audit.rounds_audited == 2

    def test_combine_without_audits_has_no_report(self):
        a, b = RunStats(2), RunStats(2)
        assert combine_sequential(2, [a, b]).audit is None
        assert combine_parallel(4, [a, b]).audit is None


class TestVerifyPartition:
    def test_within_budget(self):
        verify_partition(5, [RunStats(2), RunStats(3)])

    def test_over_budget_rejected(self):
        with pytest.raises(AuditError) as exc_info:
            verify_partition(4, [RunStats(2), RunStats(3)])
        assert exc_info.value.check == "partition"

    def test_non_positive_p_rejected(self):
        with pytest.raises(AuditError):
            verify_partition(4, [RunStats(2), RunStats(0)])


class TestVerifyCombined:
    def _run(self, p, loads_per_round):
        run = RunStats(p)
        for i, loads in enumerate(loads_per_round):
            run.rounds.append(RoundStats(f"r{i}", loads))
        return run

    def test_sequential_ok(self):
        a = self._run(2, [[1, 2]])
        b = self._run(2, [[3, 0]])
        combined = combine_sequential(2, [a, b], audit=True)
        assert combined.total_communication == 6

    def test_parallel_ok(self):
        a = self._run(2, [[1, 2]])
        b = self._run(2, [[3, 0], [1, 1]])
        combined = combine_parallel(4, [a, b], audit=True)
        assert combined.num_rounds == 2

    def test_bad_c_detected(self):
        a = self._run(2, [[1, 2]])
        broken = RunStats(2)
        broken.rounds.append(RoundStats("r0", [1, 1]))  # C=2, parts claim 3
        with pytest.raises(AuditError) as exc_info:
            verify_combined(broken, [a], parallel=False)
        assert exc_info.value.check == "combine"

    def test_bad_depth_detected(self):
        a = self._run(2, [[1, 2], [1, 1]])
        shallow = combine_parallel(2, [self._run(2, [[1, 2]])])
        shallow.rounds[0].received = [1, 2, 1, 1]  # fix C, keep depth wrong
        with pytest.raises(AuditError):
            verify_combined(shallow, [a], parallel=True)

    def test_parallel_over_budget_rejected(self):
        a = self._run(3, [[1, 1, 1]])
        b = self._run(3, [[1, 1, 1]])
        with pytest.raises(AuditError):
            combine_parallel(4, [a, b], audit=True)
