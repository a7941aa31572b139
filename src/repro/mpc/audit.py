"""Conservation-invariant auditing for the MPC simulator.

Every figure in the reproduction rests on the cluster's load accounting:
``L`` (max per-server per-round load) and ``r`` (rounds) are exactly what
:class:`~repro.mpc.stats.RunStats` measures. This module makes that
accounting *self-verifying*: a :class:`ClusterAuditor` attached to a
cluster re-checks, at every round barrier, that

- **delivery** — each destination fragment grew by exactly the number of
  tuples buffered for it (no tuple lost or duplicated in transit);
- **conservation** — the total fragment growth across the cluster equals
  the total number of tuples sent in the round;
- **charged-units** — a charged round's recorded loads equal the units
  accumulated by ``send``;
- **free-uncharged** — a free round records zero load everywhere and
  leaves ``C`` unchanged;
- **c-delta** — the run's total communication ``C`` advanced by exactly
  the round's total.

Enable it per cluster with ``Cluster(p, audit=True)`` or for a whole
code region (including clusters created deep inside algorithms) with the
:func:`audited` context manager::

    with audited():
        run = parallel_hash_join(r, s, p=8)   # every round is checked
    print(run.stats.audit.summary())

A violation raises :class:`~repro.errors.AuditError` (set
``cluster.auditor.strict = False`` to record violations without
raising). The report is surfaced on :attr:`RunStats.audit
<repro.mpc.stats.RunStats>` and in :func:`repro.mpc.trace.trace`.

A query runs every step on one cluster, pools included
(:meth:`~repro.mpc.cluster.Cluster.side_by_side`), so one report covers
all its rounds: each is checked at its own barrier, on the servers it
ran on.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import AuditError
from repro.mpc.stats import RoundStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpc.cluster import Cluster, RoundContext

__all__ = [
    "AuditReport",
    "AuditViolation",
    "ClusterAuditor",
    "audit_enabled_by_default",
    "audited",
]

_default_audit: ContextVar[bool] = ContextVar("repro_audit_default", default=False)


def audit_enabled_by_default() -> bool:
    """Whether clusters created right now default to auditing themselves."""
    return _default_audit.get()


@contextmanager
def audited(enabled: bool = True) -> Iterator[None]:
    """Audit every :class:`~repro.mpc.cluster.Cluster` created in the block.

    Algorithms build their clusters internally, so this is the way to run
    an existing algorithm end-to-end under invariant checks without
    threading a flag through every call::

        with audited():
            run = skew_join(r, s, p=16)

    Nests and restores the previous default on exit (exception-safe).
    The default is context-local (a :class:`contextvars.ContextVar`):
    other threads' clusters are unaffected, and :mod:`repro.service`
    carries the submitter's setting to the worker that runs its job.
    """
    token = _default_audit.set(enabled)
    try:
        yield
    finally:
        _default_audit.reset(token)


@dataclass
class AuditViolation:
    """One failed invariant check."""

    round_label: str
    check: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.round_label}] {self.check}: {self.detail}"


@dataclass
class AuditReport:
    """Accumulated result of a cluster's audits."""

    rounds_audited: int = 0
    checks_run: int = 0
    violations: list[AuditViolation] = field(default_factory=list)
    aborted_rounds: list[str] = field(default_factory=list)
    rejected_rounds: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every check so far passed."""
        return not self.violations

    def summary(self) -> str:
        """One-line human-readable audit summary."""
        text = (
            f"audit: {self.rounds_audited} rounds, {self.checks_run} checks, "
            f"{len(self.violations)} violations"
        )
        if self.aborted_rounds:
            text += f", {len(self.aborted_rounds)} aborted"
        if self.rejected_rounds:
            text += f", {len(self.rejected_rounds)} rejected"
        return text


class ClusterAuditor:
    """Re-checks conservation invariants at every round barrier.

    Attached by ``Cluster(p, audit=True)``; the cluster calls
    :meth:`snapshot` immediately before delivery and :meth:`after_delivery`
    immediately after, so the checks observe exactly the barrier's effect
    (local computation inside the round block is free to mutate fragments
    and is not — cannot be — audited).
    """

    def __init__(self, cluster: "Cluster", strict: bool = True) -> None:
        self.cluster = cluster
        self.strict = strict
        self.report = AuditReport()

    # ------------------------------------------------------------- hooks

    def snapshot(self) -> list[dict[str, int]]:
        """Per-server fragment sizes (every server of the cluster, those a
        layout added past p - 1 too), taken at the barrier pre-delivery."""
        return [
            {name: len(rows) for name, rows in server.storage.items()}
            for server in self.cluster._all_servers
        ]

    def after_delivery(
        self,
        rnd: "RoundContext",
        stats: RoundStats,
        before: list[dict[str, int]],
        c_before: int,
    ) -> None:
        """Audit one delivered round against the pre-delivery snapshot; its
        destinations are servers of ``rnd``'s view (a step or pool)."""
        self.report.rounds_audited += 1
        label = rnd.label
        view = rnd._cluster
        servers = view.servers

        total_sent = 0
        for dest, fragments in enumerate(rnd._buffers):
            storage, sizes = servers[dest].storage, before[view._offset + dest]
            for fragment, rows in fragments.items():
                total_sent += len(rows)
                grew = len(storage.get(fragment, ())) - sizes.get(fragment, 0)
                self._check(
                    "delivery",
                    grew == len(rows),
                    f"server {dest} fragment {fragment!r} grew by {grew}, "
                    f"expected {len(rows)}",
                    label,
                )

        total_after = sum(
            len(rows) for server in self.cluster._all_servers
            for rows in server.storage.values()
        )
        total_before = sum(sum(sizes.values()) for sizes in before)
        self._check(
            "conservation",
            total_after - total_before == total_sent,
            f"cluster grew by {total_after - total_before} tuples, "
            f"{total_sent} were sent",
            label,
        )

        if rnd.charged:
            self._check(
                "charged-units",
                stats.received == rnd._units,
                f"recorded loads {stats.received} differ from sent units "
                f"{rnd._units}",
                label,
            )
        else:
            self._check(
                "free-uncharged",
                not any(stats.received),
                f"free round recorded nonzero loads {stats.received}",
                label,
            )

        c_delta = view._communication() - c_before
        self._check(
            "c-delta",
            c_delta == stats.total,
            f"C advanced by {c_delta}, round total is {stats.total}",
            label,
        )

    def record_abort(self, rnd: "RoundContext") -> None:
        """Note a round abandoned by an exception inside its block."""
        self.report.aborted_rounds.append(rnd.label)

    def record_rejected(self, rnd: "RoundContext", stats: RoundStats) -> None:
        """Note a round rejected by the load cap at the barrier."""
        self.report.rejected_rounds.append(rnd.label)

    # ----------------------------------------------------------- internal

    def _check(self, check: str, ok: bool, detail: str, label: str) -> None:
        self.report.checks_run += 1
        if ok:
            return
        self.report.violations.append(AuditViolation(label, check, detail))
        if self.strict:
            raise AuditError(check, f"round {label!r}: {detail}")

