"""Cost accounting for MPC runs.

The tutorial measures exactly two quantities (slide 20):

- ``L`` — the maximum communication load of any server in any round
  (tuples *received* per server per round);
- ``r`` — the number of rounds.

We additionally track total communication ``C = Σ loads`` (used in the
matrix-multiplication section, where ``C = p · r · L`` up to balance) and
the per-round load distribution, so experiments can report realized skew.

Lifecycle bookkeeping
---------------------

A :class:`RoundStats` entry is recorded for every round that reached the
barrier, including one rejected by the load cap: such an entry carries
``delivered=False`` and is *excluded* from the ``L``/``r``/``C``
aggregates (nothing was communicated) while staying inspectable in
``rounds``. Rounds aborted by an exception inside the ``with`` block
never reach the barrier; they only bump :attr:`RunStats.aborted`.

When the owning cluster was created with ``audit=True``, the
:attr:`RunStats.audit` field holds the live
:class:`~repro.mpc.audit.AuditReport` of invariant checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpc.audit import AuditReport
    from repro.mpc.faults import FaultStats


@dataclass
class RoundStats:
    """Loads of one communication round.

    ``delivered`` is ``False`` for a round rejected by the load cap at
    the barrier: its attempted loads are recorded for post-mortem
    inspection but nothing actually moved.
    """

    label: str
    received: list[int]
    delivered: bool = True

    @property
    def max_load(self) -> int:
        """L of this round: maximum tuples received by any server."""
        return max(self.received) if self.received else 0

    @property
    def total(self) -> int:
        """Total tuples communicated in this round."""
        return sum(self.received)

    @property
    def mean_load(self) -> float:
        return self.total / len(self.received) if self.received else 0.0

    @property
    def imbalance(self) -> float:
        """max / mean load — 1.0 means perfectly balanced."""
        mean = self.mean_load
        return self.max_load / mean if mean else 0.0

    def __repr__(self) -> str:
        flag = "" if self.delivered else ", undelivered"
        return (
            f"RoundStats({self.label!r}, L={self.max_load}, "
            f"total={self.total}, imbalance={self.imbalance:.2f}{flag})"
        )


class CounterStats:
    """``add``/``snapshot``/``delta`` for a stats dataclass.

    Each walks the subclass's additive ``_COUNTERS``, so a new counter
    cannot be silently dropped from any of them.
    """

    _COUNTERS: tuple[str, ...] = ()

    def _blank(self):
        """A zeroed instance carrying this one's non-additive labels."""
        return type(self)()

    def add(self, other: Any) -> None:
        """Fold in ``other``'s counters (one it lacks counts as zero)."""
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name, 0))

    def delta(self, since):
        """Counters accumulated after ``since`` was snapshotted."""
        diff = self._blank()
        for name in self._COUNTERS:
            setattr(diff, name, getattr(self, name) - getattr(since, name))
        return diff

    def snapshot(self):
        """A copy of the current counters (for a later :meth:`delta`)."""
        return self.delta(self._blank())


@dataclass
class ExecStats(CounterStats):
    """Execution-backend accounting, summed over a run's dispatches.

    Counters cover only work dispatched through the backend layer
    (:meth:`repro.mpc.cluster.Cluster.compute`); purely inline loops
    that never cross it cost nothing and appear nowhere. ``worker_seconds``
    is the summed in-worker wall time of all chunks — with w workers
    running concurrently it can legitimately exceed the coordinator's
    elapsed time, which is exactly the parallelism being measured.
    """

    backend: str = "inline"
    workers: int = 1
    dispatches: int = 0  # local steps (Cluster.compute) routed through the backend
    chunks: int = 0  # worker jobs (== dispatches for inline)
    items: int = 0  # payloads processed: a local step's chunks of servers
    shm_bytes_out: int = 0  # segment bytes coordinator -> workers
    shm_bytes_in: int = 0  # segment bytes workers -> coordinator
    pickle_bytes_out: int = 0  # frame bytes on the pipes (in-band blocks included)
    pickle_bytes_in: int = 0  # the same, workers -> coordinator
    worker_seconds: float = 0.0
    fallbacks: int = 0  # process dispatches run inline (unpicklable payload)
    queue_messages: int = 0  # frames written (batching collapses these)
    # Always 0: row lists ride the frame and no block is kept resident in
    # a worker, so there is no fallback and no resident hit or miss to
    # count. Kept because the frozen perfbench/workloads.py reads them by
    # name; they leave with their perfbench metrics (ROADMAP item 6).
    resident_hits: int = 0
    resident_misses: int = 0
    fallback_dispatches: int = 0

    _COUNTERS = (
        "dispatches", "chunks", "items",
        "shm_bytes_out", "shm_bytes_in",
        "pickle_bytes_out", "pickle_bytes_in",
        "worker_seconds", "fallbacks", "queue_messages",
        "resident_hits", "resident_misses", "fallback_dispatches",
    )

    @property
    def dispatch_bytes_out(self) -> int:
        """Total bytes a dispatch shipped coordinator -> workers."""
        return self.shm_bytes_out + self.pickle_bytes_out

    @property
    def bytes_per_message(self) -> "float | None":
        """Mean outbound bytes per queue message (bytes-per-round proxy).

        ``None`` when no queue message was ever sent (the inline backend,
        or a process run that never dispatched): a mean over zero
        messages is undefined, and the former ``0.0`` read as "messages
        were free" in traces and reports.
        """
        if not self.queue_messages:
            return None
        return self.dispatch_bytes_out / self.queue_messages

    def _blank(self) -> "ExecStats":
        return ExecStats(backend=self.backend, workers=self.workers)


@dataclass
class MemoStats(CounterStats):
    """Memoization accounting of a run.

    ``hash_ops`` counts rows x dimensions a bucket kernel actually hashed
    (one dimension per hash route, one per bound grid dimension), on the
    replay and the per-server path alike; a route or grid dimension with
    one possible destination hashes nothing and adds 0, and an ``object``
    key counts per row. ``hash_ops_saved`` counts the ops a partition
    cache hit skipped; ``bytes_saved`` the bytes of the key columns it
    did not hash again.
    """

    partition_hits: int = 0
    partition_misses: int = 0
    view_hits: int = 0
    view_misses: int = 0
    hash_ops: int = 0
    hash_ops_saved: int = 0
    bytes_saved: int = 0

    _COUNTERS = (
        "partition_hits", "partition_misses",
        "view_hits", "view_misses",
        "hash_ops", "hash_ops_saved", "bytes_saved",
    )

    @property
    def any_activity(self) -> bool:
        return any(getattr(self, name) for name in self._COUNTERS)

    def summary(self) -> str:
        """One-line counter summary (appended to trace()/summary())."""
        return (
            f"memo: partition {self.partition_hits}h/{self.partition_misses}m"
            f" views {self.view_hits}h/{self.view_misses}m"
            f" hash_ops={self.hash_ops} saved={self.hash_ops_saved}"
            f" bytes_saved={self.bytes_saved}"
        )


@dataclass
class RunStats:
    """Accumulated cost of a full MPC algorithm execution."""

    p: int
    rounds: list[RoundStats] = field(default_factory=list)
    aborted: int = 0
    audit: "AuditReport | None" = None
    faults: "FaultStats | None" = None
    exec: "ExecStats | None" = None
    memo: MemoStats = field(default_factory=MemoStats)
    # Sizes of SkewHC's side-by-side server pools, one per residual (0
    # for a residual that needed no server); ``None`` = no residual pools.
    pools: "list[int] | None" = None

    @property
    def num_rounds(self) -> int:
        """r: rounds that actually communicated at least one tuple."""
        return sum(1 for r in self.rounds if r.delivered and r.total > 0)

    @property
    def max_load(self) -> int:
        """L: the max per-server per-round load over the whole run."""
        return max((r.max_load for r in self.rounds if r.delivered), default=0)

    @property
    def total_communication(self) -> int:
        """C: total tuples communicated over all rounds and servers."""
        return sum(r.total for r in self.rounds if r.delivered)

    def load_of(self, label: str) -> int:
        """Max load of the *delivered* round(s) with the given label.

        Cap-rejected rounds are excluded, consistent with every other
        aggregate: their attempted loads never moved a tuple, so counting
        them would report a load the algorithm did not realize.
        """
        loads = [
            r.max_load for r in self.rounds if r.label == label and r.delivered
        ]
        if not loads:
            raise KeyError(f"no delivered round labelled {label!r}")
        return max(loads)

    def summary(self) -> str:
        """One-line human-readable cost summary."""
        text = (
            f"p={self.p} r={self.num_rounds} L={self.max_load} "
            f"C={self.total_communication}"
        )
        if self.aborted:
            text += f" aborted={self.aborted}"
        rejected = sum(1 for r in self.rounds if not r.delivered)
        if rejected:
            text += f" rejected={rejected}"
        if self.faults is not None and self.faults.injected:
            text += f" faults={self.faults.injected}"
            if self.faults.unrecovered:
                text += f" unrecovered={self.faults.unrecovered}"
        if self.exec is not None and self.exec.backend != "inline":
            text += (
                f" backend={self.exec.backend}x{self.exec.workers}"
                f" chunks={self.exec.chunks}"
            )
            # None (no queue message ever sent) is reported as n/a, never
            # as a free-looking 0.
            bpm = self.exec.bytes_per_message
            text += f" bytes/msg={'n/a' if bpm is None else format(bpm, '.0f')}"
        if self.memo is not None:
            hits = self.memo.partition_hits + self.memo.view_hits
            if hits:
                text += f" memo_hits={hits}"
        return text

    def __repr__(self) -> str:
        return f"RunStats({self.summary()})"
