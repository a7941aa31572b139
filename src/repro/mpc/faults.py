"""Deterministic fault injection and recovery for the MPC simulator.

The MPC model of the tutorial assumes ``p`` perfectly reliable
synchronous servers. Real shared-nothing clusters are not so polite:
servers crash mid-round, straggle on skewed partitions, and networks
drop or duplicate messages. This module stress-tests the simulator's
load/round guarantees under exactly those regimes while keeping every
run *reproducible*: a :class:`FaultPlan` is pure data, derived from a
seed, and the same plan injected into the same execution produces the
same faults, the same recovery actions, and the same
:class:`FaultStats` — on the kernels and on the per-row reference alike.

Fault model
-----------

Faults strike at the boundaries the simulator mediates:

- **crash** (:class:`CrashFault`) — server ``s`` fails at the barrier of
  round ``k`` (ordinals count every opened round, charged and free).
  Its volatile state is wiped; with recovery enabled it is restored from
  the latest barrier-entry checkpoint, logged deliveries are replayed,
  and the crashed round is re-executed from the senders' outboxes
  (speculative re-execution: the round's inputs are still buffered at
  the barrier).
- **straggler** (:class:`StragglerFault`) — server ``s`` is slow in
  round ``k``, modeled as extra per-server cost units recorded in the
  fault counters. Stragglers never change delivered data: a
  straggler-only plan leaves outputs byte-identical.
- **channel faults** (:class:`ChannelFault`) — the first ``count``
  messages buffered on a channel (destination server, fragment) in round
  ``k`` are dropped or duplicated in transit. With recovery the channel
  layer detects the loss (sequence numbers in a real system) and
  retransmits / de-duplicates at the same barrier; without recovery the
  corruption goes through and is tallied as ``unrecovered``.
- **scatter crash** — a server fails during initial data placement,
  losing the fragments scattered to it; recovery replays the scatter
  log (the model's inputs are durable and can always be re-read).

Recovery
--------

:class:`RecoveryPolicy` combines two mechanisms:

- **checkpoint/replay** — at the entry of every
  ``checkpoint_interval``-th barrier each server's fragment store is
  checkpointed; deliveries (and mid-run scatters) since the checkpoint
  are logged so a crashed server can be rolled forward. With the
  default ``checkpoint_interval=1`` the checkpoint is taken at the very
  barrier the crash strikes, so recovery is *exact for every
  algorithm*. Larger intervals trade checkpoint cost for replay cost
  and are exact for scatter/shuffle pipelines; local (in-block)
  computation between checkpoints is outside the log and cannot be
  replayed — the simulator cannot re-run one server's share of
  arbitrary Python code.
- **speculative re-execution** — the crashed server's current round is
  re-delivered from the senders' still-buffered outboxes, so the round
  completes with the correct result at a measured extra load.

Because recovery completes *within* the barrier, the conservation
invariants of :mod:`repro.mpc.audit` hold verbatim after replay: a
recovered run audits exactly like a fault-free one. Recovery overhead is
surfaced separately in :class:`FaultStats` (crashes injected, rounds
replayed, recovery load) on :attr:`RunStats.faults
<repro.mpc.stats.RunStats.faults>` and in :func:`repro.mpc.trace.trace`.

Usage
-----

Per cluster, or ambiently for algorithms that build clusters internally
(mirroring :func:`repro.mpc.audit.audited`)::

    plan = FaultPlan.random(seed=7, p=8)
    cluster = Cluster(8, faults=plan)            # explicit

    with faulty(plan):
        run = parallel_hash_join(r, s, p=8)      # ambient
    print(run.stats.faults.summary())

``python -m repro selftest --faults`` drives every algorithm entry point
under randomized plans and asserts oracle-identical outputs.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import FaultPlanError
from repro.mpc.server import ChunkedColumns
from repro.mpc.stats import CounterStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpc.cluster import Cluster, RoundContext

__all__ = [
    "ChannelFault",
    "CrashFault",
    "FaultController",
    "FaultPlan",
    "FaultStats",
    "RecoveryPolicy",
    "StragglerFault",
    "fault_plan_by_default",
    "faulty",
]


# ------------------------------------------------------------------ plan data


@dataclass(frozen=True)
class CrashFault:
    """Server ``server`` crashes at the barrier of round ``round``.

    ``server`` is mapped modulo the cluster's ``p`` at injection time so
    one plan applies to every cluster an algorithm builds (sub-clusters
    of SkewHC and the skew join are smaller than the top-level ``p``).
    """

    round: int
    server: int


@dataclass(frozen=True)
class StragglerFault:
    """Server ``server`` is slow in round ``round``: ``extra_units`` of
    additional cost, recorded in the fault counters (data unchanged)."""

    round: int
    server: int
    extra_units: int = 1


@dataclass(frozen=True)
class ChannelFault:
    """Drop or duplicate messages on one channel in one round.

    A channel is ``(destination server, fragment)``; ``fragment=None``
    targets every fragment buffered for the destination (applied in
    sorted fragment order, so injection is deterministic regardless of
    send order). The first ``count`` buffered tuples are affected.
    """

    round: int
    dest: int
    kind: str  # "drop" | "duplicate"
    fragment: str | None = None
    count: int = 1


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a faulty cluster repairs itself.

    ``checkpoint_interval`` — barrier-entry state checkpoints are taken
    every this-many rounds (1 = every barrier, exact recovery for every
    algorithm; larger intervals are exact for scatter/shuffle pipelines
    and cheaper to maintain). ``enabled=False`` injects the faults but
    performs no repair — corruption is tallied as ``unrecovered``.
    """

    enabled: bool = True
    checkpoint_interval: int = 1

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise FaultPlanError("checkpoint_interval must be at least 1")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults (pure data, seed-reproducible).

    Round numbers are *ordinals*: the n-th round a cluster opens
    (charged or free) has ordinal n-1. Faults scheduled at ordinals a
    run never reaches are silently unused, so one plan can be applied to
    algorithms with different round structures.
    """

    crashes: tuple[CrashFault, ...] = ()
    stragglers: tuple[StragglerFault, ...] = ()
    channel_faults: tuple[ChannelFault, ...] = ()
    scatter_crashes: tuple[int, ...] = ()
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    seed: int | None = None  # provenance when built by :meth:`random`

    def __post_init__(self) -> None:
        for crash in self.crashes:
            if crash.round < 0:
                raise FaultPlanError(f"crash round {crash.round} is negative")
        for straggler in self.stragglers:
            if straggler.round < 0:
                raise FaultPlanError("straggler round is negative")
            if straggler.extra_units < 0:
                raise FaultPlanError("straggler extra_units is negative")
        for fault in self.channel_faults:
            if fault.round < 0:
                raise FaultPlanError("channel fault round is negative")
            if fault.kind not in ("drop", "duplicate"):
                raise FaultPlanError(
                    f"channel fault kind must be 'drop' or 'duplicate', "
                    f"got {fault.kind!r}"
                )
            if fault.count < 1:
                raise FaultPlanError("channel fault count must be at least 1")

    @property
    def empty(self) -> bool:
        """True when the plan schedules no fault at all."""
        return not (
            self.crashes or self.stragglers or self.channel_faults
            or self.scatter_crashes
        )

    @classmethod
    def random(
        cls,
        seed: int,
        p: int,
        rounds: int = 4,
        crash_rate: float = 0.06,
        straggler_rate: float = 0.12,
        drop_rate: float = 0.06,
        duplicate_rate: float = 0.04,
        scatter_crash_rate: float = 0.05,
        recovery: RecoveryPolicy | None = None,
    ) -> "FaultPlan":
        """A reproducible randomized plan over ``rounds`` × ``p`` slots.

        Every (round, server) slot independently draws each fault kind
        at its rate; the same ``(seed, p, rates)`` always produce the
        same plan. Rates are per-slot probabilities in ``[0, 1]``; a
        straggler costs 1–16 extra units, a channel fault hits 1–3 tuples.
        """
        if p <= 0:
            raise FaultPlanError("a fault plan needs a positive p")
        rng = random.Random(seed)
        crashes: list[CrashFault] = []
        stragglers: list[StragglerFault] = []
        channel_faults: list[ChannelFault] = []
        for rnd in range(rounds):
            for server in range(p):
                if rng.random() < crash_rate:
                    crashes.append(CrashFault(rnd, server))
                if rng.random() < straggler_rate:
                    stragglers.append(
                        StragglerFault(rnd, server, rng.randrange(1, 17))
                    )
                if rng.random() < drop_rate:
                    channel_faults.append(
                        ChannelFault(rnd, server, "drop",
                                     count=rng.randrange(1, 4))
                    )
                if rng.random() < duplicate_rate:
                    channel_faults.append(
                        ChannelFault(rnd, server, "duplicate",
                                     count=rng.randrange(1, 4))
                    )
        scatter_crashes = tuple(
            server for server in range(p) if rng.random() < scatter_crash_rate
        )
        return cls(
            crashes=tuple(crashes),
            stragglers=tuple(stragglers),
            channel_faults=tuple(channel_faults),
            scatter_crashes=scatter_crashes,
            recovery=RecoveryPolicy() if recovery is None else recovery,
            seed=seed,
        )


# ------------------------------------------------------------ ambient default

_default_plan: ContextVar[FaultPlan | None] = ContextVar(
    "repro_fault_plan_default", default=None
)


def fault_plan_by_default() -> FaultPlan | None:
    """The plan clusters created right now inherit (see :func:`faulty`)."""
    return _default_plan.get()


@contextmanager
def faulty(plan: FaultPlan | None) -> Iterator[None]:
    """Inject ``plan`` into every :class:`Cluster` created in the block.

    Algorithms build their clusters internally, so this mirrors
    :func:`repro.mpc.audit.audited`: it is the way to run an existing
    entry point end-to-end under a fault schedule without threading a
    parameter through every call. ``faulty(None)`` disables injection
    inside the block. Nests and restores the previous plan on exit; like
    ``audited()`` the plan is context-local, so only clusters built by
    this thread (or by a service job submitted from it) inherit it.
    """
    token = _default_plan.set(plan)
    try:
        yield
    finally:
        _default_plan.reset(token)


# ------------------------------------------------------------------- counters


@dataclass
class FaultStats(CounterStats):
    """Counters of injected faults and the recovery work they caused."""

    crashes: int = 0
    scatter_crashes: int = 0
    straggler_events: int = 0
    straggler_units: int = 0
    dropped: int = 0
    duplicated: int = 0
    retransmitted: int = 0
    deduplicated: int = 0
    checkpoints_taken: int = 0
    checkpoint_restores: int = 0
    rounds_replayed: int = 0
    recovery_load: int = 0
    unrecovered: int = 0
    # Fault events per owning exec-backend worker (the worker whose
    # contiguous server range contains the struck server) — shows where
    # in the pool the faults and their recovery work landed. Inline runs
    # attribute everything to worker 0; totals are backend-independent.
    by_worker: dict[int, int] = field(default_factory=dict)

    _COUNTERS = (
        "crashes", "scatter_crashes",
        "straggler_events", "straggler_units",
        "dropped", "duplicated", "retransmitted", "deduplicated",
        "checkpoints_taken", "checkpoint_restores",
        "rounds_replayed", "recovery_load", "unrecovered",
    )

    @property
    def injected(self) -> int:
        """Total fault events injected (crashes, stragglers, channel)."""
        return (
            self.crashes + self.scatter_crashes + self.straggler_events
            + self.dropped + self.duplicated
        )

    @property
    def clean(self) -> bool:
        """True when every injected fault was fully recovered."""
        return self.unrecovered == 0

    def summary(self) -> str:
        """One-line human-readable fault/recovery summary."""
        text = (
            f"faults: {self.crashes + self.scatter_crashes} crashes, "
            f"{self.straggler_events} stragglers (+{self.straggler_units}u), "
            f"{self.dropped} dropped, {self.duplicated} duplicated; "
            f"recovery: {self.rounds_replayed} rounds replayed, "
            f"load {self.recovery_load}"
        )
        if self.unrecovered:
            text += f", UNRECOVERED {self.unrecovered}"
        return text

    def add(self, other: "FaultStats") -> None:
        super().add(other)
        for worker, count in other.by_worker.items():
            self.by_worker[worker] = self.by_worker.get(worker, 0) + count

    def delta(self, since: "FaultStats") -> "FaultStats":
        diff = super().delta(since)
        for worker, count in self.by_worker.items():
            change = count - since.by_worker.get(worker, 0)
            if change:
                diff.by_worker[worker] = change
        return diff


# ----------------------------------------------------------------- controller


def _copy(fragment: ChunkedColumns) -> ChunkedColumns:
    """A private copy of a fragment — what the store is handed, and what a
    log or checkpoint keeps: the per-column block lists (delivery appends
    to those; a block is never written in place)."""
    return ChunkedColumns([list(blocks) for blocks in fragment.chunks])


class FaultController:
    """Applies a :class:`FaultPlan` to one cluster's lifecycle.

    Attached by ``Cluster(p, faults=plan)``; the cluster calls
    :meth:`on_scatter_chunk` during data placement and
    :meth:`before_delivery` / :meth:`after_delivery` at each barrier
    (after the load-cap check, before the audit snapshot — so recovery
    completes before the auditor looks, and a recovered round satisfies
    every conservation invariant).
    """

    def __init__(self, cluster: "Cluster", plan: FaultPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        self.stats = FaultStats()
        self._last_crash_round = max((c.round for c in plan.crashes), default=-1)
        self._keep_log = (
            plan.recovery.enabled and plan.recovery.checkpoint_interval > 1
        )
        # Barrier-entry checkpoints: server id -> {name: fragment copy}.
        self._checkpoints: dict[int, dict[str, ChunkedColumns]] = {}
        self._checkpoint_round = -1
        # Chronological event log since the last checkpoint refresh:
        # ("deliver", ordinal, sid, fragment, part) and
        # ("scatter", sid, fragment, part), in the order they happened;
        # a part is the blocks the fragment got.
        self._log: list[tuple] = []
        # Scatter log for scatter-crash replay: sid -> [(fragment, part)].
        self._scatter_log: dict[int, list[tuple[str, ChunkedColumns]]] = {}
        self._scatter_fired: set[int] = set()
        self._scatter_targets = {s % cluster.p for s in plan.scatter_crashes}

    def _route_to_worker(self, sid: int) -> None:
        """Attribute a fault event on ``sid`` to its owning exec worker.

        The struck server's recovery output feeds the payload chunk of
        exactly one worker (the cluster's contiguous range assignment),
        so the tally shows where in the pool the fault's work landed.
        """
        worker = self.cluster.owning_worker(sid)
        self.stats.by_worker[worker] = self.stats.by_worker.get(worker, 0) + 1

    # ----------------------------------------------------------- scatter path

    def on_scatter_chunk(self, sid: int, fragment: str, rows: ChunkedColumns) -> None:
        """Record one placed chunk; fire a scheduled scatter crash."""
        if self._scatter_targets:
            self._scatter_log.setdefault(sid, []).append((fragment, _copy(rows)))
        if self._keep_log:
            self._log.append(("scatter", sid, fragment, _copy(rows)))
        if sid in self._scatter_targets and sid not in self._scatter_fired:
            self._scatter_fired.add(sid)
            self._crash_during_scatter(sid)

    def _crash_during_scatter(self, sid: int) -> None:
        """Lose the fragments scattered to ``sid`` so far; maybe replay."""
        server = self.cluster.servers[sid]
        scattered = self._scatter_log.get(sid, [])
        names = {fragment for fragment, _ in scattered}
        lost = 0
        for name in names:
            lost += len(server.storage.pop(name, ()))
        self.stats.scatter_crashes += 1
        self._route_to_worker(sid)
        if not self.plan.recovery.enabled:
            self.stats.unrecovered += lost
            return
        # Inputs are durable: replay every logged chunk in placement order.
        for fragment, rows in scattered:
            server.append(fragment, _copy(rows))
            self.stats.recovery_load += len(rows)

    # ----------------------------------------------------------- barrier path

    def before_delivery(self, rnd: "RoundContext", ordinal: int) -> None:
        """Refresh checkpoints, then inject this round's faults."""
        self._maybe_checkpoint(ordinal)
        for fault in self.plan.channel_faults:
            if fault.round == ordinal:
                self._apply_channel_fault(rnd, fault)
        for straggler in self.plan.stragglers:
            if straggler.round == ordinal:
                self.stats.straggler_events += 1
                self.stats.straggler_units += straggler.extra_units
                self._route_to_worker(straggler.server % self.cluster.p)
        for crash in self.plan.crashes:
            if crash.round == ordinal:
                self._crash(rnd, ordinal, crash.server % self.cluster.p)

    def after_delivery(self, rnd: "RoundContext", ordinal: int) -> None:
        """Log the round's deliveries for checkpoint-gap replay."""
        if not self._keep_log or ordinal > self._last_crash_round:
            return
        for sid, fragments in enumerate(rnd._buffers):
            for fragment, rows in fragments.items():
                if len(rows):
                    self._log.append(("deliver", ordinal, sid, fragment, _copy(rows)))

    # ------------------------------------------------------------- internals

    def _maybe_checkpoint(self, ordinal: int) -> None:
        """Barrier-entry checkpoint refresh (skipped once no crash remains)."""
        if not self.plan.recovery.enabled or ordinal > self._last_crash_round:
            return
        if ordinal % self.plan.recovery.checkpoint_interval != 0:
            return
        self._checkpoints = {
            server.sid: {name: _copy(rows) for name, rows in server.storage.items()}
            for server in self.cluster.servers
        }
        self._checkpoint_round = ordinal
        self._log.clear()
        self.stats.checkpoints_taken += 1

    def _apply_channel_fault(self, rnd: "RoundContext", fault: ChannelFault) -> None:
        dest = fault.dest % self.cluster.p
        buffers = rnd._buffers[dest]
        if fault.fragment is None:
            fragments = sorted(buffers)
        else:
            fragments = [fault.fragment] if fault.fragment in buffers else []
        recovered = self.plan.recovery.enabled
        for fragment in fragments:
            affected = min(fault.count, len(buffers[fragment]))
            if not affected:
                continue
            self._route_to_worker(dest)
            if not recovered:
                # The corruption goes through: it rewrites this one buffer,
                # slicing its columns in arrival order.
                columns = buffers[fragment].arrays()
            if fault.kind == "drop":
                self.stats.dropped += affected
                if recovered:
                    # Detected and retransmitted within the barrier: the
                    # buffer is already correct, only the overhead counts.
                    self.stats.retransmitted += affected
                    self.stats.recovery_load += affected
                else:
                    buffers[fragment] = ChunkedColumns([[c[affected:]] for c in columns])
                    self.stats.unrecovered += affected
            else:  # duplicate
                self.stats.duplicated += affected
                if recovered:
                    self.stats.deduplicated += affected
                else:
                    buffers[fragment] = ChunkedColumns([[c, c[:affected]] for c in columns])
                    self.stats.unrecovered += affected

    def _crash(self, rnd: "RoundContext", ordinal: int, sid: int) -> None:
        """Wipe ``sid`` at the barrier; restore, roll forward, re-execute."""
        server = self.cluster.servers[sid]
        lost = server.local_size()
        server.storage.clear()
        self.stats.crashes += 1
        self._route_to_worker(sid)
        if not self.plan.recovery.enabled:
            # The server restarts empty; its round-k messages died with it.
            buffers = rnd._buffers[sid]
            incoming = sum(len(rows) for rows in buffers.values())
            for fragment, rows in buffers.items():
                buffers[fragment] = ChunkedColumns([[blocks[0][:0]] for blocks in rows.chunks])
            self.stats.unrecovered += lost + incoming
            return
        # 1. Restore the latest barrier-entry checkpoint.
        snapshot = self._checkpoints.get(sid, {})
        restored = 0
        for fragment, rows in snapshot.items():
            server.storage[fragment] = _copy(rows)
            restored += len(rows)
        self.stats.checkpoint_restores += 1
        self.stats.recovery_load += restored
        # 2. Roll forward: replay logged deliveries/scatters since the
        #    checkpoint, in chronological order.
        replayed_rounds: set[int] = set()
        for event in self._log:
            if event[0] == "deliver":
                _, event_ordinal, event_sid, fragment, rows = event
                if event_sid != sid or event_ordinal >= ordinal:
                    continue
                server.append(fragment, _copy(rows))
                self.stats.recovery_load += len(rows)
                replayed_rounds.add(event_ordinal)
            else:
                _, event_sid, fragment, rows = event
                if event_sid != sid:
                    continue
                server.append(fragment, _copy(rows))
                self.stats.recovery_load += len(rows)
        # 3. Speculatively re-execute the crashed round: its inputs are
        #    still buffered at the barrier, so the ordinary delivery that
        #    follows completes the round; only the overhead is charged.
        incoming = sum(len(rows) for rows in rnd._buffers[sid].values())
        self.stats.recovery_load += incoming
        self.stats.rounds_replayed += len(replayed_rounds) + 1
