"""The MPC cluster simulator.

Implements the Massively Parallel Communication model of the tutorial:
``p`` shared-nothing servers computing in synchronous rounds. One round =
local computation + all-to-all communication delivered at a barrier.

Usage pattern (a shuffle round, then its local step)::

    cluster = Cluster(p=8)
    cluster.scatter(r, "R")
    cluster.scatter(s, "S")
    h = cluster.hash_function(index=0, buckets=cluster.p)
    with cluster.round("shuffle") as rnd:
        for server in cluster.servers:
            # each row to h((x,)), one send per destination, hashes counted
            try_route(rnd, held(server.take("R"), 2), (0,), h, "R@h")
            try_route(rnd, held(server.take("S"), 2), (0,), h, "S@h")
    # after the `with` block every destination fragment is populated and
    # cluster.stats has a RoundStats entry for the round.
    # (repro.kernels.memo.route is this loop, replaying a cached plan when it can.)
    columns, bounds = cluster.compute("join.fragments", [("R@h", 2), ("S@h", 2)],
                                      ("R", r.schema, "S", s.schema))
    # every server joined the two fragments it took, through the backend:
    # server i's result is rows bounds[i]:bounds[i + 1] of the one table
    # (repro.joins.base.local_join).

Costs follow the tutorial's conventions: the *load* of a server in a
round is the number of tuples it receives; ``L`` is the max over servers
and rounds; the initial ``scatter`` placement is free (the model grants
an O(IN/p) initial distribution), though it can optionally be recorded.

Lifecycle guarantees
--------------------

The round lifecycle is exception-safe:

- An exception raised *inside* the ``with`` block aborts the round: the
  pending sends are discarded, nothing is delivered or charged, the
  round is closed, and the cluster can immediately open a new round
  (``RunStats.aborted`` counts such aborts).
- The ``load_cap`` is enforced at the barrier *before* any tuple is
  delivered: a violating round raises
  :class:`~repro.errors.LoadExceededError`, mutates no server fragment,
  and is recorded in the statistics with ``delivered=False`` so the
  failure is inspectable — and the cluster remains usable.

With ``Cluster(p, audit=True)`` (or inside
:func:`repro.mpc.audit.audited`) every delivered round is additionally
checked against the conservation invariants of
:mod:`repro.mpc.audit`; the report is surfaced on ``cluster.stats.audit``.

With ``Cluster(p, faults=plan)`` (or inside
:func:`repro.mpc.faults.faulty`) a deterministic
:class:`~repro.mpc.faults.FaultPlan` injects crashes, stragglers, and
channel faults at the barriers; recovery runs before the audit snapshot,
so a recovered round satisfies the same invariants as a fault-free one.
The fault counters are surfaced on ``cluster.stats.faults``.

A local step (:meth:`Cluster.compute`) is one table per fragment over a
run of servers, in server order, with each server's row *bounds*; its
task returns one table and bounds (:func:`server_column` and
:func:`row_bounds` convert between bounds and servers).

An algorithm builds one cluster and runs every step of its query on it:
:meth:`Cluster.step` for the next step on the same servers,
:meth:`Cluster.side_by_side` for steps on *pools*, contiguous server
ranges whose k-th rounds are one round. Each hands the step a view, a
``Cluster`` over its servers sharing the query's statistics, audit,
faults and backend. Round ordinals, and so fault plans, count the rounds
of the query.
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from typing import TypeVar

import numpy as np

from repro.data.relation import Relation
from repro.errors import ClusterError, LoadExceededError
from repro.exec.base import ExecutionBackend, chunk_bounds, get_backend
from repro.kernels.columnar import Row, columns_of, concatenated
from repro.mpc.audit import ClusterAuditor, audit_enabled_by_default
from repro.mpc.faults import FaultController, FaultPlan, fault_plan_by_default
from repro.mpc.hashing import HashFamily, HashFunction
from repro.mpc.server import ChunkedColumns, Server
from repro.mpc.stats import RoundStats, RunStats

T = TypeVar("T")

Table = tuple[list[np.ndarray], np.ndarray]  # (columns, row bounds): see compute

# The attribute a pass keys on first when it builds relations over a chunk:
# the server a row sits on, as its index in the chunk. No parsed or
# user-given name is NUL-led.
SERVER = "\0server"


def server_column(bounds: np.ndarray) -> np.ndarray:
    """Per row of a table with these row ``bounds``, its server's index in the chunk."""
    return np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))


def row_bounds(servers: np.ndarray, count: int) -> np.ndarray:
    """The row bounds over ``count`` servers of a table whose rows are in
    server order, from their :func:`server_column`."""
    return np.concatenate(([0], np.bincount(servers, minlength=count).cumsum()))


def _table(fragments: Sequence[ChunkedColumns], arity: int) -> Table:
    """Consecutive servers' fragments as one table: one concatenation per
    column of every block, in server order (an absent fragment adds none;
    blocks that differ in dtype meet as ``object``), and each one's bounds."""
    blocks: list[list[np.ndarray]] = [[] for _ in range(arity)]
    for fragment in fragments:
        for column, more in zip(blocks, fragment.chunks):
            column.extend(more)
    return [concatenated(column) for column in blocks], np.cumsum([0, *map(len, fragments)])


def _joined(tables: Sequence[Table]) -> Table:
    """Consecutive chunks' tables as one."""
    if len(tables) == 1:
        return tables[0]
    sizes = [np.diff(bounds) for _, bounds in tables]
    return ([concatenated(column) for column in zip(*(columns for columns, _ in tables))],
            np.concatenate([[0], *sizes]).cumsum())


class RoundContext:
    """Collects sends during one round; delivers them at the barrier."""

    def __init__(self, cluster: "Cluster", label: str, charged: bool = True) -> None:
        self._cluster = cluster
        self.label = label
        self.charged = charged
        # _buffers[dest][fragment] = the blocks that arrived so far, in order.
        self._buffers: list[dict[str, ChunkedColumns]] = [{} for _ in range(cluster.p)]
        self._units: list[int] = [0] * cluster.p
        self._closed = False
        self.aborted = False
        # Round ordinal (0-based, counts every opened round of the query,
        # charged and free) — the coordinate fault plans schedule against.
        # Assigned by Cluster._open_round.
        self.ordinal = -1

    # ------------------------------------------------------------- sending

    def _admit(self, dest: int) -> None:
        if self._closed:
            raise ClusterError("round already closed")
        if not 0 <= dest < self._cluster.p:
            raise ClusterError(f"destination {dest} out of range [0, {self._cluster.p})")

    def send_columns(
        self, dest: int, fragment: str, columns: Sequence[np.ndarray], units: int = 1
    ) -> None:
        """Send the tuples whose columns these are to server ``dest``, to be
        stored under ``fragment``: buffered as the block they are, no tuple
        zipped.

        ``units`` is the communication cost of each tuple (default one, per
        the tutorial's tuple-counting convention; a matrix-block message
        costs its elements). It must be non-negative: a negative cost would
        silently offset other senders' units and could mask a load-cap
        violation. A block must have its fragment's arity — that of the
        blocks buffered before it, or of what ``dest`` already holds — else
        :class:`ClusterError`, which aborts the round.
        """
        if units < 0:
            raise ClusterError(f"units must be non-negative, got {units}")
        self._admit(dest)
        block = ChunkedColumns([[column] for column in columns])
        buffer = self._buffers[dest].get(fragment)
        if buffer is not None:
            buffer.extend(block)
        else:
            target = self._cluster.servers[dest].storage.get(fragment)
            if target:
                target.check_arity(block)
            self._buffers[dest][fragment] = block
        self._units[dest] += units * len(block)

    # ------------------------------------------------------------- barrier

    def _make_stats(self) -> RoundStats:
        """The round's load record (zeros when the round is uncharged)."""
        units = list(self._units) if self.charged else [0] * self._cluster.p
        return RoundStats(self.label, units)

    def _cap_violation(self) -> tuple[int, int] | None:
        """(server, load) of the worst cap violation, or None when within cap."""
        cap = self._cluster.load_cap
        if cap is None or not self.charged:
            return None
        worst: tuple[int, int] | None = None
        for sid, got in enumerate(self._units):
            if got > cap and (worst is None or got > worst[1]):
                worst = (sid, got)
        return worst

    def _deliver_buffers(self) -> None:
        """Append every buffer to its destination fragment (:meth:`Server.append`)."""
        servers = self._cluster.servers
        origins = self._cluster._scatter_origin
        for dest, fragments in enumerate(self._buffers):
            for fragment, sent in fragments.items():
                # Delivered rows supersede any scatter provenance for the
                # fragment: a cached routing plan may no longer replay it.
                origins.pop(fragment, None)
                servers[dest].append(fragment, sent)

    def __enter__(self) -> "RoundContext":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        # Exception-safe: the cluster's round state is released on every
        # exit path. A clean exit runs the barrier (which may itself raise
        # LoadExceededError or AuditError); an exceptional exit aborts the
        # round without delivering and lets the exception propagate.
        if exc_type is None:
            self._cluster._finish_round(self)
        else:
            self._cluster._abort_round(self)


class _Stream:
    """Where a view's rounds go: the next round's ordinal (what fault plans
    schedule against) and the rounds' load records."""

    def __init__(self, ordinal: int, rounds: list[RoundStats]) -> None:
        self.ordinal, self.rounds = ordinal, rounds


class Cluster:
    """A simulated MPC cluster of ``p`` servers.

    Parameters
    ----------
    p:
        Number of servers.
    seed:
        Seed of the cluster's hash-function family (all algorithms draw
        their hash functions from here, so runs are reproducible).
    load_cap:
        Optional *maximum permitted* per-server per-round load,
        inclusive: a round delivering exactly ``load_cap`` units to a
        server is within budget; the first unit beyond it (``load_cap +
        1``) raises :class:`LoadExceededError` at the barrier *before
        delivering anything* — the round is recorded with
        ``delivered=False`` and the cluster stays usable. Used to
        *verify* that an algorithm stays within a promised load L.
    audit:
        ``True`` attaches a :class:`~repro.mpc.audit.ClusterAuditor`
        that re-checks conservation invariants after every round (see
        :mod:`repro.mpc.audit`); ``None`` (default) follows
        :func:`repro.mpc.audit.audited`'s ambient setting.
    faults:
        A :class:`~repro.mpc.faults.FaultPlan` to inject into this
        cluster's lifecycle (see :mod:`repro.mpc.faults`); ``None``
        (default) follows :func:`repro.mpc.faults.faulty`'s ambient
        setting. The plan's counters appear on ``stats.faults``.
    backend:
        Who executes each round's local step, :meth:`compute`:
        ``"inline"`` (this process), ``"process"`` (the persistent
        worker pool of :mod:`repro.exec`), an
        :class:`~repro.exec.base.ExecutionBackend` instance, or ``None``
        (default) to follow the ambient :func:`repro.exec.use_backend`
        / ``REPRO_BACKEND`` setting. Outputs, loads, rounds, audits, and
        fault replay are byte-identical across backends.
    """

    def __init__(
        self,
        p: int,
        seed: int = 0,
        load_cap: int | None = None,
        audit: bool | None = None,
        faults: FaultPlan | None = None,
        backend: "str | ExecutionBackend | None" = None,
    ) -> None:
        if p <= 0:
            raise ClusterError("a cluster needs at least one server")
        self.p = p
        self.servers = [Server(sid) for sid in range(p)]
        self.stats = RunStats(p)
        # Every view (step or pool) shares the root: its servers, grown past
        # p - 1 by an oversubscribed layout, and whether a round is open.
        self._root = self
        self._all_servers = list(self.servers)
        self._offset = self._first_ordinal = 0
        self._stream = _Stream(0, self.stats.rounds)
        # fragment name -> (relation, mutation token at scatter time).
        # Proof that a fragment still holds exactly rel[s::p], letting the
        # memo layer replay a cached routing plan (repro.kernels.memo).
        # Any delivery to, raw re-scatter of, or drop of the fragment
        # invalidates the claim; a mutated relation is caught by its token.
        self._scatter_origin: dict[str, tuple[Relation, int]] = {}
        self.backend = get_backend(backend)
        self.stats.exec = self.backend.new_stats()
        self.load_cap = load_cap
        self._hash_family = HashFamily(seed)
        self._in_round = False
        if audit is None:
            audit = audit_enabled_by_default()
        self.auditor: ClusterAuditor | None = ClusterAuditor(self) if audit else None
        if self.auditor is not None:
            self.stats.audit = self.auditor.report
        if faults is None:
            faults = fault_plan_by_default()
        self.fault_controller: FaultController | None = (
            FaultController(self, faults) if faults is not None else None
        )
        if self.fault_controller is not None:
            self.stats.faults = self.fault_controller.stats

    # ----------------------------------------------------------- utilities

    def hash_function(self, index: int, buckets: int | None = None) -> HashFunction:
        """The ``index``-th hash function of the cluster's family."""
        return self._hash_family.function(index, buckets if buckets is not None else self.p)

    def compute(
        self, task: str, fragments: Sequence[tuple[str, int]], common: object = None,
        out: str | None = None,
    ) -> Table:
        """Every server's local step: the registered ``task`` over what the
        servers hold, through the backend, as one table.

        Each ``(name, arity)`` of ``fragments`` is taken off the servers as
        one table of ``arity`` columns (:func:`_table`) — per contiguous
        range of servers the backend runs (:func:`~repro.exec.base.chunk_bounds`
        over its workers; inline, all of them) — and the task maps that
        chunk's tables to ``(columns, bounds)``, server ``i``'s rows being
        ``bounds[i]:bounds[i + 1]``. Returned is the step's table, the
        chunks' results in server order; byte-identical across backends.
        With ``out``, each server's rows are also appended to its fragment
        ``out``, for a later round to read.
        """
        columns, bounds = table = self.compute_pools([(self.servers, task, fragments, common)])[0]
        if out is not None:
            for server, start, stop in zip(self.servers, bounds.tolist(), bounds[1:].tolist()):
                server.append_result(out, tuple(column[start:stop] for column in columns))
        return table

    def compute_pools(
        self, steps: Sequence[tuple[Sequence[Server], str, Sequence[tuple[str, int]], object]]
    ) -> list[Table]:
        """Several *independent* local steps, on disjoint server groups, as
        one backend dispatch.

        ``steps[k] = (servers, task, fragments, common)`` is :meth:`compute`
        on those servers; the result is step-aligned. The process backend
        ships the whole batch as one queue message per worker
        (``ExecStats.queue_messages`` grows by at most the worker count,
        not k times it).
        """
        workers = getattr(self.backend, "workers", 1)
        calls = []
        for servers, task, fragments, common in steps:
            taken = [[server.take(name) for server in servers] for name, _ in fragments]
            chunks = [
                [_table(parts[start:stop], arity) for parts, (_, arity) in zip(taken, fragments)]
                for start, stop in chunk_bounds(len(servers), workers)
            ]
            calls.append((task, chunks, common))
        results = self.backend.map_payload_batch(calls, stats=self.stats.exec)
        return [_joined(tables) for tables in results]

    def owning_worker(self, sid: int) -> int:
        """The backend worker whose contiguous server range contains ``sid``.

        Always 0 for the inline backend (one chunk). Used by the fault
        layer to attribute fault events to the worker that computes for
        the struck server.
        """
        if not 0 <= sid < self.p:
            raise ClusterError(f"server {sid} out of range [0, {self.p})")
        workers = getattr(self.backend, "workers", 1)
        for index, (start, stop) in enumerate(chunk_bounds(self.p, workers)):
            if start <= sid < stop:
                return index
        return 0  # pragma: no cover - bounds always cover [0, p)

    def round(self, label: str) -> RoundContext:
        """Open a communication round. Use as a context manager."""
        return self._open_round(label, charged=True)

    def free_round(self, label: str) -> RoundContext:
        """A round whose communication is *not* charged (initial placement).

        The MPC model grants the initial O(IN/p) distribution for free;
        this provides the same mechanics as :meth:`round` but records a
        zero-load entry in the statistics (and ignores ``load_cap``).
        """
        return self._open_round(label, charged=False)

    def _open_round(self, label: str, charged: bool) -> RoundContext:
        if self._root._in_round:
            raise ClusterError("rounds cannot be nested")
        self._root._in_round = True
        rnd = RoundContext(self, label, charged=charged)
        rnd.ordinal = self._stream.ordinal
        self._stream.ordinal += 1
        return rnd

    def _communication(self) -> int:
        """C of the rounds this view's stream recorded."""
        return sum(rd.total for rd in self._stream.rounds if rd.delivered)

    def _finish_round(self, rnd: RoundContext) -> None:
        """The barrier: enforce the cap, deliver, record, audit.

        The cap is checked *before* delivery so a rejected round cannot
        corrupt server state; its stats are still recorded (marked
        undelivered) for post-mortem inspection. ``_in_round`` is
        released on every path so a failure never wedges the cluster.
        """
        try:
            rnd._closed = True
            stats = rnd._make_stats()
            violation = rnd._cap_violation()
            if violation is not None:
                sid, got = violation
                stats.delivered = False
                self._stream.rounds.append(stats)
                if self.auditor is not None:
                    self.auditor.record_rejected(rnd, stats)
                assert self.load_cap is not None
                raise LoadExceededError(sid, got, self.load_cap)
            # Faults strike after the cap admitted the round and before
            # the audit snapshot: recovery completes within the barrier,
            # so the auditor sees a state satisfying every invariant.
            if self.fault_controller is not None:
                self.fault_controller.before_delivery(rnd, rnd.ordinal)
            before = c_before = None
            if self.auditor is not None:
                before = self.auditor.snapshot()
                c_before = self._communication()
            rnd._deliver_buffers()
            self._stream.rounds.append(stats)
            if self.auditor is not None:
                assert before is not None and c_before is not None
                self.auditor.after_delivery(rnd, stats, before, c_before)
            if self.fault_controller is not None:
                self.fault_controller.after_delivery(rnd, rnd.ordinal)
        finally:
            self._root._in_round = False

    def _abort_round(self, rnd: RoundContext) -> None:
        """Abandon a round after an exception inside its block.

        Pending sends are discarded — nothing is delivered or charged.
        Local fragment mutations made inside the block (``take``/``put``)
        are *not* rolled back; the guarantee is that the cluster's round
        lifecycle and accounting stay consistent and usable.
        """
        rnd._closed = True
        rnd.aborted = True
        rnd._buffers = [{} for _ in range(self.p)]
        self.stats.aborted += 1
        if self.auditor is not None:
            self.auditor.record_abort(rnd)
        self._root._in_round = False

    # ------------------------------------------------------- data placement

    def scatter(self, relation: Relation, name: str | None = None) -> str:
        """Place a relation round-robin across servers (free, per the model).

        Server ``s`` gets strided views ``column[s::p]`` of the relation's
        columns (read-only, as they are) and no tuple is built. Returns the
        fragment name used (``relation.name`` by default).
        """
        fragment = name if name is not None else relation.name
        columns = relation.columns()
        self._place(fragment, [
            ChunkedColumns([[column[s :: self.p]] for column in columns]) for s in range(self.p)
        ])
        self._scatter_origin[fragment] = (relation, relation.mutation_token())
        return fragment

    # Nothing under src/repro calls this since every sender moves columns;
    # it stays as a span perfbench/tracing.py:TARGETS names.
    def scatter_rows(self, rows: Sequence[Row], name: str) -> str:
        """Place raw rows round-robin across servers (free): server ``s``
        gets the columns of ``rows[s::p]`` as one block."""
        self._place(name, [
            ChunkedColumns([[column] for column in columns_of(rows[s :: self.p], 0)])
            for s in range(self.p)
        ])
        return name

    def _place(self, name: str, chunks: Sequence[ChunkedColumns]) -> None:
        """Append server ``s``'s (non-empty) chunk to its fragment ``name``."""
        self._scatter_origin.pop(name, None)
        for index, (server, chunk) in enumerate(zip(self.servers, chunks)):
            if len(chunk):
                server.append(name, chunk)
                if self.fault_controller is not None:
                    self.fault_controller.on_scatter_chunk(self, index, name, chunk)

    def gather(self, fragment: str) -> list[Row]:
        """All rows of a fragment across servers, in server order.

        Gathering is an *inspection* helper for tests and result
        collection; it is not charged as communication (the model's output
        convention: results may stay distributed).

        The returned list is always a *fresh copy*, never a live server
        storage list — callers may append to, sort, or clear it without
        corrupting any fragment, even when a single server holds the
        whole fragment. (Mirrors the :meth:`Relation.rows` contract; the
        mutation-guard regression suite pins this down.)
        """
        out: list[Row] = []
        for server in self.servers:
            out.extend(server.get(fragment))
        return out

    def gather_relation(self, fragment: str, name: str, attributes: Sequence[str]) -> Relation:
        """Gather a fragment into a :class:`Relation`: one table of every
        server's blocks, in server order (:func:`_table`); the tuples derive
        lazily."""
        table = _table([server.get(fragment) for server in self.servers], len(attributes))
        return Relation.from_columns(name, attributes, table[0])

    def drop(self, fragment: str) -> None:
        """Delete a fragment on every server."""
        self._scatter_origin.pop(fragment, None)
        for server in self.servers:
            server.take(fragment)

    def fragment_sizes(self, fragment: str) -> list[int]:
        """Per-server sizes of one fragment."""
        return [len(server.get(fragment)) for server in self.servers]

    # ------------------------------------------------------ steps and pools

    def _view(self, offset: int, size: int, seed: int, stream: _Stream) -> "Cluster":
        """Servers ``[offset, offset + size)`` as a cluster of their own,
        hashing with the functions of ``seed``, its rounds going to
        ``stream``; the cluster grows when they run past its last."""
        servers = self._root._all_servers
        servers.extend(Server(sid) for sid in range(len(servers), offset + size))
        view = copy.copy(self)
        view.p = size
        view.servers = servers[offset : offset + size]
        view._offset = offset
        view._hash_family = HashFamily(seed)
        view._scatter_origin = {}
        view._stream, view._first_ordinal = stream, stream.ordinal
        return view

    def _clear(self) -> None:
        """Empty this view's servers: its step is over."""
        for server in self.servers:
            server.storage.clear()
        if self.fault_controller is not None:
            self.fault_controller.on_clear(self)

    @contextmanager
    def step(self, seed: int) -> Iterator["Cluster"]:
        """The next step of the query: these servers and rounds under the
        hash functions of ``seed``. Its servers are emptied when it ends,
        so it gathers its output first."""
        view = self._view(self._offset, self.p, seed, self._stream)
        try:
            yield view
        finally:
            view._clear()

    def side_by_side(
        self, sizes: Sequence[int], seed: int, run: Callable[[int, "Cluster"], T]
    ) -> list[T]:
        """Run ``run(i, pool)`` on pool ``i`` of ``sizes[i]`` servers, pool
        after pool; returns the results in pool order.

        The pools are contiguous server ranges from this view's first
        server, each a :meth:`step` of its own under the functions of
        ``seed``. Their k-th rounds are one round: its ``received`` lists
        every pool's servers in pool order, an idle pool's as zeros, and
        a fault plan sees one ordinal for all of them. Pools needing more
        servers than this view has take the cluster's next ones, past
        server ``p - 1``; ``stats.p`` stays the query's.
        """
        if min(sizes, default=1) < 1:
            raise ClusterError(f"every pool needs a server, got sizes {list(sizes)}")
        pools: list[tuple[_Stream, int]] = []  # a pool's rounds and the servers they span
        results: list[T] = []
        offset = self._offset
        try:
            for i, size in enumerate(sizes):
                pool = _Stream(self._stream.ordinal, [])
                view = self._view(offset, size, seed, pool)
                try:
                    results.append(run(i, view))
                finally:
                    view._clear()
                    pools.append((pool, max([size, *(len(rd.received) for rd in pool.rounds)])))
                offset += pools[-1][1]
        finally:
            self._merge(pools)
        return results

    def _merge(self, pools: Sequence[tuple[_Stream, int]]) -> None:
        """Record the pools' k-th delivered rounds as one round of this view
        (a rejected round moved nothing)."""
        stream = self._stream
        stream.ordinal = max([stream.ordinal, *(pool.ordinal for pool, _ in pools)])
        sequences = [[rd for rd in pool.rounds if rd.delivered] for pool, _ in pools]
        for k in range(max(map(len, sequences), default=0)):
            here = [(seq[k] if k < len(seq) else None, width)
                    for seq, (_, width) in zip(sequences, pools)]
            stream.rounds.append(RoundStats(
                "+".join(dict.fromkeys(rd.label for rd, _ in here if rd)),
                [n for rd, width in here for n in (rd.received if rd else [0] * width)],
            ))

    def __repr__(self) -> str:
        return f"Cluster(p={self.p}, {self.stats.summary()})"

