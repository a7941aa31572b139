"""The long-lived concurrent query service over :class:`repro.engine.Engine`.

Threading model (documented in DESIGN.md, tested by ``tests/service``):

- **Submitters** (any thread) run admission control synchronously:
  parse, tenant quota checks (in-flight slot reserved atomically under
  the stats lock; predicted-load cap priced by the cost-based
  optimizer under the warehouse read lock), then a non-blocking put
  into the bounded work queue. Every rejection is a typed
  :class:`~repro.errors.AdmissionError` and a counter — nothing about
  a rejected query ever reaches a worker.
- **Workers** (a fixed pool of daemon threads) pull jobs and execute
  them under the warehouse **read** lock inside the submitter's copied
  :mod:`contextvars` context (so the submitter's ambient switches —
  ``use_backend``, ``audited``, ``faulty`` — cross the
  queue with its job and reach no other tenant's). The process-wide
  view and plan caches of :mod:`repro.kernels.memo` and the service's
  :class:`~repro.service.cache.ResultCache` are the same thread-safe
  LRU class; the relations themselves are safe for concurrent readers
  per the :mod:`repro.data.relation` contract.
- **Catalog writers** go through the warehouse's **write** lock
  (:meth:`QueryService.register` / :meth:`QueryService.extend`), which
  excludes all running queries, fires the cache invalidation listeners,
  and re-registers into the engine (which forgets the old relation's
  memo entries) — so a query admitted after a write observes the new
  catalog, the bumped mutation tokens, and already purged caches, in
  that order.

Lock ordering is strictly ``stats lock → (nothing)``, ``warehouse lock
→ cache/engine locks``; no path acquires them in reverse, so the
service cannot deadlock against itself.
"""

from __future__ import annotations

import contextvars
import queue
import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.data.relation import Relation
from repro.data.warehouse import RelationWarehouse, Warehouse
from repro.engine import Engine, run_query
from repro.errors import (
    InFlightQuotaError,
    LoadCapQuotaError,
    OracleMismatchError,
    QueryError,
    QueueFullError,
    ServiceClosedError,
)
from repro.mpc.stats import CounterStats
from repro.planner.optimizer import plan_query, price_branches
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.service.cache import CacheKey, CacheStats, ResultCache
from repro.service.splitter import canonical, merge_branches, split_bindings
from repro.testing.oracle import multiset_diff, oracle_join

__all__ = [
    "QueryService",
    "ServiceResult",
    "ServiceStats",
    "ServiceTicket",
    "TenantQuota",
]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits.

    ``max_in_flight`` bounds how many of the tenant's queries may be
    admitted-but-unfinished at once (queued or executing).
    ``load_cap`` caps the optimizer's predicted max-load for a single
    query (``None`` = unlimited): the service prices the query — every
    branch, when split — before admitting it, so a tenant cannot queue
    work the cost model already knows will swamp the cluster.
    """

    max_in_flight: int = 8
    load_cap: float | None = None

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise QueryError(
                f"max_in_flight must be at least 1, got {self.max_in_flight}"
            )
        if self.load_cap is not None and self.load_cap <= 0:
            raise QueryError(
                f"load_cap must be positive, got {self.load_cap}"
            )


@dataclass
class TenantStats(CounterStats):
    """One tenant's admission ledger."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_in_flight: int = 0
    rejected_load_cap: int = 0
    rejected_queue_full: int = 0
    in_flight: int = 0

    _COUNTERS = (
        "submitted", "completed", "failed",
        "rejected_in_flight", "rejected_load_cap", "rejected_queue_full",
        "in_flight",
    )


@dataclass
class ServiceStats(CounterStats):
    """A point-in-time snapshot of the service's counters.

    ``cache`` and ``tenants`` are point-in-time reads attached by
    :meth:`QueryService.stats`, not additive counters.
    """

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_queue_full: int = 0
    rejected_in_flight: int = 0
    rejected_load_cap: int = 0
    split_queries: int = 0
    align_cache_hits: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    tenants: dict[str, TenantStats] = field(default_factory=dict)

    _COUNTERS = (
        "submitted", "admitted", "completed", "failed",
        "rejected_queue_full", "rejected_in_flight", "rejected_load_cap",
        "split_queries", "align_cache_hits",
    )

    @property
    def rejected(self) -> int:
        return (
            self.rejected_queue_full
            + self.rejected_in_flight
            + self.rejected_load_cap
        )


@dataclass
class ServiceResult:
    """What one admitted-and-finished query returns.

    ``output`` rows are in query-variable order; split executions are
    normalized to the canonical row order (so they are byte-comparable
    against ``canonical()`` of an unsplit run). ``max_load`` is the
    largest per-branch L_max, ``total_load`` the sum across branches
    (they coincide for split=1).
    """

    output: Relation
    tenant: str
    query: str
    strategy: tuple[str, ...]
    split: int
    predicted_load: float
    max_load: int
    total_load: int
    rounds: int
    cache_hit: bool
    seconds: float

    @property
    def load(self) -> int:
        return self.max_load


class ServiceTicket:
    """A handle to one admitted query; resolves to a :class:`ServiceResult`."""

    def __init__(self, tenant: str, query: str) -> None:
        self.tenant = tenant
        self.query = query
        self._done = threading.Event()
        self._result: ServiceResult | None = None
        self._error: BaseException | None = None

    def _resolve(self, result: ServiceResult | None,
                 error: BaseException | None = None) -> None:
        self._result = result
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> ServiceResult:
        """Block until the query finishes; raise what the execution raised."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query {self.query!r} (tenant {self.tenant!r}) did not "
                f"finish within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


@dataclass
class _Job:
    ticket: ServiceTicket
    cq: ConjunctiveQuery
    strategy: str
    split: int
    verify: bool
    predicted: float
    context: contextvars.Context


class QueryService:
    """A bounded-queue, multi-tenant, cache-fronted query service."""

    _SENTINEL: object = None   # queue item that tells a worker to exit

    def __init__(
        self,
        warehouse: RelationWarehouse | Warehouse | Mapping[str, Relation] | None = None,
        p: int = 8,
        workers: int = 2,
        queue_size: int = 32,
        default_quota: TenantQuota | None = None,
        quotas: Mapping[str, TenantQuota] | None = None,
        cache_size: int = 256,
        seed: int = 0,
    ) -> None:
        if workers < 1:
            raise QueryError(f"need at least one worker thread, got {workers}")
        if queue_size < 1:
            raise QueryError(f"queue size must be at least 1, got {queue_size}")
        if isinstance(warehouse, Warehouse):
            warehouse = RelationWarehouse.from_warehouse(warehouse)
        elif warehouse is None:
            warehouse = RelationWarehouse()
        elif not isinstance(warehouse, RelationWarehouse):
            warehouse = RelationWarehouse(warehouse)
        self.warehouse = warehouse
        self.p = p
        self.seed = seed
        self.default_quota = default_quota or TenantQuota()
        self._quotas = dict(quotas or {})
        self.cache = ResultCache(cache_size)
        self._engine = Engine(p, seed=seed)
        with self.warehouse.read_view() as catalog:
            for name, relation in catalog.items():
                self._engine.register(relation, name=name)
        # Invalidation protocol: both listeners run inside the warehouse
        # write lock — result-cache entries die and the engine
        # re-registers (memo.forget of the old relation's plans and
        # views) before any new query can be admitted under the read lock.
        self.warehouse.add_invalidation_listener(self.cache.invalidate_relation)
        self.warehouse.add_invalidation_listener(self._sync_engine)

        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._stats_lock = threading.Lock()
        self._tenants: dict[str, TenantStats] = {}
        self._counters = ServiceStats()
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------ catalog

    def _sync_engine(self, name: str) -> None:
        """Warehouse write-lock listener: mirror the change into the engine."""
        relation = self.warehouse._relations.get(name)  # caller holds the lock
        if relation is not None:
            self._engine.register(relation, name=name)

    def register(self, relation: Relation, name: str | None = None) -> None:
        """Add or replace a relation (write lock; invalidates the cache)."""
        self.warehouse.register(relation, name=name)

    def extend(self, name: str, rows) -> None:
        """Append rows to a relation (write lock; invalidates the cache)."""
        self.warehouse.extend(name, rows)

    def quota_for(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, self.default_quota)

    # ---------------------------------------------------------- admission

    def _tenant(self, tenant: str) -> TenantStats:
        # Caller holds _stats_lock.
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = self._tenants[tenant] = TenantStats()
        return stats

    def _release(self, tenant: str) -> None:
        with self._stats_lock:
            self._tenant(tenant).in_flight -= 1

    def submit(
        self,
        query: str | ConjunctiveQuery,
        tenant: str = "default",
        strategy: str = "auto",
        split: int = 1,
        verify: bool = False,
    ) -> ServiceTicket:
        """Admit one query; returns a ticket (or raises a typed rejection).

        Admission happens on the calling thread: the in-flight slot is
        reserved atomically, the load cap (if any) is priced by the
        optimizer — per branch when ``split > 1`` — and the job enters
        the bounded queue without blocking. Any failure releases the
        slot and counts the precise rejection reason.
        """
        cq = parse_query(query) if isinstance(query, str) else query
        if split < 1:
            raise QueryError(f"split factor must be at least 1, got {split}")
        if split > 1 and len(cq.atoms) < 2:
            raise QueryError("splitting needs a query with at least two atoms")
        quota = self.quota_for(tenant)
        with self._stats_lock:
            if self._closed:
                raise ServiceClosedError("the query service has been closed")
            stats = self._tenant(tenant)
            self._counters.submitted += 1
            stats.submitted += 1
            if stats.in_flight >= quota.max_in_flight:
                self._counters.rejected_in_flight += 1
                stats.rejected_in_flight += 1
                raise InFlightQuotaError(
                    tenant, stats.in_flight, quota.max_in_flight
                )
            stats.in_flight += 1      # reserve the slot before pricing

        predicted = 0.0
        try:
            if quota.load_cap is not None:
                predicted = self._price(cq, strategy, split)
                if predicted > quota.load_cap:
                    with self._stats_lock:
                        self._counters.rejected_load_cap += 1
                        self._tenant(tenant).rejected_load_cap += 1
                    raise LoadCapQuotaError(tenant, predicted, quota.load_cap)

            ticket = ServiceTicket(tenant, str(cq))
            job = _Job(
                ticket, cq, strategy, split, verify, predicted,
                contextvars.copy_context(),
            )
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                with self._stats_lock:
                    self._counters.rejected_queue_full += 1
                    self._tenant(tenant).rejected_queue_full += 1
                raise QueueFullError(tenant, self._queue.maxsize) from None
        except BaseException:
            self._release(tenant)
            raise
        with self._stats_lock:
            self._counters.admitted += 1
        return ticket

    def _price(self, cq: ConjunctiveQuery, strategy: str, split: int) -> float:
        """The optimizer's predicted load for this submission (admission)."""
        with self.warehouse.read_view() as catalog:
            bindings = {a.name: self._binding(catalog, a.name) for a in cq.atoms}
            if split == 1:
                explain = plan_query(cq, bindings, self.p, seed=self.seed)
                candidate = (
                    explain.chosen_plan if strategy == "auto"
                    else explain.candidate(strategy)
                    if any(c.strategy == strategy for c in explain.candidates)
                    else explain.chosen_plan
                )
                return candidate.predicted_load or 0.0
            branches = split_bindings(cq, bindings, split)
            return price_branches(cq, branches, self.p, seed=self.seed).predicted_load

    @staticmethod
    def _binding(catalog: Mapping[str, Relation], name: str) -> Relation:
        rel = catalog.get(name)
        if rel is None:
            raise QueryError(
                f"no relation {name!r} in the warehouse "
                f"(have {sorted(catalog)})"
            )
        return rel

    # ---------------------------------------------------------- execution

    def query(
        self,
        query: str | ConjunctiveQuery,
        tenant: str = "default",
        strategy: str = "auto",
        split: int = 1,
        verify: bool = False,
        timeout: float | None = 60.0,
    ) -> ServiceResult:
        """Submit and wait: the synchronous convenience wrapper."""
        ticket = self.submit(
            query, tenant=tenant, strategy=strategy, split=split, verify=verify
        )
        return ticket.result(timeout=timeout)

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is self._SENTINEL:
                self._queue.task_done()
                return
            try:
                result = job.context.run(self._execute, job)
            except BaseException as exc:  # noqa: BLE001 - ticket carries it
                with self._stats_lock:
                    self._counters.failed += 1
                    self._tenant(job.ticket.tenant).failed += 1
                self._release(job.ticket.tenant)
                job.ticket._resolve(None, exc)
            else:
                with self._stats_lock:
                    self._counters.completed += 1
                    self._tenant(job.ticket.tenant).completed += 1
                    if job.split > 1:
                        self._counters.split_queries += 1
                self._release(job.ticket.tenant)
                job.ticket._resolve(result)
            finally:
                self._queue.task_done()

    def _execute(self, job: _Job) -> ServiceResult:
        start = time.perf_counter()
        cq = job.cq
        with self.warehouse.read_view() as catalog:
            bindings = {a.name: self._binding(catalog, a.name) for a in cq.atoms}
            key = CacheKey(
                query=str(cq),
                p=self.p,
                seed=self.seed,
                strategy=job.strategy,
                split=job.split,
                relation_state=tuple(sorted(
                    (name, id(rel), rel.mutation_token())
                    for name, rel in bindings.items()
                )),
            )
            cached = self.cache.get(key)
            if cached is not None:
                output, strategies, max_load, total_load, rounds, predicted = cached
                return ServiceResult(
                    self._detached(output), job.ticket.tenant, str(cq),
                    strategies, job.split, predicted, max_load, total_load,
                    rounds, True, time.perf_counter() - start,
                )
            if job.split == 1:
                results = [self._engine.query(cq, strategy=job.strategy)]
                output = results[0].output
                predicted = job.predicted or (
                    results[0].explain.chosen_plan.predicted_load or 0.0
                )
            else:
                # Each branch is the one pipeline over the branch's
                # bindings, same p and seed, so a branch is
                # byte-identical to running that fragment query on its
                # own. The view cache is process-wide and keyed by
                # relation identity, so the *unsplit* inputs (identical
                # relation objects in every branch) are aligned and
                # stored once.
                results = [
                    run_query(
                        cq, branch, self.p, self.seed, strategy=job.strategy
                    )
                    for branch in split_bindings(cq, bindings, job.split)
                ]
                output = merge_branches([result.output for result in results])
                predicted = job.predicted
            strategies = tuple(
                result.explain.chosen if job.strategy == "auto" else job.strategy
                for result in results
            )
            loads = [result.stats.max_load for result in results]
            max_load = max(loads, default=0)
            total_load = sum(loads)
            rounds = sum(result.stats.num_rounds for result in results)
            if job.verify:
                self._verify(cq, bindings, output)
            self.cache.put(
                key,
                (output, strategies, max_load, total_load, rounds, predicted),
            )
        with self._stats_lock:
            self._counters.align_cache_hits += sum(
                result.align_cache_hits for result in results
            )
        return ServiceResult(
            self._detached(output), job.ticket.tenant, str(cq), strategies,
            job.split, predicted, max_load, total_load, rounds, False,
            time.perf_counter() - start,
        )

    @staticmethod
    def _verify(
        cq: ConjunctiveQuery, bindings: Mapping[str, Relation], output: Relation
    ) -> None:
        expected = oracle_join(cq, bindings)
        diff = multiset_diff(expected.rows_readonly(), output.rows_readonly())
        if diff:
            raise OracleMismatchError(f"service query {cq}", diff)

    @staticmethod
    def _detached(output: Relation) -> Relation:
        """A caller-safe view of a (possibly cached) result relation: a
        fresh wrapper sharing its read-only arrays (O(arity)) — a caller's
        ``add``/``extend`` on it can never reach the cached entry."""
        return output.project(list(output.schema.attributes), name=output.name)

    # ------------------------------------------------------------ lifecycle

    def stats(self) -> ServiceStats:
        with self._stats_lock:
            snapshot = self._counters.snapshot()
            snapshot.cache = self.cache.stats()
            snapshot.tenants = {
                name: stats.snapshot() for name, stats in self._tenants.items()
            }
        return snapshot

    def drain(self) -> None:
        """Block until every admitted query has finished."""
        self._queue.join()

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop accepting queries, finish the queue, join the workers."""
        with self._stats_lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(self._SENTINEL)
        for thread in self._workers:
            thread.join(timeout=timeout)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
