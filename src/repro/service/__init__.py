"""`repro.service` — the concurrent, multi-tenant query service.

The paper's model measures the communication load of *one* query; the
service layer makes throughput under *concurrent* load a first-class
quantity. :class:`QueryService` is a long-lived, thread-based front end
over :class:`repro.engine.Engine`:

- many in-flight SQL/CQ queries through a **bounded work queue** served
  by a pool of worker threads (global backpressure: a full queue
  rejects with :class:`~repro.errors.QueueFullError`);
- **per-tenant admission control**: an in-flight quota and a
  predicted-load cap priced by the PR 7 cost-based optimizer, with
  rejections surfaced as typed :class:`~repro.errors.AdmissionError`
  subclasses and counted in :class:`ServiceStats`;
- a shared :class:`~repro.data.warehouse.RelationWarehouse` behind a
  reader-writer lock — queries hold the read side, catalog mutations
  the write side;
- a real **plan/result cache** (:class:`ResultCache`), the memo
  layer's :class:`~repro.kernels.memo.LRU` keyed on the query
  fingerprint plus every input relation's identity and mutation token, explicitly invalidated
  by warehouse writes, with hit/miss/eviction/invalidation counters;
- a **query-splitting rewriter** (:mod:`repro.service.splitter`) that
  partitions one conjunctive query into k disjoint mod-based branches
  each run through :func:`repro.engine.run_query` and merged with a
  byte-identity guarantee against the unsplit result.

``python -m repro serve`` stands up a service over a generated
warehouse and drives it with a configurable concurrent client load.
"""

from repro.service.cache import CacheStats, ResultCache
from repro.service.service import (
    QueryService,
    ServiceResult,
    ServiceStats,
    ServiceTicket,
    TenantQuota,
)
from repro.service.splitter import merge_branches, split_bindings, split_relation

__all__ = [
    "CacheStats",
    "QueryService",
    "ResultCache",
    "ServiceResult",
    "ServiceStats",
    "ServiceTicket",
    "TenantQuota",
    "merge_branches",
    "split_bindings",
    "split_relation",
]
