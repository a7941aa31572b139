"""Mutation-token-keyed memoization across rounds of one query.

Multi-round algorithms (GYM's semijoin waves, the heavy/light reducer
protocol, SkewHC's residual stages, every branch of the service
splitter) re-hash and re-partition the *same unchanged relation* on
every round.  The MPC cost model charges nothing for that local work,
but the simulator pays it in wall time.  This module removes the
redundancy without changing a single observable byte:

- a **partition cache** maps ``(relation identity, mutation token, key
  columns, hash function, p)`` to the fully computed routing plan — the
  per-server, per-destination row groups and key-column chunks that
  :func:`repro.kernels.partition.try_route` would recompute — so a
  repeated scatter+route of an unchanged relation replays batched sends
  straight from the cache (:func:`route_scattered`, and
  :func:`route_scattered_grid` for HyperCube's replicated grid routes);
- a **view cache** (:func:`cached_view` and the :func:`project_view` /
  :func:`distinct_project` / :func:`key_degrees` / :func:`value_degrees`
  wrappers) memoizes derived read-only views — aligned projections,
  distinct key sets, degree counters — keyed the same way.

Invalidation mirrors PR 6's coherency contract exactly: every cache key
embeds the relation's monotonic mutation token, entries pin the relation
object (so ``id()`` cannot be recycled while an entry lives), and
*borrowed* relations — ones that handed out a mutable ``rows()`` list —
are never cached and never served.

Replay is chosen by what the code observes, never by a switch: a route
whose provenance cannot be proven (mutated, borrowed or tampered
relation, fault controller attached, tuple path) returns ``False`` and
the caller runs the ordinary per-server loop, which is also what a
cache miss is byte-identical to.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.kernels.config import kernels_enabled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.data.relation import Relation
    from repro.mpc.cluster import Cluster, RoundContext
    from repro.mpc.hashing import HashFunction


@dataclass
class MemoStats:
    """Memoization accounting, mergeable across runs.

    ``hash_ops`` counts rows x hashed-dimensions actually pushed through
    the bucket kernels (on the replay and the per-server path alike, so
    cold and warm runs are directly comparable); ``hash_ops_saved``
    counts the ops a partition cache hit skipped; ``bytes_saved`` the
    key-column chunk bytes a hit did not recompute.  ``fused_payloads``
    counts HyperCube local evaluations fed column blocks directly
    instead of re-deriving them from tuples.
    """

    partition_hits: int = 0
    partition_misses: int = 0
    view_hits: int = 0
    view_misses: int = 0
    fused_payloads: int = 0
    hash_ops: int = 0
    hash_ops_saved: int = 0
    bytes_saved: int = 0

    # merged()/snapshot()/delta() walk this list, so a new counter cannot
    # be silently dropped from any of them.
    _COUNTERS = (
        "partition_hits", "partition_misses",
        "view_hits", "view_misses",
        "fused_payloads",
        "hash_ops", "hash_ops_saved", "bytes_saved",
    )

    @property
    def any_activity(self) -> bool:
        return any(getattr(self, name) for name in self._COUNTERS)

    @classmethod
    def merged(cls, parts: "list[MemoStats | None]") -> "MemoStats":
        total = cls()
        for part in parts:
            if part is None:
                continue
            for name in cls._COUNTERS:
                setattr(total, name, getattr(total, name) + getattr(part, name))
        return total

    def snapshot(self) -> "MemoStats":
        copied = MemoStats()
        for name in self._COUNTERS:
            setattr(copied, name, getattr(self, name))
        return copied

    def delta(self, since: "MemoStats") -> "MemoStats":
        diff = MemoStats()
        for name in self._COUNTERS:
            setattr(diff, name, getattr(self, name) - getattr(since, name))
        return diff

    def summary(self) -> str:
        """One-line counter summary (appended to trace()/summary())."""
        return (
            f"memo: partition {self.partition_hits}h/{self.partition_misses}m"
            f" views {self.view_hits}h/{self.view_misses}m"
            f" fused={self.fused_payloads}"
            f" hash_ops={self.hash_ops} saved={self.hash_ops_saved}"
            f" bytes_saved={self.bytes_saved}"
        )


#: Process-wide mirror of every per-run counter bump.  The bench harness
#: and the CI memo-engagement assertion snapshot/delta this to measure
#: activity across whole arms (including service runs whose per-cluster
#: stats are buried inside short-lived engines).
GLOBAL = MemoStats()


def _bump(stats: "MemoStats | None", name: str, amount: int = 1) -> None:
    if stats is not None:
        setattr(stats, name, getattr(stats, name) + amount)
    setattr(GLOBAL, name, getattr(GLOBAL, name) + amount)


def count_hash_ops(rnd: "RoundContext", ops: int) -> None:
    """Record bucket-kernel work done by try_route/try_route_grid.

    Charged the same way the replay path charges a plan build, so the
    hash-ops counters compare like with like across both paths.
    """
    cluster = getattr(rnd, "_cluster", None)
    memo = getattr(getattr(cluster, "stats", None), "memo", None)
    _bump(memo, "hash_ops", ops)


# --------------------------------------------------------------------------
# Partition plan cache
# --------------------------------------------------------------------------


class _PlanEntry:
    """A cached whole-relation routing plan.

    ``plans[s]`` lists ``(dest, rows_group, key_chunks)`` for server
    ``s``'s fragment in destination order; replaying them in server
    order reproduces the per-server try_route sends byte for byte.
    ``rel`` is a strong reference: while the entry lives, ``id(rel)``
    cannot be recycled, so key collisions are impossible.
    """

    __slots__ = ("rel", "token", "plans", "offsets", "nbytes", "n", "hash_ops")

    def __init__(self, rel, token, plans, offsets, nbytes, n, hash_ops):
        self.rel = rel
        self.token = token
        self.plans = plans
        self.offsets = offsets
        self.nbytes = nbytes
        self.n = n
        self.hash_ops = hash_ops


_PLAN_CACHE_SIZE = 64
_plan_cache: "OrderedDict[tuple, _PlanEntry]" = OrderedDict()
_plan_lock = threading.Lock()

_VIEW_CACHE_SIZE = 256
_view_cache: "OrderedDict[tuple, Any]" = OrderedDict()
_view_lock = threading.Lock()


def clear_memo() -> None:
    """Drop every cached plan and view (tests and bench arm isolation)."""
    with _plan_lock:
        _plan_cache.clear()
    with _view_lock:
        _view_cache.clear()


def memo_cache_sizes() -> tuple[int, int]:
    """(partition entries, view entries) currently cached."""
    with _plan_lock:
        plans = len(_plan_cache)
    with _view_lock:
        views = len(_view_cache)
    return plans, views


def _plan_get(key: tuple, rel: "Relation", token: int) -> "_PlanEntry | None":
    with _plan_lock:
        entry = _plan_cache.get(key)
        if entry is None:
            return None
        if entry.rel is not rel or entry.token != token:
            del _plan_cache[key]
            return None
        _plan_cache.move_to_end(key)
        return entry


def _plan_put(key: tuple, entry: "_PlanEntry") -> None:
    with _plan_lock:
        _plan_cache[key] = entry
        _plan_cache.move_to_end(key)
        while len(_plan_cache) > _PLAN_CACHE_SIZE:
            _plan_cache.popitem(last=False)


def _freeze(chunk: np.ndarray) -> np.ndarray:
    # Cached chunks are delivered (possibly repeatedly) as the column
    # side-car; freezing them keeps a receiver from mutating the cache.
    chunk.flags.writeable = False
    return chunk


def _build_scatter_plans(
    rel: "Relation", key_idx: tuple[int, ...], h: "HashFunction", p: int
):
    """The whole-relation twin of per-server try_route.

    For fragment ``rows[s::p]`` every elementwise hash commutes with the
    slice, so hashing the full columns once and replaying per-server
    index arithmetic reproduces each server's destinations, stable
    order, and key-column chunks exactly.
    """
    from repro.kernels.hashing import bucket_tuple_columns
    from repro.kernels.partition import _shrink

    cols_all = rel.columns()
    if cols_all is None:
        return None
    rows_all = rel.rows_readonly()
    n = len(rows_all)
    key_cols = [cols_all[i] for i in key_idx]
    codes = _shrink(bucket_tuple_columns(key_cols, h.salt, h.buckets), h.buckets)
    plans = []
    nbytes = 0
    for s in range(p):
        idx = np.arange(s, n, p)
        sub = codes[idx]
        order = np.argsort(sub, kind="stable")
        counts = np.bincount(sub, minlength=h.buckets)
        positions = idx[order].tolist()
        sorted_cols = [_freeze(c[idx][order]) for c in key_cols]
        nbytes += sum(int(c.nbytes) for c in sorted_cols)
        groups = []
        start = 0
        for dest, count in enumerate(counts.tolist()):
            if count:
                end = start + count
                groups.append((
                    dest,
                    [rows_all[i] for i in positions[start:end]],
                    [c[start:end] for c in sorted_cols],
                ))
                start = end
        plans.append(groups)
    return plans, nbytes, n


def _build_grid_plans(
    rel: "Relation",
    column_dims: tuple[int, ...],
    salts: tuple[int, ...],
    extents: tuple[int, ...],
    strides: tuple[int, ...],
    p: int,
):
    """Whole-relation twin of per-server try_route_grid."""
    from repro.kernels.hashing import bucket_value_column
    from repro.kernels.partition import _shrink

    cols_all = rel.columns()
    if cols_all is None:
        return None
    rows_all = rel.rows_readonly()
    n = len(rows_all)

    dim_buckets: dict[int, np.ndarray] = {}
    for column, dim in zip(cols_all, column_dims):
        dim_buckets[dim] = bucket_value_column(column, salts[dim], extents[dim])
    base = np.zeros(n, dtype=np.int64)
    for dim, buckets in dim_buckets.items():
        base += buckets * strides[dim]
    from itertools import product

    free_dims = [d for d in range(len(extents)) if d not in dim_buckets]
    offsets = [
        sum(c * strides[d] for c, d in zip(combo, free_dims))
        for combo in product(*(range(extents[d]) for d in free_dims))
    ]
    grid_size = math.prod(int(e) for e in extents)
    base = _shrink(base, grid_size)

    plans = []
    nbytes = 0
    for s in range(p):
        idx = np.arange(s, n, p)
        sub = base[idx]
        order = np.argsort(sub, kind="stable")
        counts = np.bincount(sub, minlength=grid_size)
        positions = idx[order].tolist()
        sorted_cols = [_freeze(c[idx][order]) for c in cols_all]
        nbytes += sum(int(c.nbytes) for c in sorted_cols)
        groups = []
        start = 0
        for dest_base, count in enumerate(counts.tolist()):
            if count:
                end = start + count
                groups.append((
                    dest_base,
                    [rows_all[i] for i in positions[start:end]],
                    [c[start:end] for c in sorted_cols],
                ))
                start = end
        plans.append(groups)
    hash_ops = n * len(dim_buckets)
    return plans, offsets, nbytes, n, hash_ops


def _replay_eligible(
    cluster: "Cluster", rel: "Relation", fragment: str
) -> bool:
    """Whether a cached plan may stand in for the per-server route.

    The scatter-provenance map proves the fragment currently holds
    exactly ``rel[s::p]`` at the relation's current token; fault mode is
    excluded because the fault controller hooks individual scatter/send
    chunks that a replay would batch differently.
    """
    if not kernels_enabled():
        return False
    if getattr(cluster, "fault_controller", None) is not None:
        return False
    if rel.is_borrowed:
        return False
    origin = cluster._scatter_origin.get(fragment)
    if origin is None:
        return False
    origin_rel, origin_token = origin
    if origin_rel is not rel or origin_token != rel.mutation_token():
        return False
    n = len(rel)
    p = cluster.p
    for s, server in enumerate(cluster.servers):
        if len(server.get(fragment)) != len(range(s, n, p)):
            return False
    return True


def _consume_fragment(cluster: "Cluster", fragment: str) -> None:
    # Matches the take_with_columns the per-server loop would have done
    # (take also drops any column side-car).
    for server in cluster.servers:
        server.take(fragment)


def count_fused(stats: "MemoStats | None", amount: int = 1) -> None:
    """Record fused scatter→join payloads (columns fed straight to eval)."""
    _bump(stats, "fused_payloads", amount)


def route_scattered(
    cluster: "Cluster",
    rnd: "RoundContext",
    rel: "Relation",
    fragment: str,
    key_idx: Sequence[int],
    h: "HashFunction",
    out_fragment: str,
) -> bool:
    """Route a scattered, unchanged relation from the partition cache.

    Replays (or computes once and caches) the batched sends the
    per-server ``take_with_columns`` + ``try_route`` loop would issue for
    ``fragment`` — byte-identical destinations, order, charged units,
    and key-column side-cars.  Returns ``False`` when ineligible
    (kernels off, faults active, relation mutated/borrowed, fragment
    tampered with, or non-integer key columns); the caller then falls back to the
    ordinary loop.
    """
    if not _replay_eligible(cluster, rel, fragment):
        return False
    key_idx = tuple(key_idx)
    token = rel.mutation_token()
    key = (id(rel), token, "scatter", key_idx, h.salt, h.buckets, cluster.p)
    stats = cluster.stats.memo
    entry = _plan_get(key, rel, token)
    if entry is None:
        built = _build_scatter_plans(rel, key_idx, h, cluster.p)
        if built is None:
            return False
        plans, nbytes, n = built
        entry = _PlanEntry(rel, token, plans, None, nbytes, n, n)
        _plan_put(key, entry)
        _bump(stats, "partition_misses")
        _bump(stats, "hash_ops", entry.hash_ops)
    else:
        _bump(stats, "partition_hits")
        _bump(stats, "hash_ops_saved", entry.hash_ops)
        _bump(stats, "bytes_saved", entry.nbytes)
    _consume_fragment(cluster, fragment)
    for groups in entry.plans:
        for dest, rows_group, chunks in groups:
            rnd.send_rows(dest, out_fragment, rows_group, key_idx, chunks)
    return True


def route_scattered_grid(
    cluster: "Cluster",
    rnd: "RoundContext",
    rel: "Relation",
    fragment: str,
    column_dims: Sequence[int],
    salts: Sequence[int],
    extents: Sequence[int],
    strides: Sequence[int],
    out_fragment: str,
) -> bool:
    """Grid (HyperCube) twin of :func:`route_scattered`."""
    if not _replay_eligible(cluster, rel, fragment):
        return False
    column_dims = tuple(column_dims)
    salts = tuple(salts)
    extents = tuple(extents)
    strides = tuple(strides)
    token = rel.mutation_token()
    key = (id(rel), token, "grid", column_dims, salts, extents, strides, cluster.p)
    stats = cluster.stats.memo
    entry = _plan_get(key, rel, token)
    if entry is None:
        built = _build_grid_plans(rel, column_dims, salts, extents, strides, cluster.p)
        if built is None:
            return False
        plans, offsets, nbytes, n, hash_ops = built
        entry = _PlanEntry(rel, token, plans, offsets, nbytes, n, hash_ops)
        _plan_put(key, entry)
        _bump(stats, "partition_misses")
        _bump(stats, "hash_ops", entry.hash_ops)
    else:
        _bump(stats, "partition_hits")
        _bump(stats, "hash_ops_saved", entry.hash_ops)
        _bump(stats, "bytes_saved", entry.nbytes)
    _consume_fragment(cluster, fragment)
    key_idx = tuple(range(len(column_dims)))
    for groups in entry.plans:
        for dest_base, rows_group, chunks in groups:
            for offset in entry.offsets:
                rnd.send_rows(
                    dest_base + offset, out_fragment, rows_group, key_idx, chunks
                )
    return True


# --------------------------------------------------------------------------
# Derived-view cache
# --------------------------------------------------------------------------


def cached_view(
    rel: "Relation",
    key_extra: tuple,
    build: Callable[[], Any],
    stats: "MemoStats | None" = None,
) -> Any:
    """Memoize a derived read-only view of an unchanged relation.

    The cached value is shared between callers — it must never be
    mutated (every wrapper below returns either an immutable Counter
    snapshot consumer or a Relation used read-only).  Borrowed relations
    fall straight through to ``build()``.
    """
    if rel.is_borrowed:
        return build()
    token = rel.mutation_token()
    key = (id(rel), token, *key_extra)
    with _view_lock:
        if key in _view_cache:
            _view_cache.move_to_end(key)
            value, pinned = _view_cache[key]
            if pinned is rel:
                _bump(stats, "view_hits")
                return value
            del _view_cache[key]
    value = build()
    _bump(stats, "view_misses")
    with _view_lock:
        _view_cache[key] = (value, rel)
        _view_cache.move_to_end(key)
        while len(_view_cache) > _VIEW_CACHE_SIZE:
            _view_cache.popitem(last=False)
    return value


def project_view(
    rel: "Relation",
    attributes: Sequence[str],
    name: str | None = None,
    stats: "MemoStats | None" = None,
) -> "Relation":
    """Memoized ``rel.project(list(attributes), name=name)``."""
    attributes = tuple(attributes)
    return cached_view(
        rel,
        ("project", attributes, name),
        lambda: rel.project(list(attributes), name=name) if name is not None
        else rel.project(list(attributes)),
        stats,
    )


def distinct_project(
    rel: "Relation",
    attributes: Sequence[str],
    stats: "MemoStats | None" = None,
) -> "Relation":
    """Memoized ``rel.project(list(attributes)).distinct()``."""
    attributes = tuple(attributes)
    return cached_view(
        rel,
        ("distinct", attributes),
        lambda: rel.project(list(attributes)).distinct(),
        stats,
    )


def key_degrees(
    rel: "Relation",
    key_idx: Sequence[int],
    stats: "MemoStats | None" = None,
) -> Counter:
    """Memoized ``Counter(tuple(row[i] for i in key_idx) for row in rel)``.

    Columnar fast path when the key columns are integer-typed; falls
    back to the tuple loop otherwise.  The Counter is shared — read only.
    """
    key_idx = tuple(key_idx)

    def build() -> Counter:
        cols = rel.columns()
        if cols is not None:
            return Counter(zip(*[cols[i].tolist() for i in key_idx]))
        return Counter(tuple(row[i] for i in key_idx) for row in rel.rows_readonly())

    return cached_view(rel, ("degrees", key_idx), build, stats)


def value_degrees(
    rel: "Relation",
    attribute: str,
    stats: "MemoStats | None" = None,
) -> Counter:
    """Memoized ``rel.degrees(attribute)`` (shared Counter — read only)."""
    return cached_view(rel, ("value_degrees", attribute), lambda: rel.degrees(attribute), stats)
