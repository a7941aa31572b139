"""The one owner of state derived from an unchanged relation.

Multi-round algorithms (GYM's semijoin waves, the heavy/light reducer
protocol, SkewHC's residual stages, every branch of the service
splitter) re-hash, re-partition and re-project the *same unchanged
relation* on every round.  The MPC cost model charges nothing for that
local work, but the simulator pays it in wall time.  This module removes
the redundancy without changing a single observable byte:

- a **partition cache** of fully computed routing plans — per
  destination, the column blocks the per-server
  :func:`repro.kernels.partition.try_route` loop would deliver to it —
  replayed, one batched send per destination, by :func:`route_scattered`
  (and :func:`route_scattered_grid` for HyperCube's replicated routes);
- a **view cache** (:func:`cached_view` and its wrappers) of derived
  read-only views: distinct key sets, degree views, the projection
  that puts a relation in its atom's variable order (:func:`align`),
  the splitter's fragments, the optimizer's decision for a query.

The policy lives here and nowhere else: a derived value is valid while
``(id(relation), mutation token)`` is unchanged for each relation it was
derived from, and nothing else about a relation is consulted — it owns
what it holds, so only ``add``/``extend`` change it, and each moves the
token (:mod:`repro.data.relation`).  The entry holds those relations
weakly and dies with the first of them, and a lookup compares identities, so
a recycled ``id()`` can never hit; every cache — the service's result
cache included — is one bounded, locked, counted :class:`LRU`;
:func:`forget` reclaims a replaced relation's entries eagerly.  Replay
is chosen by what the code observes, never by a switch or a fault plan:
:func:`route` tries the cached plan, then the per-server kernel, and a
route whose provenance cannot be proven takes the kernel — which is also
what a cache miss is byte-identical to.

:class:`OnRead`, the one record with fields computed on first read, lives
here too, below every record that defers a field.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import QueryError
from repro.kernels.join import code_key_columns, locate, narrow_codes
if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.data.relation import Relation
    from repro.mpc.cluster import Cluster, RoundContext
    from repro.mpc.hashing import HashFunction
    from repro.mpc.stats import MemoStats
    from repro.query.cq import Atom


def _bump(stats: "MemoStats | None", name: str, amount: int = 1) -> None:
    if stats is not None:
        setattr(stats, name, getattr(stats, name) + amount)


def count_hash_ops(rnd: "RoundContext", ops: int) -> None:
    """Record bucket-kernel work done outside a plan build.

    Charged the same way the replay path charges a plan build, so the
    hash-ops counters compare like with like across both paths.
    """
    cluster = getattr(rnd, "_cluster", None)
    _bump(getattr(getattr(cluster, "stats", None), "memo", None), "hash_ops", ops)


class LRU:
    """A bounded, thread-safe, counted least-recently-used map.

    One internal lock covers lookup, recency bump, insertion, eviction
    and the counters; it is never held while a caller builds a value
    (``valid`` must be a cheap pure check).  ``capacity <= 0`` stores
    nothing, so every lookup is a counted miss.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = 0
        self.dropped = 0  # entries removed by drop()/clear()

    def get(self, key: Hashable, valid: Callable[[Any], bool] | None = None) -> Any:
        """The value under ``key`` (bumped to most recent), or ``None``.

        An entry that fails ``valid`` is dropped and counts as a miss.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None and valid is not None and not valid(value):
                del self._entries[key]
                value = None
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def drop(self, predicate: Callable[[Hashable, Any], bool]) -> int:
        """Remove every entry with ``predicate(key, value)``; returns the count."""
        with self._lock:
            dead = [k for k, v in self._entries.items() if predicate(k, v)]
            for key in dead:
                del self._entries[key]
            self.dropped += len(dead)
            return len(dead)

    def discard(self, key: Hashable, dead: Callable[[Any], bool]) -> None:
        """Drop the entry under ``key`` if ``dead(value)``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None and dead(value):
                del self._entries[key]
                self.dropped += 1

    def clear(self) -> int:
        return self.drop(lambda _key, _value: True)

    def keys(self) -> list:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def counters(self) -> tuple[int, int, int, int, int]:
        """``(hits, misses, evictions, dropped, size)``, read atomically."""
        with self._lock:
            return (self.hits, self.misses, self.evictions, self.dropped,
                    len(self._entries))


class Later:
    """A field value of an :class:`OnRead` record, computed on first read."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable[[], object]) -> None:
        self.compute = compute


class OnRead:
    """A frozen dataclass whose fields named in ``_deferred`` may be given
    as :class:`Later`: such a field is unset until read, and the first
    read calls ``compute()`` once and keeps the value, so ``==``, ``repr``
    and every later read see a plain field. Two threads racing on a first
    read compute the same value twice. The record keeps what ``compute``
    reads for as long as it lives. A deferred field with a default must
    take it from ``default_factory`` (a plain default is a class
    attribute, found before any instance lookup fails).
    """

    _deferred: tuple = ()  # unannotated in subclasses: not a field

    def __post_init__(self) -> None:
        held = self.__dict__
        later = {name: held.pop(name) for name in self._deferred if type(held[name]) is Later}
        if later:
            held["_later"] = later

    def __getattr__(self, name: str):
        later = vars(self).get("_later", {}).get(name)
        if later is None:
            raise AttributeError(name)
        value = later.compute()
        object.__setattr__(self, name, value)
        return value

    def __getstate__(self) -> dict:
        # A pickle carries values, not the functions that compute them.
        for name in list(vars(self).get("_later", ())):
            getattr(self, name)
        return {name: v for name, v in vars(self).items() if name != "_later"}


# Relation-keyed entries are ``(owners, tokens, value)``, parallel tuples
# over the relations the value derives from (one, or the k inputs of a
# query plan), held weakly: an intermediate's plans and views die with it
# instead of pushing live ones out of the LRU.
_plans = LRU(64)
_views = LRU(256)
# (cache, key) of entries whose owner died: a weakref callback runs where
# the collector does, so it only queues them; the next put purges.
_orphans: deque = deque()


def _pinned(owner: "Relation | tuple") -> tuple:
    """An entry's owner as a tuple: the one relation, or the k of them."""
    return owner if isinstance(owner, tuple) else (owner,)


def _owns(owner: Any, rel: "Relation | None") -> bool:
    """Whether an entry's owner — a weak reference, dead when ``rel`` is
    ``None``, or the relation itself — is ``rel``."""
    return (owner() if isinstance(owner, weakref.ref) else owner) is rel


def _purge() -> None:
    """Drop the queued entries whose owner is gone."""
    while _orphans:
        try:
            cache, key = _orphans.popleft()
        except IndexError:  # another thread emptied the queue
            return
        cache.discard(key, lambda e: any(_owns(o, None) for o in _pinned(e[0])))


def _lookup(cache: LRU, key: tuple, rel: "Relation | tuple", token: "int | tuple") -> Any:
    """The entry owned by this very relation at this token (or by these
    relations at these tokens, as parallel tuples), else ``None``."""
    rels = _pinned(rel)
    return cache.get(key, lambda e: e[1] == token and all(map(_owns, _pinned(e[0]), rels)))


def _get_or_build(cache: LRU, rels: tuple, key_extra: tuple, build: Callable) -> tuple:
    """``(value, hit)`` of ``build()`` memoized in ``cache`` on the identity
    and token of every relation in ``rels``; ``None`` is not stored."""
    tokens = tuple([r.mutation_token() for r in rels])
    key = (tuple(map(id, rels)), tokens, *key_extra)
    entry = _lookup(cache, key, rels, tokens)
    if entry is not None:
        return entry[2], True
    value = build()
    if value is not None:
        _purge()
        # The queue rides along: at interpreter exit a callback can outlive
        # this module's globals.
        orphaned = lambda _ref, queue=_orphans: queue.append((cache, key))  # noqa: E731
        cache.put(key, (tuple([weakref.ref(r, orphaned) for r in rels]), tokens, value))
    return value, False


def clear_memo() -> None:
    """Drop every cached plan and view (tests and bench arm isolation)."""
    _plans.clear()
    _views.clear()


def memo_cache_sizes() -> tuple[int, int]:
    """(partition entries, view entries) currently cached for live relations."""
    _purge()
    return len(_plans), len(_views)


def forget(rel: "Relation") -> int:
    """Drop every plan and view that pins ``rel``; returns the count.

    Token keying already makes a stale hit impossible; this is the eager
    reclaim for a relation being replaced (or re-registered after a
    mutation), whose entries would otherwise sit in the LRUs until newer
    ones push them out.
    """
    return sum(c.drop(lambda _k, e: any(_owns(o, rel) for o in _pinned(e[0]))) for c in (_plans, _views))


# --------------------------------------------------------------------------
# Partition plan cache
# --------------------------------------------------------------------------


def _replay_eligible(cluster: "Cluster", rel: "Relation", fragment: str) -> bool:
    """Whether a cached plan may stand in for the per-server route.

    The scatter-provenance map proves the fragment currently holds
    exactly ``rel[s::p]`` at the relation's current token.  Faults need
    no exception: they strike scatters, which still run, and each
    destination's buffer at the barrier, which both paths fill alike.
    """
    origin = cluster._scatter_origin.get(fragment)
    if origin is None:
        return False
    origin_rel, origin_token = origin
    if origin_rel is not rel or origin_token != rel.mutation_token():
        return False
    return all(
        len(server.get(fragment)) == len(range(s, len(rel), cluster.p))
        for s, server in enumerate(cluster.servers)
    )


def _build_plan(rel: "Relation", p: int, key_idx: Sequence[int], code: Callable) -> tuple:
    """The whole-relation twin of the per-server kernels, as a cache value.

    ``code(n, key columns)`` gives ``(codes, buckets, offsets, hash_ops,
    hashed key columns)`` for the full relation.  Every elementwise hash
    commutes with the slice ``rows[s::p]``, so the full columns are hashed
    once and partitioned once, in (destination, source server, position)
    order — position ``i`` sits on server ``i % p`` — which is what a
    destination receives when each server partitions its own slice and the
    sends arrive source server ascending.  Each destination's part is held
    once, as one frozen block per column (no row list is read).  One
    destination from one source (``p == 1``, as on a one-server pool) is the
    identity: no hash, no sort, and its part is the relation's own columns —
    the arrays, never the relation, so the plan keeps no input alive.
    """
    from repro.kernels.partition import partition_groups

    columns = rel.columns()
    codes, buckets, offsets, hash_ops, hashed = code(len(rel), [columns[i] for i in key_idx])
    groups = partition_groups(codes, buckets, columns, sources=p)
    return groups, offsets, sum(int(column.nbytes) for column in hashed), hash_ops


def _replay(
    cluster: "Cluster", rnd: "RoundContext", rel: "Relation", fragment: str,
    out_fragment: str, key_idx: tuple[int, ...], key_extra: tuple, code: Callable,
) -> bool:
    """Consume ``fragment`` and replay its route from the plan cache."""
    if not _replay_eligible(cluster, rel, fragment):
        return False
    _replay_plan(
        cluster, rnd, rel, (*key_extra, cluster.p),
        lambda: _build_plan(rel, cluster.p, key_idx, code), out_fragment,
    )
    # Matches the take the per-server loop would have done.
    for server in cluster.servers:
        server.take(fragment)
    return True


def _replay_plan(
    cluster: "Cluster", rnd: "RoundContext", rel: "Relation", key_extra: tuple,
    build: Callable[[], tuple], out_fragment: str,
) -> None:
    """Get-or-build a whole-shuffle plan of ``rel``, count it, replay its sends.

    A plan is ``(groups, offsets, key bytes, hash ops)``: each ``(dest,
    part)`` group of frozen column blocks goes to ``dest + o`` for every
    offset ``o``, one send per destination.  A plan is kept under
    ``rel``'s token.
    """
    plan, hit = _get_or_build(_plans, (rel,), key_extra, build)
    groups, offsets, nbytes, hash_ops = plan
    stats = cluster.stats.memo
    if hit:
        _bump(stats, "partition_hits")
        _bump(stats, "hash_ops_saved", hash_ops)
        _bump(stats, "bytes_saved", nbytes)
    else:
        _bump(stats, "partition_misses")
        _bump(stats, "hash_ops", hash_ops)
    for dest, part in groups:
        for offset in offsets:
            rnd.send_columns(dest + offset, out_fragment, part)


def route_scattered(
    cluster: "Cluster", rnd: "RoundContext", rel: "Relation", fragment: str,
    key_idx: Sequence[int], h: "HashFunction", out_fragment: str,
) -> bool:
    """Route a scattered, unchanged relation from the partition cache.

    Replays (or computes once and caches) what the per-server ``take`` +
    ``try_route`` loop would deliver for ``fragment``, one batched send
    per destination — byte-identical destinations, order, charged units
    and delivered blocks.
    Returns ``False`` when ineligible (relation mutated or fragment
    tampered with); the caller then routes per server.
    """
    from repro.kernels.partition import hash_codes

    key_idx = tuple(key_idx)

    def code(n: int, key_cols: Sequence) -> tuple:
        codes, hashed = hash_codes(n, key_cols, h)
        return codes, h.buckets, (0,), hashed, key_cols if hashed else ()

    return _replay(
        cluster, rnd, rel, fragment, out_fragment, key_idx,
        ("scatter", key_idx, h.salt, h.buckets), code,
    )


def _grid_code(*dims: Sequence[int]) -> Callable:
    """``_build_plan``'s ``code`` for HyperCube cells; ``dims`` as ``grid_codes`` takes them."""
    from repro.kernels.partition import grid_codes

    def code(n: int, columns: Sequence) -> tuple:
        base, grid_size, offsets, hashed = grid_codes(n, columns, *dims)
        return base, grid_size, offsets, n * len(hashed), hashed

    return code


def route_scattered_grid(
    cluster: "Cluster", rnd: "RoundContext", rel: "Relation", fragment: str,
    column_dims: Sequence[int], salts: Sequence[int], extents: Sequence[int],
    strides: Sequence[int], out_fragment: str,
) -> bool:
    """Grid (HyperCube) twin of :func:`route_scattered`."""
    dims = (tuple(column_dims), tuple(salts), tuple(extents), tuple(strides))
    return _replay(
        cluster, rnd, rel, fragment, out_fragment,
        tuple(range(len(column_dims))), ("grid", *dims), _grid_code(*dims),
    )


def route_pools(
    cluster: "Cluster", rnd: "RoundContext", rel: "Relation", routes: Sequence[tuple],
    salts: Sequence[int], out_fragment: str,
) -> None:
    """HyperCube-route many restrictions of ``rel`` onto disjoint server
    pools of one cluster, as one plan of ``rel``.

    ``routes`` lists ``(name, restriction, first server, pool size, grid
    dimension per column, extents, strides)``; ``name`` must say, given
    ``rel``, which rows the restriction holds — the plan is kept under
    ``rel``'s token and these names.  Each restriction is partitioned as
    a scatter over its own pool would deliver it — position ``i`` sits on
    the pool's server ``i % size`` — with the grid cells shifted to the
    pool's first server, so every destination gets what a cluster of its
    own would have given it; SkewHC's residuals of one atom are the case.
    """
    def build() -> tuple:
        groups: list[tuple] = []
        nbytes = hash_ops = 0
        for _name, part, base, size, column_dims, extents, strides in routes:
            cells, offsets, part_bytes, part_ops = _build_plan(
                part, size, range(len(column_dims)),
                _grid_code(column_dims, salts, extents, strides),
            )
            groups.extend(
                (base + cell + offset, part) for cell, part in cells for offset in offsets
            )
            nbytes += part_bytes
            hash_ops += part_ops
        return groups, (0,), nbytes, hash_ops

    key = tuple((name, *where) for name, _part, *where, _strides in routes)
    _replay_plan(cluster, rnd, rel, ("pools", tuple(salts), key), build, out_fragment)


def route(
    cluster: "Cluster", rnd: "RoundContext", fragment: str, key_idx: Sequence[int],
    h: "HashFunction", out_fragment: str, rel: "Relation | None" = None,
) -> None:
    """Send every row of ``fragment`` to ``h(key)`` as ``out_fragment``.

    The one hash-shuffle ladder: replay the cached plan when ``rel`` (the
    relation ``fragment`` was scattered from) is given and eligible, else
    per server the batched kernel.  Both deliver byte-identical
    fragments — per-(destination, fragment) arrival order is
    source-server ascending, each server's rows in slice order, on both
    rungs (a cached plan stores them that way).
    """
    from repro.kernels.partition import try_route
    from repro.mpc.server import held

    key_idx = tuple(key_idx)
    if rel is not None and route_scattered(
        cluster, rnd, rel, fragment, key_idx, h, out_fragment
    ):
        return
    for server in cluster.servers:
        part = server.take(fragment)
        if len(part):  # an empty fragment routes nothing
            try_route(rnd, held(part), key_idx, h, out_fragment)


# --------------------------------------------------------------------------
# Derived-view cache
# --------------------------------------------------------------------------


def cached_view(
    rel: "Relation | tuple", key_extra: tuple, build: Callable[[], Any],
    stats: "MemoStats | None" = None,
) -> Any:
    """Memoize a derived read-only view of an unchanged relation — or of
    several (``rel`` a tuple: a query plan is a view of all its inputs).

    The cached value is shared between callers — it must never be
    mutated (every wrapper below returns read-only arrays or a Relation
    used read-only).
    """
    value, hit = _get_or_build(_views, _pinned(rel), key_extra, build)
    _bump(stats, "view_hits" if hit else "view_misses")
    return value


def bound(relations: "Mapping[str, Relation]", name: str) -> "Relation":
    """The relation bound to the atom called ``name``."""
    try:
        return relations[name]
    except KeyError:
        raise QueryError(f"no relation bound for atom {name!r}") from None


def align(atom: "Atom", rel: "Relation", stats: "MemoStats | None" = None) -> "Relation":
    """``rel`` in ``atom``'s variable order.

    A relation already in order is returned as is and never cached (an
    entry whose value is its owner would pin it; GYM's interned step
    outputs and the splitter's fragments arrive in order); a reordering is
    the memoized projection, so repeated runs over an unchanged relation
    get the same object back and its routing plans stay hot.
    """
    if set(rel.schema.attributes) != set(atom.variables):
        raise QueryError(
            f"relation {rel.name} attributes {rel.schema.attributes} do not match "
            f"atom {atom}"
        )
    if rel.schema.attributes == atom.variables:
        return rel
    return project_view(rel, atom.variables, stats=stats)


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
        lambda: rel.project(list(attributes), name=name),
        stats,
    )


def distinct_project(
    rel: "Relation",
    attributes: Sequence[str],
    stats: "MemoStats | None" = None,
) -> "Relation":
    """The distinct ``attributes`` of ``rel``, memoized (one identity, so its
    routing plans stay hot): the key columns of its :func:`degree_view` there,
    in the view's order — no second grouping."""
    attributes = tuple(attributes)

    def build() -> "Relation":
        keys, _counts = degree_view(rel, rel.schema.indices(attributes), stats)
        return type(rel).from_columns(rel.name, attributes, keys)

    return cached_view(rel, ("distinct", attributes), build, stats)


def grouped(keys: Sequence[np.ndarray], weights: np.ndarray | None = None) -> tuple:
    """``(distinct keys, counts)`` of the rows these key columns hold, in code
    order (``int64`` values ascending, else first seen), a key as its first row
    holds it: counted over a narrow span of ``int64`` keys (:func:`narrow_codes`;
    ``np.add.at`` for ``int64`` weights) and unpacked from the non-empty slots, else
    one sort of their ``code_key_columns`` codes. A count is its rows or the sum of
    their ``weights``, in the weights' dtype (``object``: Python ints); no key
    columns is one key for every row."""
    packed = narrow_codes(keys) if weights is None or weights.dtype == np.int64 else None
    if packed is not None:
        codes, _span, radix = packed
        table = np.bincount(codes)
        held = table.nonzero()[0]
        if weights is not None:  # a key is held whatever its weights sum to
            table = np.zeros(len(table), np.int64)
            np.add.at(table, codes, weights)
        counts, distinct = table[held], []
        for lo, span in radix[:0:-1]:  # the last digit first; the first is what is left
            held, digit = np.divmod(held, span)
            distinct.insert(0, digit + lo)
        return [held + radix[0][0], *distinct], counts
    n = len(keys[0]) if keys else len(weights)
    codes = code_key_columns(keys, [k[:0] for k in keys])[0] if keys else np.zeros(n, np.int64)
    order = np.argsort(codes)
    ranked = codes[order]
    starts = np.nonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))[0][:n]
    first = np.minimum.reduceat(order, starts)
    weights = np.ones(n, np.int64) if weights is None else weights
    return [k[first] for k in keys], np.add.reduceat(weights[order], starts)


def degree_view(rel: "Relation", key_idx: Sequence[int], stats: "MemoStats | None" = None) -> tuple:
    """Memoized :func:`grouped` of ``rel``'s columns at ``key_idx``: the one
    degree view, ``(distinct key columns, int64 counts)``, every skew
    decision reads. Shared, so frozen."""
    key_idx = tuple(key_idx)

    def build() -> tuple:
        keys = [rel.columns()[i] for i in key_idx]
        view = grouped(keys, None if keys else np.ones(len(rel), np.int64))
        for array in (*view[0], view[1]):
            array.flags.writeable = False
        return view

    return cached_view(rel, ("degrees", key_idx), build, stats)


def counts_at(view: tuple, key_cols: Sequence[np.ndarray]) -> np.ndarray:
    """Per row of ``key_cols``, its count in the degree ``view``; 0 when absent."""
    return np.concatenate((view[1], [0]))[locate(key_cols, view[0])]


def ordered(values: Iterable, key: Callable | None = None) -> list:
    """The one order of heavy hitters: ascending (by ``key``) when mutually
    orderable, else as given — a degree view's order, first seen."""
    values = list(values)
    try:
        return sorted(values, key=key)
    except TypeError:
        return values
