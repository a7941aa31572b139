"""Parallel Sort by Regular Sampling — PSRS (slides 100–102).

The algorithm:

1. each server sorts its local fragment and extracts ``p − 1`` regular
   samples;
2. samples are gathered on a coordinator, which sorts the pooled
   ``p(p−1)`` samples and picks every ``p``-th as the global splitters;
3. splitters are broadcast; every item is routed to its interval's owner;
4. each server sorts what it received.

Load analysis (slide 102): L = O(N/p) provided ``p ≪ N^{1/3}`` — the
sample-gather round costs ``p(p−1) ≤ N/p`` exactly when ``p³ ≲ N``.
:func:`psrs_partition` is the in-cluster primitive (reused by the
parallel sort join); :func:`psrs_sort` is the standalone entry point.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.kernels.columnar import take_rows
from repro.kernels.partition import partition_indices
from repro.kernels.splitters import searchsorted_buckets, tuple_buckets
from repro.mpc.cluster import Cluster, RoundContext
from repro.mpc.stats import RunStats
from repro.sorting.splitters import (
    bucket_of,
    choose_splitters,
    random_sample,
    regular_sample,
)

Key = Callable[[Any], Any]


def identity_key(item: Any) -> Any:
    """The default sort key. A named module-level function (not a
    lambda) so it pickles, keeping default-keyed sorts eligible for the
    process backend; an unpicklable user key transparently falls back
    to inline execution."""
    return item


class IndexKey:
    """Picklable key projecting fixed row positions (``row[i] for i in
    positions``). The sort-join/band-join equivalent of a key lambda."""

    __slots__ = ("positions",)

    def __init__(self, *positions: int) -> None:
        self.positions = positions

    def __call__(self, row: Any) -> tuple:
        return tuple(row[i] for i in self.positions)


class RowKey:
    """Picklable ``key(row[0])`` adapter for ``(item, ...)`` tagged rows."""

    __slots__ = ("key",)

    def __init__(self, key: Key) -> None:
        self.key = key

    def __call__(self, row: Any) -> Any:
        return self.key(row[0])


class PositionTiebreak:
    """Key wrapper for ``(item, original_position)`` rows.

    Sorts by ``key(item)`` with the original position as tie-break, so
    heavily duplicated keys still spread evenly across servers. A class
    instead of a closure so it pickles whenever the wrapped key does.
    """

    __slots__ = ("key",)

    def __init__(self, key: Key) -> None:
        self.key = key

    def __call__(self, row: Any) -> Any:
        return (self.key(row[0]), row[1])


def psrs_localsort_chunk(payloads: list, common) -> list:
    """Exec task ``psrs.localsort``: phase-1 local sort + splitter samples.

    Payloads are ``(fragment rows, server id)``; returns
    ``(sorted rows, sampled items)`` per server. The server id seeds
    random sampling exactly as the historical loop did.
    """
    key, sample_count, use_random_sampling = common
    out = []
    for rows, sid in payloads:
        local = sorted(rows, key=key)
        if use_random_sampling:
            samples = random_sample(local, sample_count, seed=sid + 1)
        else:
            samples = regular_sample(local, sample_count)
        out.append((local, samples))
    return out


def psrs_finalsort_chunk(payloads: list, common) -> list:
    """Exec task ``psrs.finalsort``: phase-4 sort of each routed interval."""
    return [sorted(rows, key=common) for rows in payloads]


def _route_by_splitters(
    rnd: RoundContext,
    items: list[Any],
    key: Key,
    splitters: list[Any],
    out_fragment: str,
) -> bool:
    """Batched phase-3 routing via the splitter-search kernels.

    ``False`` means no fast path (non-integer keys / no splitters); the
    caller then routes item-at-a-time through ``bucket_of``.
    """
    if not items or not splitters:
        return not items
    keys = [key(item) for item in items]
    if isinstance(keys[0], tuple):
        destinations = tuple_buckets(keys, splitters)
    else:
        destinations = searchsorted_buckets(keys, splitters)
    if destinations is None:
        return False
    for dest, indices in enumerate(
        partition_indices(destinations, len(splitters) + 1)
    ):
        if len(indices):
            rnd.send_rows(dest, out_fragment, take_rows(items, indices))
    return True


def psrs_partition(
    cluster: Cluster,
    fragment: str,
    out_fragment: str,
    key: Key = identity_key,
    use_random_sampling: bool = False,
) -> list[Any]:
    """Range-partition ``fragment`` across the cluster and sort locally.

    After the call, server ``i`` holds ``out_fragment`` = the items of the
    ``i``-th key interval, locally sorted; the concatenation over servers
    is globally sorted. Returns the splitters used. Charges three rounds:
    sample gather, splitter broadcast, partition.
    """
    p = cluster.p

    # Phase 1: local sort + samples to the coordinator (server 0). The sorts run
    # through the exec backend (concurrently under the process backend);
    # sample *sends* stay here, on the round's coordinator-side buffers.
    with cluster.round("psrs-sample-gather") as rnd:
        payloads = [(server.take(fragment), server.sid) for server in cluster.servers]
        sorted_fragments = cluster.map_servers(
            "psrs.localsort", payloads, (key, p - 1, use_random_sampling)
        )
        for server, (local, samples) in zip(cluster.servers, sorted_fragments):
            server.put(f"{fragment}@sorted", local)
            for item in samples:
                rnd.send(0, f"{fragment}@samples", (key(item),))

    # Phase 2: coordinator picks splitters and broadcasts them.
    pooled = [k for (k,) in cluster.servers[0].take(f"{fragment}@samples")]
    splitters = choose_splitters(pooled, p)
    with cluster.round("psrs-splitter-broadcast") as rnd:
        for splitter in splitters:
            rnd.broadcast(f"{fragment}@splitters", (splitter,))

    # Phase 3: route every item to its interval owner; sort on arrival.
    with cluster.round("psrs-partition") as rnd:
        for server in cluster.servers:
            server.take(f"{fragment}@splitters")  # consumed; value known globally
            items = server.take(f"{fragment}@sorted")
            if not _route_by_splitters(rnd, items, key, splitters, out_fragment):
                for item in items:
                    rnd.send(bucket_of(key(item), splitters), out_fragment, item)
    final_payloads = [server.take(out_fragment) for server in cluster.servers]
    for server, local in zip(
        cluster.servers, cluster.map_servers("psrs.finalsort", final_payloads, key)
    ):
        server.put(out_fragment, local)
    return splitters


def psrs_sort(
    items: Sequence[Any],
    p: int,
    key: Key = identity_key,
    seed: int = 0,
    use_random_sampling: bool = False,
) -> tuple[list[Any], RunStats]:
    """Sort ``items`` on a fresh ``p``-server cluster with PSRS.

    Returns ``(sorted_items, stats)`` where ``sorted_items`` is the
    concatenation of the per-server sorted fragments. Ties are broken by
    the item's original position, so heavily duplicated keys still spread
    evenly across servers (the partition load stays O(N/p)).
    """
    cluster = Cluster(p, seed=seed)
    cluster.scatter_rows([(x, i) for i, x in enumerate(items)], "items")
    psrs_partition(
        cluster,
        "items",
        "items@out",
        key=PositionTiebreak(key),
        use_random_sampling=use_random_sampling,
    )
    output = [row[0] for row in cluster.gather("items@out")]
    return output, cluster.stats
