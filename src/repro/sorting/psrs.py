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
parallel sort join and the band join); :func:`psrs_sort` is the
standalone entry point.

Every sort runs on one (key, position) column pair, from scatter to
gather. The caller builds the key column once, on the coordinator, by the
one column rule (:func:`key_column`); the position column is an
``arange``. Ordering by (key, position) breaks ties by the original
position, so heavily duplicated keys still spread evenly and the sort is
stable. The local sort, the samples, the routing and the final sort are
numpy passes over the pair, and no task ever sees the user's key.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.data.relation import Relation
from repro.kernels.columnar import column_of, columns_of, concatenated, zip_rows
from repro.kernels.splitters import splitter_buckets
from repro.mpc.cluster import SERVER_ID, Cluster
from repro.mpc.server import held
from repro.mpc.stats import RunStats
from repro.sorting.splitters import choose_splitters, random_sample, regular_sample

Key = Callable[[Any], Any]


def identity_key(item: Any) -> Any:
    """The default sort key: the item itself (its column is the items')."""
    return item


def key_column(items: Sequence[Any], key: Key = identity_key) -> np.ndarray:
    """The items' sort keys as one column: one ``key`` call per item, on
    the coordinator, and none at all for the default key."""
    return column_of(items if key is identity_key else [key(x) for x in items])


def scatter_keys(cluster: Cluster, name: str, keys: np.ndarray) -> None:
    """Place the (key, position) pair of ``keys`` round-robin (free)."""
    pair = Relation.from_columns(name, ["key", "position"], [keys, np.arange(len(keys))])
    cluster.scatter(pair, name)


def sorted_pair(keys: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair ordered by (key, position): one ``np.lexsort`` (an
    ``object`` key column compares with Python ``<``)."""
    order = np.lexsort((positions, keys))
    return keys[order], positions[order]


def psrs_localsort_chunk(payloads: list, common) -> list:
    """Exec task ``psrs.localsort``: phase-1 local sort + splitter samples.

    Payloads are ``((keys, positions), server id)``; returns the sorted
    pair and the sampled indices into it per server. The server id seeds
    random sampling.
    """
    sample_count, use_random_sampling = common
    out = []
    for (keys, positions), sid in payloads:
        keys, positions = sorted_pair(keys, positions)
        if use_random_sampling:
            picks = random_sample(range(len(keys)), sample_count, seed=sid + 1)
        else:
            picks = regular_sample(range(len(keys)), sample_count)
        out.append((keys, positions, picks))
    return out


def psrs_finalsort_chunk(payloads: list, common) -> list:
    """Exec task ``psrs.finalsort``: phase-4 sort of each routed interval."""
    return [sorted_pair(keys, positions) for keys, positions in payloads]


def final_sort(cluster: Cluster, fragment: str) -> None:
    """Sort every server's pair in ``fragment`` through the exec backend."""
    cluster.compute("psrs.finalsort", (fragment, 2), out=fragment)


def sorted_positions(cluster: Cluster, fragment: str) -> list[int]:
    """The positions of a sorted ``fragment``, in server order."""
    return concatenated([held(server.get(fragment), 2)[1] for server in cluster.servers]).tolist()


def psrs_partition(
    cluster: Cluster,
    fragment: str,
    out_fragment: str,
    use_random_sampling: bool = False,
) -> list[tuple[Any, int]]:
    """Range-partition ``fragment`` across the cluster and sort locally.

    Every server holds (key, position) columns in ``fragment``; after the
    call, server ``i`` holds ``out_fragment`` = the pairs of the ``i``-th
    interval, sorted by (key, position), so the concatenation over servers
    is globally sorted. Returns the (key, position) splitters used.
    Charges three rounds: sample gather, splitter broadcast, partition.
    """
    p = cluster.p

    # Phase 1: local sort + samples to the coordinator (server 0). The sorts run
    # through the exec backend (concurrently under the process backend);
    # sample *sends* stay here, on the round's coordinator-side buffers.
    with cluster.round("psrs-sample-gather") as rnd:
        sorted_fragments = cluster.compute(
            "psrs.localsort", ((fragment, 2), SERVER_ID), (p - 1, use_random_sampling)
        )
        for server, (keys, positions, picks) in zip(cluster.servers, sorted_fragments):
            server.append_result(f"{fragment}@sorted", (keys, positions))
            if picks:
                rnd.send_columns(0, f"{fragment}@samples", [keys[picks], positions[picks]])

    # Phase 2: coordinator picks splitters and broadcasts them.
    pooled = zip_rows(held(cluster.servers[0].take(f"{fragment}@samples"), 2))
    splitters = choose_splitters(pooled, p)
    with cluster.round("psrs-splitter-broadcast") as rnd:
        if splitters:
            columns = columns_of(splitters, 2)
            for dest in range(p):
                rnd.send_columns(dest, f"{fragment}@splitters", columns)

    # Phase 3: cut every sorted fragment at the splitters, one slice per
    # interval owner; sort on arrival.
    with cluster.round("psrs-partition") as rnd:
        for server in cluster.servers:
            server.take(f"{fragment}@splitters")  # consumed; value known globally
            keys, positions = held(server.take(f"{fragment}@sorted"), 2)
            buckets = splitter_buckets(keys, positions, splitters)
            cuts = np.searchsorted(buckets, np.arange(p + 1)).tolist()
            for dest, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                if hi > lo:
                    rnd.send_columns(dest, out_fragment, [keys[lo:hi], positions[lo:hi]])
    final_sort(cluster, out_fragment)
    return splitters


def psrs_sort(
    items: Sequence[Any],
    p: int,
    key: Key = identity_key,
    seed: int = 0,
    use_random_sampling: bool = False,
) -> tuple[list[Any], RunStats]:
    """Sort ``items`` on a fresh ``p``-server cluster with PSRS.

    Returns ``(sorted_items, stats)``: the caller's own items, in
    ``sorted(items, key=key)`` order (ties keep their original order), and
    the run's statistics. ``key`` runs once per item, on the coordinator.
    """
    cluster = Cluster(p, seed=seed)
    scatter_keys(cluster, "items", key_column(items, key))
    psrs_partition(cluster, "items", "items@out", use_random_sampling=use_random_sampling)
    return [items[i] for i in sorted_positions(cluster, "items@out")], cluster.stats
