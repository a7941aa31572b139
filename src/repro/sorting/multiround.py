"""Multi-round sorting under a per-round load cap (slides 103–105).

When the permitted load ``L`` is small (many servers, ``p ≈ N/L``), PSRS
breaks down: its coordinator must absorb ``p(p−1)`` samples in one round.
Goodrich's BSP algorithm sorts with load ``L`` in ``O(log_L N)`` rounds;
the tutorial notes it is "very complex", so — per the survey's own
suggestion — we implement the standard simplification: a *hierarchical
sample sort*. Each level splits a group of ``g`` servers into ``f ≈ √L``
sub-ranges using sampled splitters, recursing until groups are single
servers. The depth is ``log_f p = O(log_L N)`` when ``L = Θ(N/p)``,
reproducing Goodrich's round bound; per-level partition loads stay O(L).

The round lower bound Ω(log_L N) (slide 105) is checked against this
implementation in the benchmarks.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import Any

from repro.mpc.cluster import Cluster
from repro.mpc.stats import RunStats
from repro.sorting.psrs import RowKey, identity_key
from repro.sorting.splitters import bucket_of, choose_splitters, regular_sample

Key = Callable[[Any], Any]


def multiround_sort(
    items: Sequence[Any],
    p: int,
    load_cap: int,
    key: Key = identity_key,
    seed: int = 0,
) -> tuple[list[Any], RunStats]:
    """Sort with per-round load ≈ ``load_cap`` in O(log_L N) rounds.

    Returns ``(sorted_items, stats)``. ``load_cap`` only steers the fanout
    (it is a target, not a hard cap — sampling noise can overshoot by a
    constant factor, as in the original analysis).
    """
    if load_cap < 2:
        raise ValueError("load_cap must be at least 2")
    cluster = Cluster(p, seed=seed)
    cluster.scatter_rows([(x,) for x in items], "run")
    row_key = RowKey(key)  # picklable adapter: process-backend eligible

    # Groups of servers owning one key range each, refined level by level.
    fanout = max(2, math.isqrt(load_cap))
    groups: list[list[int]] = [list(range(p))]
    level = 0
    while any(len(g) > 1 for g in groups):
        groups = _refine_level(cluster, groups, fanout, row_key, level)
        level += 1

    final_payloads = [server.take("run") for server in cluster.servers]
    for server, local in zip(
        cluster.servers, cluster.map_servers("psrs.finalsort", final_payloads, row_key)
    ):
        server.put("run", local)
    output = [row[0] for row in cluster.gather("run")]
    return output, cluster.stats


def _refine_level(
    cluster: Cluster,
    groups: list[list[int]],
    fanout: int,
    row_key: Key,
    level: int,
) -> list[list[int]]:
    """One level: every multi-server group splits into ≤ fanout subgroups.

    All groups advance in the same two rounds (sample gather + partition),
    which is what makes the total round count the tree depth, not the
    node count.
    """
    plans: list[tuple[list[int], list[list[int]], list[Any]]] = []

    # Round 1: within each group, regular samples to the group leader.
    with cluster.round(f"msort-sample-{level}") as rnd:
        for group in groups:
            if len(group) <= 1:
                continue
            leader = group[0]
            f = min(fanout, len(group))
            for sid in group:
                local = sorted(cluster.servers[sid].get("run"), key=row_key)
                for item in regular_sample(local, f - 1):
                    rnd.send(leader, "samples", (row_key(item),))

    # Leaders choose splitters (consumed locally, no extra round needed
    # beyond the implicit broadcast below, folded into the partition round
    # by sending items directly — splitters are tiny).
    for group in groups:
        if len(group) <= 1:
            continue
        leader = group[0]
        f = min(fanout, len(group))
        pooled = [k for (k,) in cluster.servers[leader].take("samples")]
        splitters = choose_splitters(pooled, f)
        subgroups = _split_servers(group, f)
        plans.append((group, subgroups, splitters))

    # Round 2: partition each group's data into its subgroups.
    with cluster.round(f"msort-partition-{level}") as rnd:
        for group, subgroups, splitters in plans:
            counters = [0] * len(subgroups)
            for sid in group:
                for item in cluster.servers[sid].take("run"):
                    b = min(bucket_of(row_key(item), splitters), len(subgroups) - 1)
                    target_group = subgroups[b]
                    dest = target_group[counters[b] % len(target_group)]
                    counters[b] += 1
                    rnd.send(dest, "run", item)

    next_groups: list[list[int]] = []
    for group in groups:
        if len(group) <= 1:
            next_groups.append(group)
    for _group, subgroups, _splitters in plans:
        next_groups.extend(subgroups)
    return next_groups


def _split_servers(group: list[int], parts: int) -> list[list[int]]:
    """Split a server group into ``parts`` contiguous non-empty subgroups."""
    parts = min(parts, len(group))
    base, extra = divmod(len(group), parts)
    subgroups = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        subgroups.append(group[start : start + size])
        start += size
    return subgroups


def expected_rounds(n: int, load_cap: int) -> float:
    """The Goodrich round bound Θ(log_L N) this algorithm targets."""
    if load_cap <= 1:
        raise ValueError("load_cap must exceed 1")
    return math.log(max(n, 2)) / math.log(load_cap)
