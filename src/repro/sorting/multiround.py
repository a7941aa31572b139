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
from collections.abc import Sequence
from typing import Any

from repro.kernels.columnar import concatenated, zip_rows
from repro.kernels.partition import partition_indices
from repro.kernels.splitters import splitter_buckets
from repro.mpc.cluster import Cluster
from repro.mpc.server import held
from repro.mpc.stats import RunStats
from repro.sorting.psrs import (
    Key,
    final_sort,
    identity_key,
    key_column,
    scatter_keys,
    sorted_pair,
    sorted_positions,
)
from repro.sorting.splitters import choose_splitters, regular_sample


def multiround_sort(
    items: Sequence[Any],
    p: int,
    load_cap: int,
    key: Key = identity_key,
    seed: int = 0,
) -> tuple[list[Any], RunStats]:
    """Sort with per-round load ≈ ``load_cap`` in O(log_L N) rounds.

    Returns ``(sorted_items, stats)``, as :func:`~repro.sorting.psrs.psrs_sort`
    does: the same (key, position) columns, so duplicated keys spread by
    position too. ``load_cap`` only steers the fanout (it is a target, not
    a hard cap — sampling noise can overshoot by a constant factor, as in
    the original analysis).
    """
    if load_cap < 2:
        raise ValueError("load_cap must be at least 2")
    cluster = Cluster(p, seed=seed)
    scatter_keys(cluster, "run", key_column(items, key))

    # Groups of servers owning one key range each, refined level by level.
    fanout = max(2, math.isqrt(load_cap))
    groups: list[list[int]] = [list(range(p))]
    level = 0
    while any(len(g) > 1 for g in groups):
        groups = _refine_level(cluster, groups, fanout, level)
        level += 1

    final_sort(cluster, "run")
    return [items[i] for i in sorted_positions(cluster, "run")], cluster.stats


def _refine_level(
    cluster: Cluster,
    groups: list[list[int]],
    fanout: int,
    level: int,
) -> list[list[int]]:
    """One level: every multi-server group splits into ≤ fanout subgroups.

    All groups advance in the same two rounds (sample gather + partition),
    which is what makes the total round count the tree depth, not the
    node count.
    """
    splitting = [group for group in groups if len(group) > 1]

    # Round 1: within each group, regular samples to the group leader.
    with cluster.round(f"msort-sample-{level}") as rnd:
        for group in splitting:
            f = min(fanout, len(group))
            for sid in group:
                keys, positions = sorted_pair(*held(cluster.servers[sid].get("run"), 2))
                picks = regular_sample(range(len(keys)), f - 1)
                if picks:
                    rnd.send_columns(group[0], "samples", [keys[picks], positions[picks]])

    # Leaders choose splitters (consumed locally, no extra round needed
    # beyond the implicit broadcast below, folded into the partition round
    # by sending items directly — splitters are tiny).
    plans = []
    for group in splitting:
        f = min(fanout, len(group))
        pooled = zip_rows(held(cluster.servers[group[0]].take("samples"), 2))
        plans.append((group, _split_servers(group, f), choose_splitters(pooled, f)))

    # Round 2: partition each group's data into its subgroups, dealing each
    # interval's items round-robin over the subgroup's servers.
    with cluster.round(f"msort-partition-{level}") as rnd:
        for group, subgroups, splitters in plans:
            parts = [held(cluster.servers[sid].take("run"), 2) for sid in group]
            keys, positions = (concatenated(blocks) for blocks in zip(*parts))
            buckets = splitter_buckets(keys, positions, splitters)
            for subgroup, picked in zip(subgroups, partition_indices(buckets, len(subgroups))):
                for k, dest in enumerate(subgroup):
                    dealt = picked[k :: len(subgroup)]
                    if len(dealt):
                        rnd.send_columns(dest, "run", [keys[dealt], positions[dealt]])

    next_groups = [group for group in groups if len(group) <= 1]
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
