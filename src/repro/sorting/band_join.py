"""Similarity (band) joins via parallel sorting (slide 99).

Slide 99 lists similarity joins among the applications of parallel
sorting. The 1-D *band join*

    OUT = { (a, b) ∈ R × S : |a.key − b.key| ≤ ε }

sorts the union of both inputs by key (PSRS), so matching pairs land in
the same or adjacent key ranges; each server then joins its range
locally, with items within ε of a range boundary *replicated* to the
neighbouring server so no cross-boundary pair is missed. Loads stay at
O(N/p + OUT/p + boundary replication).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any

from repro.data.relation import Relation
from repro.joins.base import JoinRun
from repro.kernels.columnar import concatenated
from repro.mpc.cluster import Cluster
from repro.mpc.server import held
from repro.sorting.psrs import psrs_partition, scatter_keys

Row = tuple[Any, ...]


def band_join(
    r: Relation,
    s: Relation,
    r_key: str,
    s_key: str,
    epsilon: float,
    p: int,
    seed: int = 0,
) -> JoinRun:
    """All pairs (r_row, s_row) with |r.key − s.key| ≤ ε, distributed.

    Output schema: R's attributes followed by S's (prefixed on clash).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")

    # The union sorts as (band key, position) columns; a position is the
    # row's serial: R's rows first, then S's.
    cluster = Cluster(p, seed=seed)
    keys = concatenated([r.columns()[r.schema.index(r_key)], s.columns()[s.schema.index(s_key)]])
    scatter_keys(cluster, "U", keys)
    splitters = psrs_partition(cluster, "U", "U@sorted")
    # Range i covers keys in (boundary[i-1], boundary[i]].
    boundaries = [b[0] for b in splitters]

    # Replicate every item to all ranges its ε-window [key−ε, key+ε]
    # intersects (handles ε wider than a range, including empty ranges).
    with cluster.round("band-replicate") as rnd:
        for server in cluster.servers:
            keys, positions = held(server.get("U@sorted"), 2)
            reach: list[list[int]] = [[] for _ in range(p)]
            for i, key in enumerate(keys.tolist()):
                lo = bisect_left(boundaries, key - epsilon)
                hi = bisect_right(boundaries, key + epsilon)
                for bucket in range(lo, min(hi, p - 1) + 1):
                    if bucket != server.sid:
                        reach[bucket].append(i)
            for bucket, picked in enumerate(reach):
                if picked:
                    rnd.send_columns(bucket, "U@extra", [keys[picked], positions[picked]])

    rows = r.rows() + s.rows()
    out_rows: list[Row] = []
    seen_pairs: set[tuple[int, int]] = set()
    for server in cluster.servers:
        local = zip(held(server.get("U@sorted"), 2), held(server.get("U@extra"), 2))
        keys, positions = (concatenated(blocks).tolist() for blocks in local)
        r_items = [(k, i) for k, i in zip(keys, positions) if i < len(r)]
        s_items = [(k, i) for k, i in zip(keys, positions) if i >= len(r)]
        for rk, rid in r_items:
            for sk, sid_ in s_items:
                if abs(rk - sk) <= epsilon and (rid, sid_) not in seen_pairs:
                    seen_pairs.add((rid, sid_))
                    out_rows.append(rows[rid] + rows[sid_])

    out_attrs = list(r.schema.attributes) + [
        a if a not in r.schema else f"s_{a}" for a in s.schema.attributes
    ]
    output = Relation("OUT", out_attrs, out_rows)
    return JoinRun(output, cluster.stats)


def reference_band_join(
    r: Relation, s: Relation, r_key: str, s_key: str, epsilon: float
) -> list[Row]:
    """Brute-force ground truth."""
    r_pos = r.schema.index(r_key)
    s_pos = s.schema.index(s_key)
    return sorted(
        rrow + srow
        for rrow in r
        for srow in s
        if abs(rrow[r_pos] - srow[s_pos]) <= epsilon
    )
