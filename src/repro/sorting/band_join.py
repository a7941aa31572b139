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

from typing import Any

from repro.data.relation import Relation
from repro.joins.base import JoinRun
from repro.mpc.cluster import Cluster
from repro.sorting.psrs import IndexKey, psrs_partition

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
    r_pos = r.schema.index(r_key)
    s_pos = s.schema.index(s_key)

    cluster = Cluster(p, seed=seed)
    union_rows = [(row[r_pos], 0, i, row) for i, row in enumerate(r)]
    union_rows += [(row[s_pos], 1, len(r) + i, row) for i, row in enumerate(s)]
    cluster.scatter_rows(union_rows, "U")

    splitters = psrs_partition(cluster, "U", "U@sorted", key=IndexKey(0, 2))
    # The PSRS sort key is composite (key, serial); recover the numeric
    # boundaries. Range i covers keys in (boundary[i-1], boundary[i]].
    boundaries = [b[0] for b in splitters]

    # Replicate every item to all ranges its ε-window [key−ε, key+ε]
    # intersects (handles ε wider than a range, including empty ranges).
    import bisect

    with cluster.round("band-replicate") as rnd:
        for server in cluster.servers:
            for item in server.get("U@sorted"):
                key = item[0]
                lo = bisect.bisect_left(boundaries, key - epsilon)
                hi = bisect.bisect_right(boundaries, key + epsilon)
                for bucket in range(lo, min(hi, p - 1) + 1):
                    if bucket != server.sid:
                        rnd.send(bucket, "U@extra", item)

    out_rows: list[Row] = []
    seen_pairs: set[tuple[int, int]] = set()
    for server in cluster.servers:
        local = server.get("U@sorted") + server.get("U@extra")
        r_items = [(t[0], t[2], t[3]) for t in local if t[1] == 0]
        s_items = [(t[0], t[2], t[3]) for t in local if t[1] == 1]
        for rk, rid, rrow in r_items:
            for sk, sid_, srow in s_items:
                if abs(rk - sk) <= epsilon and (rid, sid_) not in seen_pairs:
                    seen_pairs.add((rid, sid_))
                    out_rows.append(rrow + srow)

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
