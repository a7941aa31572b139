"""The parallel sort join (slide 31, [Hu et al. '17]).

1. Union R and S (tuples tagged with their origin).
2. Parallel-sort the union by join key (PSRS).
3. Key groups entirely inside one server join locally; keys straddling a
   server boundary fall back to the grid Cartesian product on dedicated
   servers.

Achieves the same optimal bound as the skew-aware hash join,
``L = O(√(OUT/p) + IN/p)``, because a key can only straddle servers if
its degree is Ω(1) fraction of a server's range.
"""

from __future__ import annotations

from typing import Any

from repro.data.relation import Relation, union_all
from repro.joins.base import JoinRun, require_join_key
from repro.joins.heavy import heavy_value_products
from repro.joins.local import hash_join_rows
from repro.mpc.cluster import Cluster, combine_parallel
from repro.sorting.psrs import IndexKey, psrs_partition

Row = tuple[Any, ...]


def sort_join(
    r: Relation,
    s: Relation,
    p: int,
    seed: int = 0,
) -> JoinRun:
    """Sort-based natural join of R and S on ``p`` servers."""
    shared = require_join_key(r, s)
    r_idx = r.schema.indices(shared)
    s_idx = s.schema.indices(shared)
    extra = [a for a in s.schema.attributes if a not in r.schema]
    extra_idx = s.schema.indices(extra)

    cluster = Cluster(p, seed=seed)
    # Tagged union: (key, origin, serial, original row). Tags ride along
    # for free (metadata of the tuple, not extra tuples). The serial
    # breaks ties so heavily duplicated keys spread across servers — the
    # straddling-key pass below re-collects them.
    union_rows = [
        (tuple(row[i] for i in r_idx), 0, serial, row)
        for serial, row in enumerate(r)
    ]
    union_rows += [
        (tuple(row[i] for i in s_idx), 1, len(r) + serial, row)
        for serial, row in enumerate(s)
    ]
    cluster.scatter_rows(union_rows, "U")

    psrs_partition(cluster, "U", "U@sorted", key=IndexKey(0, 2))

    # Identify keys that straddle a server boundary: each server reports
    # its first and last key to the coordinator (2 tuples per server).
    with cluster.round("boundary-report") as rnd:
        for server in cluster.servers:
            frag = server.get("U@sorted")
            if frag:
                rnd.send(0, "bounds", (server.sid, frag[0][0], frag[-1][0]))
    straddling = _straddling_keys(cluster.servers[0].take("bounds"))

    # Local join of non-straddling key groups.
    out_rows: list[Row] = []
    for server in cluster.servers:
        r_local = [t[3] for t in server.get("U@sorted") if t[1] == 0 and t[0] not in straddling]
        s_local = [t[3] for t in server.get("U@sorted") if t[1] == 1 and t[0] not in straddling]
        out_rows.extend(
            hash_join_rows(r_local, s_local, r_idx, s_idx, extra_idx)
        )

    runs = [cluster.stats]
    parts = [Relation("OUT", list(r.schema.attributes) + extra, out_rows)]
    if straddling:
        heavy_part, heavy_runs = heavy_value_products(
            r, s, shared, sorted(straddling), max(p // 2, 1), seed=seed
        )
        parts.append(heavy_part)
        runs.extend(heavy_runs)
    return JoinRun(union_all("OUT", parts), combine_parallel(p, runs))


def _straddling_keys(bounds: list[Row]) -> set[Row]:
    """Keys appearing on more than one server, from (sid, first, last) reports."""
    ordered = sorted(bounds)
    straddling: set[Row] = set()
    for (_, _, prev_last), (_, next_first, _) in zip(ordered, ordered[1:]):
        if prev_last == next_first:
            straddling.add(prev_last)
    return straddling
