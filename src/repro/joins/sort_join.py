"""The parallel sort join (slide 31, [Hu et al. '17]).

1. Union R and S (tuples tagged with their origin).
2. Parallel-sort the union by join key (PSRS).
3. Key groups entirely inside one server join locally; keys straddling a
   server boundary fall back to grid Cartesian products on dedicated
   servers: SkewHC's residuals with those keys as the heavy values.

Achieves the same optimal bound as the skew-aware hash join,
``L = O(√(OUT/p) + IN/p)``, because a key can only straddle servers if
its degree is Ω(1) fraction of a server's range.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.data.relation import Relation, union_all
from repro.joins.base import JoinRun, require_join_key
from repro.kernels.columnar import column_of, concatenated, zip_rows
from repro.kernels.join import code_key_columns, join_indices, lookup_codes
from repro.mpc.cluster import Cluster
from repro.mpc.server import held
from repro.sorting.psrs import psrs_partition, scatter_keys

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

    # The tagged union sorts as (join key, position) columns. A position is
    # the row's serial — R's rows first, then S's — so it names the origin
    # and the row, and breaks ties so heavily duplicated keys spread across
    # servers (the straddling-key pass below re-collects them).
    cluster = Cluster(p, seed=seed)
    scatter_keys(cluster, "U", concatenated([_join_key(r, r_idx), _join_key(s, s_idx)]))
    psrs_partition(cluster, "U", "U@sorted")

    # Identify keys that straddle a server boundary: each server reports
    # its first and last key to the coordinator (2 tuples per server).
    with cluster.round("boundary-report") as rnd:
        for server in cluster.servers:
            keys, _ = held(server.get("U@sorted"), 2)
            if len(keys):
                rnd.send_columns(0, "bounds", [np.array([server.sid]), keys[:1], keys[-1:]])
    straddling = _straddling_keys(zip_rows(held(cluster.servers[0].take("bounds"), 3)))

    # Local join of non-straddling key groups, one pass over every server's
    # pairs in server order: such a key sits on one server only, so each R
    # item meets exactly the S items of its own server, in their order.
    keys, positions = (
        concatenated(blocks)
        for blocks in zip(*(held(server.get("U@sorted"), 2) for server in cluster.servers))
    )
    kept = lookup_codes([keys], [(k,) for k in straddling]) < 0
    from_r, from_s = kept & (positions < len(r)), kept & (positions >= len(r))
    left, right = join_indices(*code_key_columns([keys[from_r]], [keys[from_s]]))
    r_rows, s_rows = positions[from_r][left], positions[from_s][right] - len(r)
    columns = [column[r_rows] for column in r.columns()]
    columns += [s.columns()[i][s_rows] for i in extra_idx]

    parts = [Relation.from_columns("OUT", list(r.schema.attributes) + extra, columns)]
    if straddling:
        heavy = sorted(straddling)
        # The products need the boundary report: they run after it, their
        # pools side by side in one round on the cluster's p servers (fewer
        # than p keys straddle, so every key's pool fits).
        from repro.multiway.skewhc import key_residuals  # multiway builds on joins

        products, _pools = key_residuals(
            cluster, r, s, shared, heavy if len(shared) > 1 else [(k,) for k in heavy], p, seed,
        )
        parts.append(products)
    return JoinRun(union_all("OUT", parts), cluster.stats)


def _join_key(rel: Relation, idx: list[int]) -> np.ndarray:
    """The join key column: the attribute's own, or a tuple per row."""
    columns = [rel.columns()[i] for i in idx]
    return columns[0] if len(columns) == 1 else column_of(zip_rows(columns))


def _straddling_keys(bounds: list[Row]) -> set[Row]:
    """Keys appearing on more than one server, from (sid, first, last) reports."""
    ordered = sorted(bounds)
    straddling: set[Row] = set()
    for (_, _, prev_last), (_, next_first, _) in zip(ordered, ordered[1:]):
        if prev_last == next_first:
            straddling.add(prev_last)
    return straddling
