"""Per-heavy-value Cartesian products (slide 30, step 2).

Both the skew-aware hash join and the parallel sort join fall back to the
grid Cartesian product for join values whose degree is too high for hash
partitioning. Each heavy value ``b`` gets ``p_b`` *exclusive* servers,
sized proportionally to its output contribution ``|R_b|·|S_b|``, so all
heavy products finish with balanced load ``O(√(OUT/p))`` while running in
parallel (in the model) with the light-value join.
"""

from __future__ import annotations

from typing import Any

from repro.data.relation import Relation
from repro.mpc.cluster import Cluster
from repro.mpc.stats import RunStats

Row = tuple[Any, ...]


def allocate_servers(weights: list[float], p: int) -> list[int]:
    """Split ``p`` servers proportionally to ``weights`` (≥ 1 each).

    Largest-remainder rounding; every entry gets at least one server even
    when its weight is tiny, and the total never exceeds ``p`` unless
    forced by the ≥1 floor.
    """
    if not weights:
        return []
    total = sum(weights) or 1.0
    raw = [w / total * p for w in weights]
    floors = [max(1, int(x)) for x in raw]
    spare = p - sum(floors)
    if spare > 0:
        remainders = sorted(
            range(len(raw)), key=lambda i: raw[i] - int(raw[i]), reverse=True
        )
        for i in remainders[:spare]:
            floors[i] += 1
    return floors


def heavy_value_products(
    r: Relation,
    s: Relation,
    shared: tuple[str, ...],
    heavy_keys: list[Row],
    p: int,
    seed: int = 0,
) -> tuple[list[Row], list[RunStats]]:
    """Join R ⋈ S restricted to the given heavy join-key values.

    Returns the output rows (in R-then-S-extra attribute order, matching
    :meth:`Relation.join`) and one :class:`RunStats` per heavy value; the
    sub-runs execute on exclusive servers, so callers combine them with
    :func:`repro.mpc.cluster.combine_parallel`.
    """
    if not heavy_keys:
        return [], []

    r_idx = r.schema.indices(shared)
    s_idx = s.schema.indices(shared)
    extra = [a for a in s.schema.attributes if a not in r.schema]
    extra_idx = s.schema.indices(extra)

    r_groups: dict[Row, list[Row]] = {k: [] for k in heavy_keys}
    s_groups: dict[Row, list[Row]] = {k: [] for k in heavy_keys}
    for row in r:
        key = tuple(row[i] for i in r_idx)
        if key in r_groups:
            r_groups[key].append(row)
    for row in s:
        key = tuple(row[i] for i in s_idx)
        if key in s_groups:
            s_groups[key].append(row)

    # Proportional allocation; values whose fair share is below one whole
    # server are *packed* onto a shared pool (several heavy values per
    # server) instead of each grabbing a dedicated server — otherwise
    # more heavy values than servers would oversubscribe the cluster.
    weights = [max(len(r_groups[k]) * len(s_groups[k]), 1) for k in heavy_keys]
    total = sum(weights)
    big: list[tuple[Row, int]] = []
    small: list[Row] = []
    for key, weight in zip(heavy_keys, weights):
        share = weight / total * p
        if share >= 1.0:
            big.append((key, max(1, int(share))))
        else:
            small.append(key)
    p_big = sum(alloc for _, alloc in big)
    p_small = max(p - p_big, 1) if small else 0

    out_rows: list[Row] = []
    runs: list[RunStats] = []
    for key, p_b in big:
        rows, stats = _one_heavy_product(
            r, s, r_groups[key], s_groups[key], extra_idx, p_b, seed
        )
        out_rows.extend(rows)
        runs.append(stats)
    if small:
        rows, stats = _packed_heavy_products(
            r_groups, s_groups, small, extra_idx, p_small, seed
        )
        out_rows.extend(rows)
        runs.append(stats)
    return out_rows, runs


def _packed_heavy_products(
    r_groups: dict[Row, list[Row]],
    s_groups: dict[Row, list[Row]],
    keys: list[Row],
    extra_idx: tuple[int, ...],
    p: int,
    seed: int,
) -> tuple[list[Row], RunStats]:
    """Many small heavy values share one pool, one server per value."""
    from repro.mpc.hashing import HashFamily

    cluster = Cluster(p, seed=seed)
    placement = HashFamily(seed + 77).function(0, p)
    for i, key in enumerate(keys):
        for j, row in enumerate(r_groups[key]):
            cluster.servers[(i + j) % p].fragment("R@src").append((key, row))
        for j, row in enumerate(s_groups[key]):
            cluster.servers[(i + j) % p].fragment("S@src").append((key, row))
    with cluster.round("heavy-packed") as rnd:
        for server in cluster.servers:
            for key, row in server.take("R@src"):
                rnd.send(placement(key), "R@v", (key, row))
            for key, row in server.take("S@src"):
                rnd.send(placement(key), "S@v", (key, row))
    out_rows: list[Row] = []
    for server in cluster.servers:
        r_local: dict[Row, list[Row]] = {}
        for key, row in server.take("R@v"):
            r_local.setdefault(key, []).append(row)
        s_local: dict[Row, list[Row]] = {}
        for key, row in server.take("S@v"):
            s_local.setdefault(key, []).append(row)
        for key, r_rows in r_local.items():
            for r_row in r_rows:
                for s_row in s_local.get(key, ()):
                    if extra_idx:
                        out_rows.append(r_row + tuple(s_row[i] for i in extra_idx))
                    else:
                        out_rows.append(r_row)
    return out_rows, cluster.stats


def _one_heavy_product(
    r: Relation,
    s: Relation,
    r_rows: list[Row],
    s_rows: list[Row],
    extra_idx: tuple[int, ...],
    p_b: int,
    seed: int,
) -> tuple[list[Row], RunStats]:
    """Grid product of one heavy value's tuples on ``p_b`` exclusive servers."""
    from repro.joins.cartesian import cartesian_on_cluster

    cluster = Cluster(max(p_b, 1), seed=seed)
    if not r_rows or not s_rows:
        return [], cluster.stats

    if extra_idx:
        left = Relation.wrap("Rb", [f"_l{i}" for i in range(r.schema.arity)], r_rows)
        right = Relation.wrap(
            "Sb",
            [f"_r{i}" for i in range(len(extra_idx))],
            [tuple(row[i] for i in extra_idx) for row in s_rows],
        )
        cartesian_on_cluster(cluster, left, right)
        return cluster.gather("out"), cluster.stats

    # S contributes no new attributes: the join just multiplies each R row
    # by the number of matching S rows. Spread R's rows, keep bag counts.
    multiplicity = len(s_rows)
    for i, row in enumerate(r_rows):
        cluster.servers[i % cluster.p].fragment("rb").append(row)
    with cluster.round("heavy-degenerate") as rnd:
        for server in cluster.servers:
            for row in server.take("rb"):
                rnd.send(server.sid, "out", row, units=1)
    rows = [row for row in cluster.gather("out") for _ in range(multiplicity)]
    return rows, cluster.stats
