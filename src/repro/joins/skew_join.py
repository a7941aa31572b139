"""The skew-resilient two-way join (slides 29–30).

Heavy hitters — join values of degree ≥ IN/p in R or S — would overload
a hash-partitioned server, so they are peeled off and handled by grid
Cartesian products on exclusive server allocations, while light values
take the ordinary parallel hash join. Choosing the per-value allocations
proportional to output contributions yields

    L = O( √(OUT/p) + IN/p ),

the optimal load for any skew (slide 30).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.data.relation import Relation, union_all
from repro.joins.base import (
    JoinRun,
    estimate_join_size,
    join_schemas,
    require_join_key,
)
from repro.joins.hash_join import one_round_hash_join
from repro.joins.heavy import heavy_products
from repro.kernels.columnar import zip_rows
from repro.kernels.join import lookup_codes
from repro.kernels.memo import cached_view, degree_view, ordered
from repro.mpc.cluster import Cluster
from repro.mpc.stats import MemoStats

Row = tuple[Any, ...]


def find_heavy_keys(
    r: Relation,
    s: Relation,
    shared: tuple[str, ...],
    threshold: float | tuple[float, float],
) -> list[Row]:
    """Join-key values of degree ≥ threshold in R or in S, in the degree
    views' :func:`~repro.kernels.memo.ordered` order.

    ``threshold`` may be a single cutoff applied to both sides (the
    tutorial's IN/p) or an ``(r_threshold, s_threshold)`` pair for the
    per-relation m/p rule of arXiv:1401.1872, where each relation's
    heavy hitters are judged against its own cardinality.
    """
    if isinstance(threshold, tuple):
        r_threshold, s_threshold = threshold
    else:
        r_threshold = s_threshold = threshold
    heavy: dict[Row, None] = {}
    for rel, cutoff in ((r, r_threshold), (s, s_threshold)):
        keys, counts = degree_view(rel, rel.schema.indices(shared))
        heavy.update(dict.fromkeys(zip_rows([k[counts >= cutoff] for k in keys])))
    return ordered(heavy)


def _light_part(
    rel: Relation, shared: tuple[str, ...], heavy_keys: list[Row], stats: MemoStats | None = None
) -> Relation:
    """``rel`` without the rows whose join key is heavy (``rel`` itself when
    none is): one code lookup over the key columns, kept as a view of ``rel``."""
    if not heavy_keys:
        return rel
    def build() -> Relation:
        keys = [rel.columns()[i] for i in rel.schema.indices(shared)]
        light = np.flatnonzero(lookup_codes(keys, heavy_keys) < 0)
        return Relation.from_columns(rel.name, rel.schema, [c[light] for c in rel.columns()])
    return cached_view(rel, ("light", shared, tuple(heavy_keys)), build, stats)


def skew_join(
    r: Relation,
    s: Relation,
    p: int,
    seed: int = 0,
    threshold: float | tuple[float, float] | None = None,
) -> JoinRun:
    """Skew-aware natural join: hash join for light values, grid products
    for heavy ones, all in one (model) round on side-by-side pools of one
    cluster — the light join's, then the heavy products'.

    ``threshold`` defaults to the tutorial's IN/p. Lower thresholds peel
    more values into products (an ablation knob); an ``(r, s)`` pair
    applies the per-relation m/p rule (see :func:`find_heavy_keys`).
    """
    shared = require_join_key(r, s)
    in_size = len(r) + len(s)
    if threshold is None:
        threshold = in_size / p
    heavy_keys = find_heavy_keys(r, s, shared, threshold)
    cluster = Cluster(p, seed=seed)
    r_light, s_light = (_light_part(rel, shared, heavy_keys, cluster.stats.memo) for rel in (r, s))

    # Server budget: the light hash join's load is ~IN_light/p_light while
    # the heavy products pay ~sqrt(OUT_heavy/p_heavy); scan all splits and
    # take the one minimizing the analytic max (exact sizes are known to
    # the simulator; an engine would use sketched estimates).
    import math

    light_in = len(r_light) + len(s_light)
    out_estimate = estimate_join_size(r, s)
    light_out_estimate = max(
        out_estimate - estimate_join_size(r, s, keys=heavy_keys), 1
    )
    heavy_out_estimate = max(out_estimate - light_out_estimate, 0)
    p_heavy = 0
    if heavy_keys and p > 1:
        best_split, best_cost = 1, math.inf
        for candidate in range(1, p):
            p_l = p - candidate
            light_cost = light_in / p_l if light_in else 0.0
            heavy_cost = math.sqrt(heavy_out_estimate / candidate)
            cost = max(light_cost, heavy_cost)
            if cost < best_cost:
                best_cost = cost
                best_split = candidate
        p_heavy = best_split
    p_light = p - p_heavy

    _shared, schema = join_schemas(r, s)

    def light(pool: Cluster) -> Relation:
        return one_round_hash_join(pool, r_light, s_light, "hash-shuffle", "OUT")

    def heavy(pool: Cluster) -> Relation:
        return heavy_products(pool, r, s, shared, heavy_keys, pool.p, seed)

    sides = []
    if p_light > 0 and (len(r_light) or len(s_light)):
        sides.append((light, p_light))
    if heavy_keys and p_heavy > 0:
        sides.append((heavy, p_heavy))
    parts = cluster.side_by_side(
        [size for _, size in sides], seed, lambda i, pool: sides[i][0](pool)
    )
    output = union_all("OUT", parts or [Relation("OUT", schema)])
    return JoinRun(output, cluster.stats)
