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
    inline_local_join,
    join_schemas,
    require_join_key,
)
from repro.joins.hash_join import scatter_and_route
from repro.joins.heavy import heavy_value_products
from repro.kernels.join import lookup_codes
from repro.kernels.memo import key_degrees
from repro.mpc.cluster import Cluster, combine_parallel

Row = tuple[Any, ...]


def find_heavy_keys(
    r: Relation,
    s: Relation,
    shared: tuple[str, ...],
    threshold: float | tuple[float, float],
) -> list[Row]:
    """Join-key values of degree ≥ threshold in R or in S.

    ``threshold`` may be a single cutoff applied to both sides (the
    tutorial's IN/p) or an ``(r_threshold, s_threshold)`` pair for the
    per-relation m/p rule of arXiv:1401.1872, where each relation's
    heavy hitters are judged against its own cardinality.
    """
    if isinstance(threshold, tuple):
        r_threshold, s_threshold = threshold
    else:
        r_threshold = s_threshold = threshold
    r_deg = key_degrees(r, r.schema.indices(shared))
    s_deg = key_degrees(s, s.schema.indices(shared))
    heavy = {k for k, c in r_deg.items() if c >= r_threshold}
    heavy |= {k for k, c in s_deg.items() if c >= s_threshold}
    return sorted(heavy)


def _light_part(rel: Relation, shared: tuple[str, ...], heavy_keys: list[Row]) -> Relation:
    """``rel`` without the rows whose join key is heavy (``rel`` itself when
    none is): one code lookup over the key columns."""
    if not heavy_keys:
        return rel
    columns = rel.columns()
    keys = [columns[i] for i in rel.schema.indices(shared)]
    light = np.flatnonzero(lookup_codes(keys, heavy_keys) < 0)
    return Relation.from_columns(rel.name, rel.schema, [c[light] for c in columns])


def skew_join(
    r: Relation,
    s: Relation,
    p: int,
    seed: int = 0,
    threshold: float | tuple[float, float] | None = None,
) -> JoinRun:
    """Skew-aware natural join: hash join for light values, grid products
    for heavy ones, all in one (model) round on disjoint server pools.

    ``threshold`` defaults to the tutorial's IN/p. Lower thresholds peel
    more values into products (an ablation knob); an ``(r, s)`` pair
    applies the per-relation m/p rule (see :func:`find_heavy_keys`).
    """
    shared = require_join_key(r, s)
    in_size = len(r) + len(s)
    if threshold is None:
        threshold = in_size / p
    heavy_keys = find_heavy_keys(r, s, shared, threshold)
    r_light = _light_part(r, shared, heavy_keys)
    s_light = _light_part(s, shared, heavy_keys)

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

    runs = []
    _shared, schema = join_schemas(r, s)
    parts: list[Relation] = []

    if p_light > 0 and (len(r_light) or len(s_light)):
        light_cluster = Cluster(p_light, seed=seed)
        scatter_and_route(light_cluster, r_light, s_light, shared, "hash-shuffle")
        inline_local_join(light_cluster, "L@j", "R@j", r_light, s_light, "out")
        parts.append(light_cluster.gather_relation("out", "OUT", schema))
        runs.append(light_cluster.stats)

    if heavy_keys and p_heavy > 0:
        heavy_part, heavy_runs = heavy_value_products(
            r, s, shared, heavy_keys, p_heavy, seed=seed
        )
        parts.append(heavy_part)
        runs.extend(heavy_runs)

    output = union_all("OUT", parts or [Relation("OUT", schema)])
    return JoinRun(output, combine_parallel(p, runs))
