"""Heavy-Light + Semijoin plans (slides 58–59).

Semijoins shrink relations without ever growing intermediates, which is
what makes multi-round plans beat one-round algorithms under skew:

- slide 58's easy case — R(x) ⋈ S(x,y) ⋈ T(y): two semijoin rounds
  reduce S, then the (already-filtered) output is emitted with
  L = O(IN/p) even though one-round needs IN/p^{1/2};
- slide 59's triangle plan — light z-values go to HyperCube, each heavy
  z-value h spawns the residual R(x,y) ⋉ S'(y) ⋉ T'(x) handled by two
  semijoin rounds on its own servers. Two rounds total with
  L = O(IN/p^{2/3}), worst-case optimal *despite* skew.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

import numpy as np

from repro.data.relation import Relation, union_all
from repro.kernels.columnar import column_of
from repro.kernels.memo import counts_at, degree_view, grouped, ordered
from repro.mpc.cluster import Cluster
from repro.multiway.base import MultiwayRun, on_pools, semijoin_step
from repro.query.cq import triangle_query, two_path_query


def two_path_semijoin_plan(
    r: Relation,
    s: Relation,
    t: Relation,
    p: int,
    seed: int = 0,
) -> MultiwayRun:
    """Slide 58: evaluate R(x) ⋈ S(x,y) ⋈ T(y) by pure semijoins.

    Round 1: TMP(x,y) = S ⋉ R; round 2: OUT = TMP ⋉ T. Both rounds move
    O(IN) tuples total, so L = O(IN/p) regardless of skew — while any
    one-round algorithm needs IN/p^{1/2} (ψ* = 2).
    """
    cluster = Cluster(p, seed=seed)
    with cluster.step(seed) as step:
        tmp = semijoin_step(step, s, [r], label="semijoin-R")
    with cluster.step(seed + 1) as step:
        reduced = semijoin_step(step, tmp, [t], label="semijoin-T")
    # Bag semantics: each surviving S tuple joins every matching R and T copy.
    x, y = reduced.project(["x", "y"]).columns()
    times = _times(r, "x", x) * _times(t, "y", y)
    output = Relation.from_columns("OUT", ["x", "y"], [np.repeat(x, times), np.repeat(y, times)])
    return MultiwayRun(output, cluster.stats, {"query": str(two_path_query())})


def triangle_hl_semijoin(
    r: Relation,
    s: Relation,
    t: Relation,
    p: int,
    seed: int = 0,
    threshold: float | None = None,
) -> MultiwayRun:
    """Slide 59: the Heavy-Light + Semijoin triangle algorithm.

    ``threshold`` defaults to IN/p^{1/3} — z-values of lower degree are
    *light* and handled by one HyperCube round on most of the cluster;
    each heavy value gets a two-round semijoin residual on its own
    allocation. Worst-case optimal: r = 2, L = O(IN/p^{2/3}).
    """
    from repro.multiway.hypercube import hypercube_on

    n = max(len(r), len(s), len(t))
    if threshold is None:
        threshold = max(n / p ** (1.0 / 3.0), 1.0)

    # Heavy z-values by joint degree in S(y,z) and T(z,x): one grouping of both columns.
    (zs,), degrees = grouped(union_all("Z", [s.project(["z"]), t.project(["z"])]).columns())
    heavy = degrees >= threshold
    pairs = ordered(zip(zs[heavy].tolist(), degrees[heavy].tolist()), key=itemgetter(0))
    heavy_z = [z for z, _ in pairs]
    heavy_set = set(heavy_z)

    s_light = s.select(lambda row: row[1] not in heavy_set)  # z is position 1 of S(y,z)
    t_light = t.select(lambda row: row[0] not in heavy_set)  # z is position 0 of T(z,x)

    # Server split: light HyperCube gets servers ∝ its input share, the
    # heavy residuals the rest, each heavy value ∝ its degree.
    light_in = len(r) + len(s_light) + len(t_light)
    heavy_in = (len(s) - len(s_light)) + (len(t) - len(t_light)) + len(r)

    def light(pool: Cluster) -> list:
        output, _details = hypercube_on(
            pool, triangle_query(), {"R": r, "S": s_light, "T": t_light}
        )
        return [output.columns()]

    def heavy_residuals(pool: Cluster) -> list:
        return on_pools(
            pool, heavy_z, [degree for _, degree in pairs], seed,
            lambda z_value, pool_z: _heavy_z_residual(pool_z, r, s, t, z_value, seed),
        )

    sides, weights = [light], [light_in]
    if heavy_z:
        sides, weights = [light, heavy_residuals], [light_in, heavy_in]
    cluster = Cluster(p, seed=seed)
    parts = on_pools(cluster, sides, weights, seed, lambda side, pool: side(pool))
    columns = [part for side_parts in parts for part in side_parts]
    output = Relation.from_chunks("OUT", ["x", "y", "z"], list(zip(*columns)))
    return MultiwayRun(output, cluster.stats, {"heavy_z": heavy_z, "threshold": threshold})


def _heavy_z_residual(
    pool: Cluster, r: Relation, s: Relation, t: Relation, z_value: Any, seed: int
) -> list[np.ndarray]:
    """q(z=h): R(x,y) ⋉ S'(y) ⋉ T'(x) via two semijoin rounds (slide 59)
    on ``pool``; the output's (x, y, z) columns."""
    s_h = s.select(lambda row: row[1] == z_value).project(["y"], name="Sh")
    t_h = t.select(lambda row: row[0] == z_value).project(["x"], name="Th")
    if not len(s_h) or not len(t_h):
        return [np.empty(0, np.int64)] * 3
    with pool.step(seed) as step:
        reduced = semijoin_step(step, r, [s_h], label="semijoin-S@z")
    with pool.step(seed + 1) as step:
        reduced = semijoin_step(step, reduced, [t_h], label="semijoin-T@z")
    # Multiplicity: bag semantics count matching S and T tuples per (x,y).
    x, y = reduced.project(["x", "y"]).columns()
    times = _times(s_h, "y", y) * _times(t_h, "x", x)
    z = np.repeat(column_of([z_value]), int(times.sum()))
    return [np.repeat(x, times), np.repeat(y, times), z]


def _times(rel: Relation, attribute: str, column: np.ndarray) -> np.ndarray:
    """Per value of ``column``, how many rows of ``rel`` hold it as ``attribute`` (its degree view)."""
    return counts_at(degree_view(rel, rel.schema.indices([attribute])), [column])
