"""The skew-resilient two-way join (slides 29–30).

Heavy hitters — values of degree ≥ N/p in R or S, N the larger
relation — would overload a hash-partitioned server. Each heavy join
value ``y`` gets a residual R(x, y) × S(y, z) with ``y`` bound, a grid
product on a pool of its own, while the light values take one hash
join: SkewHC (arXiv:1401.1872) on the two-atom query, whose pools are
sized by their inputs and sit side by side in one round. Proportional
pools yield

    L = O( √(OUT/p) + IN/p ),

the optimal load for any skew (slide 30).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.data.relation import Relation
from repro.joins.base import JoinRun, require_join_key
from repro.kernels.columnar import zip_rows
from repro.kernels.join import lookup_codes
from repro.kernels.memo import degree_view, ordered
from repro.mpc.cluster import Cluster

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


def skew_join(
    r: Relation,
    s: Relation,
    p: int,
    seed: int = 0,
    threshold: float | tuple[float, float] | None = None,
) -> JoinRun:
    """Skew-aware natural join on ``p`` servers: SkewHC's residual plan for
    R ⋈ S (:func:`~repro.multiway.skewhc.two_way_query`) with only the join
    key peeled — one residual per heavy key and one for the light ones,
    side by side in one round, evaluated in one dispatch; a warm repeat
    replays the plan.

    ``threshold`` defaults to SkewHC's max(|R|, |S|)/p. Lower thresholds
    peel more keys into products (an ablation knob). An ``(r, s)`` pair
    applies the per-relation m/p rule of arXiv:1401.1872, each relation's
    heavy hitters judged against its own cardinality. The planner peels
    at ``(|R|/p, |S|/p)``, the rule its statistics price: one cut for both
    leaves keys it priced as products in the light residual (a key of
    degree 200 on both sides stays light at max(N)/p = 250 when |R| = 400,
    |S| = 4 000 and p = 16), which voids the prediction.

    At most ``p - 1`` keys are peeled, the largest by input |R_b| + |S_b|,
    so the residuals fit on ``p`` servers: the k-th largest key holds at
    most IN/k rows, so a key left to the hash join holds at most IN/p, a
    light server's fair share.
    """
    # multiway builds on joins, so the import waits for the call.
    from repro.multiway.skewhc import key_residuals

    shared = require_join_key(r, s)
    if threshold is None:
        threshold = max(max(len(r), len(s)) / p, 1.0)
    keys = _largest(r, s, shared, find_heavy_keys(r, s, shared, threshold), p - 1)
    cluster = Cluster(p, seed=seed)
    output, cluster.stats.pools = key_residuals(cluster, r, s, shared, keys, p, seed, light=True)
    return JoinRun(output, cluster.stats)


def _largest(r: Relation, s: Relation, shared: tuple[str, ...], keys: list[Row],
             count: int) -> list[Row]:
    """The ``count`` keys of largest input |R_b| + |S_b|, largest first
    (ties in ``keys``' order): ``keys`` itself when a one-column key has
    no more."""
    if len(keys) <= count and len(shared) == 1:
        return keys
    size = np.zeros(len(keys), dtype=np.int64)
    for rel in (r, s):
        columns, counts = degree_view(rel, rel.schema.indices(shared))
        codes = lookup_codes(columns, keys)
        np.add.at(size, codes[codes >= 0], counts[codes >= 0])
    return [keys[i] for i in np.argsort(-size, kind="stable")[:count]]
