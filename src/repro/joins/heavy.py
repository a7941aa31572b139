"""Per-heavy-value products (slide 30, step 2) and server allocation.

A join value whose degree is too high for hash partitioning gets a
residual of its own in the skew-aware hash join and the parallel sort
join: the grid product R_b × S_b of heavy value ``b`` on an exclusive
pool, sized proportionally by :func:`allocate_servers`, so all heavy
products finish with balanced load ``O(√(OUT/p))`` while running in
parallel (in the model) with the light-value join. The plan is SkewHC's
(:mod:`repro.multiway.skewhc`), its pools side by side on the query's
cluster.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.data.relation import Relation
from repro.kernels.join import lookup_codes
from repro.kernels.partition import partition_indices
from repro.mpc.cluster import Cluster
from repro.mpc.stats import RunStats

Row = tuple[Any, ...]


def allocate_servers(weights: list[float], p: int, strict: bool = False) -> list[int]:
    """Split ``p`` servers proportionally to ``weights`` (≥ 1 each).

    Largest-remainder rounding; every entry gets at least one server even
    when its weight is tiny, and the total never exceeds ``p`` unless
    forced by the ≥1 floor. ``strict`` takes back what the floor hands out
    past ``p`` from the entries with more than one server, the least left
    over first, so the total exceeds ``p`` only with more entries than
    servers.
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
    while strict and spare < 0 and max(floors) > 1:
        i = min((i for i, f in enumerate(floors) if f > 1), key=lambda i: raw[i] - floors[i])
        floors[i] -= 1
        spare += 1
    return floors


def heavy_value_products(
    r: Relation,
    s: Relation,
    shared: tuple[str, ...],
    heavy_keys: list[Row],
    p: int,
    seed: int = 0,
) -> tuple[Relation, RunStats]:
    """Join R ⋈ S restricted to the given heavy join-key values on ``p``
    servers: :func:`~repro.multiway.skewhc.key_residuals` on a cluster of
    its own.

    Returns the output (``OUT``, in R-then-S-extra attribute order like
    :meth:`Relation.join`) and the cluster's cost.
    """
    # multiway builds on joins, so the import waits for the call.
    from repro.multiway.skewhc import key_residuals

    cluster = Cluster(p, seed=seed)
    output, _pools = key_residuals(cluster, r, s, shared, heavy_keys, p, seed)
    return output, cluster.stats


def key_groups(key_cols: Sequence[Any], heavy_keys: list[Row]) -> list[np.ndarray]:
    """Per heavy key, the positions of the rows carrying it, in row order:
    a row's code is its key's index in ``heavy_keys`` and one stable sort
    by code makes every key's rows a slice."""
    codes = lookup_codes(key_cols, heavy_keys)
    held = np.flatnonzero(codes >= 0)
    return [held[group] for group in partition_indices(codes[held], len(heavy_keys))]
