"""Per-heavy-value Cartesian products (slide 30, step 2).

Both the skew-aware hash join and the parallel sort join fall back to the
grid Cartesian product for join values whose degree is too high for hash
partitioning. Each heavy value ``b`` gets ``p_b`` *exclusive* servers,
sized proportionally to its output contribution ``|R_b|·|S_b|``, so all
heavy products finish with balanced load ``O(√(OUT/p))`` while running in
parallel (in the model) with the light-value join: the pools sit side by
side on the query's cluster (:meth:`~repro.mpc.cluster.Cluster.side_by_side`).

Nothing here is done tuple by tuple: a row's heavy key is one code, a
key's rows one slice of a stable argsort, who receives what in which
order a lexsort over (destination, source server, position), each
destination gets one batched send, and a server's product is the local
join of what it received.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.data.relation import Relation, union_all
from repro.joins.base import join_schemas, local_join
from repro.joins.cartesian import deliver, replicate
from repro.kernels.join import lookup_codes
from repro.kernels.partition import partition_indices
from repro.mpc.cluster import Cluster
from repro.mpc.hashing import HashFamily
from repro.mpc.server import held
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
) -> tuple[Relation, RunStats]:
    """Join R ⋈ S restricted to the given heavy join-key values on ``p``
    servers: :func:`heavy_products` on a cluster of its own.

    Returns the output (``OUT``, in R-then-S-extra attribute order like
    :meth:`Relation.join`) and the cluster's cost.
    """
    cluster = Cluster(p, seed=seed)
    return heavy_products(cluster, r, s, shared, heavy_keys, p, seed), cluster.stats


def heavy_products(
    cluster: Cluster,
    r: Relation,
    s: Relation,
    shared: tuple[str, ...],
    heavy_keys: list[Row],
    p: int,
    seed: int,
) -> Relation:
    """R ⋈ S on the heavy join keys, on pools of ``p`` servers of
    ``cluster`` from its first: one per big heavy value, one for all the
    packed ones, side by side, hashing with the functions of ``seed``.
    """
    schema = join_schemas(r, s)[1]
    if not heavy_keys:
        return Relation("OUT", schema)

    r_cols, s_cols = r.columns(), s.columns()
    r_groups = _key_groups([r_cols[i] for i in r.schema.indices(shared)], heavy_keys)
    s_groups = _key_groups([s_cols[i] for i in s.schema.indices(shared)], heavy_keys)

    # Proportional allocation; values whose fair share is below one whole
    # server are *packed* onto a shared pool (several heavy values per
    # server): more heavy values than servers must not oversubscribe it.
    weights = [max(len(rg) * len(sg), 1) for rg, sg in zip(r_groups, s_groups)]
    total = sum(weights)
    shares = [weight / total * p for weight in weights]
    big = [(k, max(1, int(share))) for k, share in enumerate(shares) if share >= 1.0]
    small = [k for k, share in enumerate(shares) if share < 1.0]
    p_small = max(p - sum(alloc for _, alloc in big), 1)

    placement = HashFamily(seed + 77).function(0, p_small)

    def product(i: int, pool: Cluster) -> Relation:
        if i < len(big):
            k = big[i][0]
            _grid_product(pool, r, s, r_cols, s_cols, r_groups[k], s_groups[k])
        else:
            _packed_products(
                pool, r, s, r_cols, s_cols,
                [r_groups[k] for k in small], [s_groups[k] for k in small],
                [placement(heavy_keys[k]) for k in small],
            )
        return pool.gather_relation("out", "OUT", schema)

    sizes = [p_b for _, p_b in big] + ([p_small] if small else [])
    return union_all("OUT", cluster.side_by_side(sizes, seed, product))


def _key_groups(key_cols: Sequence[Any], heavy_keys: list[Row]) -> list[np.ndarray]:
    """Per heavy key, the positions of the rows carrying it, in row order:
    a row's code is its key's index in ``heavy_keys`` and one stable sort
    by code makes every key's rows a slice."""
    codes = lookup_codes(key_cols, heavy_keys)
    held = np.flatnonzero(codes >= 0)
    return [held[group] for group in partition_indices(codes[held], len(heavy_keys))]


def _packed_products(
    cluster: Cluster, r: Relation, s: Relation, r_cols: list, s_cols: list,
    r_groups: list[np.ndarray], s_groups: list[np.ndarray], placement: list[int],
) -> None:
    """Many small heavy values share one pool, one server per value.

    Row ``j`` of the ``i``-th value starts on server ``(i + j) % p`` and
    goes to the value's ``placement``, so a destination receives source
    servers ascending, each server's rows by value and position. R's rows
    are handed over grouped by value instead — values in order of first
    arrival — which is the order the per-value products come out in.
    """
    p = cluster.p
    with cluster.round("heavy-packed") as rnd:
        for fragment, columns, groups in (("R@v", r_cols, r_groups), ("S@v", s_cols, s_groups)):
            sizes = np.array([len(g) for g in groups])
            starts = np.cumsum(sizes) - sizes
            i = np.repeat(np.arange(len(groups)), sizes)
            j = np.arange(len(i)) - np.repeat(starts, sizes)
            source = (i + j) % p
            ties = (j, i, source)
            if fragment == "R@v" and len(i):
                first = np.minimum.reduceat(source, starts[sizes > 0])
                ties = (j, source, i, np.repeat(first, sizes[sizes > 0]))
            deliver(rnd, fragment, columns, np.concatenate(groups),
                    np.asarray(placement)[i], ties, lambda server: (server,))
    local_join(cluster, "R@v", "S@v", r, s, "out")


def _grid_product(
    cluster: Cluster, r: Relation, s: Relation, r_cols: list, s_cols: list,
    r_rows: np.ndarray, s_rows: np.ndarray,
) -> None:
    """Grid product of one heavy value's tuples on the pool's servers.

    The slide-28 rectangle of :func:`~repro.joins.cartesian.replicate`;
    every (r, s) pair meets on exactly one server, whose local join — all
    rows share the key — is their product.
    """
    if not len(r_rows) or not len(s_rows):
        return
    if s.schema.arity == len(r.schema.common(s.schema)):
        # S contributes no new attributes: the join just multiplies each R
        # row by the number of matching S rows. Spread R's rows, keep bag
        # counts.
        p, at = cluster.p, np.arange(len(r_rows))
        with cluster.round("heavy-degenerate") as rnd:
            deliver(rnd, "rb", r_cols, r_rows, at % p, (at // p,), lambda server: (server,))
        for server in cluster.servers:
            part = server.take("rb")
            times = np.repeat(np.arange(len(part)), len(s_rows))
            server.append_result("out", tuple(c[times] for c in held(part, r.schema.arity)))
        return

    replicate(cluster, ("L@cart", r_cols, r_rows), ("R@cart", s_cols, s_rows))
    local_join(cluster, "L@cart", "R@cart", r, s, "out")
