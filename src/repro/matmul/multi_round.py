"""The square-block multi-round algorithm (slides 111–122).

Split A and B into ``H × H`` square blocks of side ``b`` (so a server
holding two blocks stores ``L = 2b²`` elements). The ``H³`` block
products are organized into ``H`` groups (slide 112)

    G_z = { A_{i,j} × B_{j,k} : j = (i + k + z) mod H },

each containing exactly one product per output block C_{i,k}. With
``p = H²`` servers, server (i, k) performs its group-z product in round
z, accumulating C_{i,k} locally — ``H`` rounds of load ``2b²``. With
``p = c·H²`` the rounds split across ``c`` replicas per output block and
one extra round merges the partial sums (slides 119–121); with
``p < H²`` each server handles several output blocks per round. Total
communication C ≈ p·r·L = 2n³/b = O(n³/√L) — the multi-round lower
bound (slide 124).
"""

from __future__ import annotations

import math

import numpy as np

from repro.matmul.blocks import assemble_blocks, block_count, get_block
from repro.mpc.cluster import Cluster
from repro.mpc.stats import RunStats


def square_block_matmul(
    a: np.ndarray,
    b: np.ndarray,
    p: int,
    block_size: int,
    seed: int = 0,
) -> tuple[np.ndarray, RunStats]:
    """Multi-round C = A·B with ``H = ⌈n/block_size⌉`` block groups.

    Returns ``(C, stats)``. Loads count matrix *elements*; each block
    message costs ``block_size²`` units.
    """
    n = a.shape[0]
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("square-block algorithm expects square same-size matrices")
    h = block_count(n, block_size)
    units = block_size * block_size
    cluster = Cluster(p, seed=seed)

    # Output-block ownership and replication: with p ≥ H² each block gets
    # c = p // H² replicas that split the H products; otherwise blocks
    # wrap around the p servers.
    replicas = max(1, p // (h * h))

    def owner(i: int, k: int, replica: int) -> int:
        return ((i * h + k) * replicas + replica) % p

    accumulators: dict[int, dict[tuple[int, int], np.ndarray]] = {
        sid: {} for sid in range(p)
    }

    rounds = math.ceil(h / replicas)
    for rnd_index in range(rounds):
        with cluster.round(f"block-products-{rnd_index}") as rnd:
            for i in range(h):
                for k in range(h):
                    for replica in range(replicas):
                        z = rnd_index * replicas + replica
                        if z >= h:
                            continue
                        j = (i + k + z) % h
                        dest = owner(i, k, replica)
                        rnd.send(dest, "A@blk", (i, j, k), units=units)
                        rnd.send(dest, "B@blk", (j, k, i), units=units)
        # Local compute: every server multiplies the block pairs it received.
        for sid in range(p):
            server = cluster.servers[sid]
            a_blocks = server.take("A@blk")
            server.take("B@blk")
            for i, j, k in a_blocks:
                product = get_block(a, i, j, block_size) @ get_block(
                    b, j, k, block_size
                )
                acc = accumulators[sid]
                if (i, k) in acc:
                    acc[(i, k)] = acc[(i, k)] + product
                else:
                    acc[(i, k)] = product

    # Merge replica partial sums (slide 121's final round); free when c=1.
    if replicas > 1:
        with cluster.round("merge-partials") as rnd:
            for sid in range(p):
                for (i, k), partial in accumulators[sid].items():
                    primary = owner(i, k, 0)
                    if primary != sid:
                        rnd.send(primary, "C@partial", (i, k, partial), units=units)
        for sid in range(p):
            for i, k, partial in cluster.servers[sid].take("C@partial"):
                acc = accumulators[sid]
                acc[(i, k)] = acc.get((i, k), 0) + partial
        final = {}
        for sid in range(p):
            for (i, k), block in accumulators[sid].items():
                if owner(i, k, 0) == sid:
                    final[(i, k)] = block
    else:
        final = {}
        for sid in range(p):
            final.update(accumulators[sid])

    c = assemble_blocks(final, n, block_size)
    return c, cluster.stats


def square_block_costs(n: int, p: int, load: float) -> dict[str, float]:
    """Predicted multi-round costs under per-round load L = 2b².

    Returns b, H, rounds r = max(H³/p, 1) (compute-bound) and total
    communication C = O(n³/√L) — slide 122's table row.
    """
    if load < 2:
        raise ValueError("load must allow at least one block pair")
    b = math.sqrt(load / 2.0)
    h = n / b
    product_rounds = max(h * h * h / p, 1.0)
    return {
        "block_size": b,
        "h": h,
        "rounds": product_rounds + math.log(max(n, 2)) / math.log(max(load, 2)),
        "communication": 2 * n**3 / b,
    }
