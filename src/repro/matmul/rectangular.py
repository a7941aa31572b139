"""Non-square matrix multiplication (slide 127, "Other Results").

Generalizes the rectangle-block one-round algorithm to
C = A (n1×n2) · B (n2×n3): servers form a ``K1 × K3`` grid; server
(a, c) receives row group ``a`` of A (t1 rows × n2 elements) and column
group ``c`` of B (n2 × t3 elements) and emits C's ``t1 × t3`` block.

Per-server load L = (t1 + t3)·n2, minimized at t1 = t3 for a fixed
product t1·t3 (output share); total communication

    C_comm = K1·K3·(t1 + t3)·n2 = n1·n3·n2·(1/t3 + 1/t1),

recovering the square case 4n⁴/L at n1 = n2 = n3, t1 = t3 = L/(2n).
"""

from __future__ import annotations

import math

import numpy as np

from repro.mpc.cluster import Cluster
from repro.mpc.server import held
from repro.mpc.stats import RunStats
from repro.mpc.topology import Grid


def rectangular_block_matmul(
    a: np.ndarray,
    b: np.ndarray,
    row_groups: int,
    col_groups: int,
    seed: int = 0,
) -> tuple[np.ndarray, RunStats]:
    """One-round C = A·B for rectangular A (n1×n2), B (n2×n3).

    ``row_groups`` (K1) splits A's rows; ``col_groups`` (K3) splits B's
    columns; the server count is K1·K3.
    """
    n1, n2 = a.shape
    n2b, n3 = b.shape
    if n2 != n2b:
        raise ValueError(f"shape mismatch: {a.shape} × {b.shape}")
    if not 1 <= row_groups <= n1:
        raise ValueError(f"row_groups must be in [1, {n1}]")
    if not 1 <= col_groups <= n3:
        raise ValueError(f"col_groups must be in [1, {n3}]")

    t1 = math.ceil(n1 / row_groups)
    t3 = math.ceil(n3 / col_groups)
    grid = Grid([row_groups, col_groups])
    cluster = Cluster(grid.size, seed=seed)

    with cluster.round("rectangular-distribute") as rnd:
        # One index block per (group, server): a row or column costs n2.
        for group in range(row_groups):
            rows = np.arange(group * t1, min((group + 1) * t1, n1))
            if len(rows):
                for col_group in range(col_groups):
                    rnd.send_columns(grid.flat((group, col_group)), "A@rows", [rows], units=n2)
        for group in range(col_groups):
            cols = np.arange(group * t3, min((group + 1) * t3, n3))
            if len(cols):
                for row_group in range(row_groups):
                    rnd.send_columns(grid.flat((row_group, group)), "B@cols", [cols], units=n2)

    c = np.zeros((n1, n3))
    for sid in range(grid.size):
        server = cluster.servers[sid]
        (rows,) = held(server.take("A@rows"), 1)
        (cols,) = held(server.take("B@cols"), 1)
        for row_index in rows.tolist():
            for col_index in cols.tolist():
                c[row_index, col_index] = float(a[row_index, :] @ b[:, col_index])
    return c, cluster.stats


def balanced_groups(n1: int, n3: int, p: int) -> tuple[int, int]:
    """(K1, K3) with K1·K3 ≤ p minimizing the load (t1 + t3)·n2 ∝ n1/K1 + n3/K3."""
    best = (1, 1)
    best_cost = math.inf
    for k1 in range(1, min(n1, p) + 1):
        k3 = min(p // k1, n3)
        if k3 < 1:
            continue
        cost = n1 / k1 + n3 / k3
        if cost < best_cost:
            best_cost = cost
            best = (k1, k3)
    return best


def rectangular_costs(n1: int, n2: int, n3: int, row_groups: int,
                      col_groups: int) -> dict[str, float]:
    """Predicted one-round costs for the chosen grouping."""
    t1 = math.ceil(n1 / row_groups)
    t3 = math.ceil(n3 / col_groups)
    load = (t1 + t3) * n2
    return {
        "t1": t1,
        "t3": t3,
        "servers": row_groups * col_groups,
        "load": load,
        "communication": row_groups * col_groups * load,
    }
