"""The rectangle-block one-round algorithm (slides 109–110).

With load budget ``L = 2tn`` each server can hold ``t`` full rows of A
and ``t`` full columns of B, producing a ``t × t`` output block with
``t²n`` elementary products. Divide A into ``K = n/t`` row groups and B
into ``K`` column groups; server ``(a, b)`` of the ``K × K`` grid
receives row group ``a`` and column group ``b`` and emits C's block
``(a, b)``. One round, total communication

    C_comm = p · L = K² · 2tn = 2n³/t = 4n⁴/L,

the one-round lower bound (slide 126) up to constants.
"""

from __future__ import annotations

import numpy as np

from repro.matmul.rectangular import rectangular_block_matmul
from repro.mpc.stats import RunStats


def rectangle_block_matmul(
    a: np.ndarray,
    b: np.ndarray,
    groups: int,
    seed: int = 0,
) -> tuple[np.ndarray, RunStats]:
    """One-round C = A·B on a ``groups × groups`` server grid.

    ``groups`` is K, the number of row/column groups; the server count is
    K². Returns ``(C, stats)``; the per-server load is 2·(n/K)·n elements.
    The square case of
    :func:`~repro.matmul.rectangular.rectangular_block_matmul` (K1 = K3 = K).
    """
    n = a.shape[0]
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("rectangle-block algorithm expects square same-size matrices")
    if not 1 <= groups <= n:
        raise ValueError(f"groups must be in [1, {n}], got {groups}")
    return rectangular_block_matmul(a, b, groups, groups, seed=seed)


def rectangle_block_costs(n: int, load: float) -> dict[str, float]:
    """Predicted one-round costs for an n×n multiply under load L = 2tn.

    Returns t, K, p, and total communication C = 4n⁴/L (slide 110's
    C = O(n⁴/L) with the constant made explicit).
    """
    if load < 2 * n:
        raise ValueError(f"one round needs L ≥ 2n = {2 * n} (full rows and columns)")
    t = load / (2 * n)
    k = n / t
    return {
        "t": t,
        "groups": k,
        "servers": k * k,
        "communication": k * k * load,
    }
