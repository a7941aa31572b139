"""The grid Cartesian product (slide 28).

Arrange ``p = p1 × p2`` servers in a rectangle. Each R tuple is assigned
a random row and replicated to that row's ``p2`` servers; each S tuple is
assigned a random column and replicated to its ``p1`` servers. Every
(r, s) pair meets at exactly one server. The per-server load is
``|R|/p1 + |S|/p2``, minimized at ``|R|/p1 = |S|/p2``, giving the optimal

    L = 2·√(|R|·|S| / p).

When one relation is much smaller, the optimum degenerates to ``p1 = 1``:
broadcast the small relation, partition the other.

:func:`replicate` is the one rectangle. The initial placement is encoded,
not scattered (a scatter crash finds nothing to strike), and a server's
product is the local join of what it received: the join on the server tag.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.joins.base import JoinRun, local_join
from repro.kernels.memo import count_hash_ops
from repro.kernels.partition import hash_codes
from repro.mpc.cluster import Cluster


def optimal_rectangle(r_size: int, s_size: int, p: int) -> tuple[int, int]:
    """Integer ``(p1, p2)`` with ``p1·p2 ≤ p`` minimizing |R|/p1 + |S|/p2.

    Scans the divisor-like candidates around the fractional optimum
    ``p1* = √(p·|R|/|S|)``; exact for the modest p of the simulator.
    """
    if p <= 0:
        raise QueryError("p must be positive")
    best: tuple[int, int] = (1, p)
    best_load = math.inf
    for p1 in range(1, p + 1):
        p2 = p // p1
        load = r_size / p1 + s_size / p2
        if load < best_load:
            best_load = load
            best = (p1, p2)
    return best


def predicted_cartesian_load(r_size: int, s_size: int, p: int) -> float:
    """The slide-28 optimum 2·√(|R||S|/p)."""
    return 2.0 * math.sqrt(r_size * s_size / p)


def cartesian_product(
    r: Relation,
    s: Relation,
    p: int,
    seed: int = 0,
) -> JoinRun:
    """Distributed Cartesian product of R and S on a ``p``-server grid.

    The schemas must be disjoint (it is a product, not a join).
    """
    if r.schema.common(s.schema):
        raise QueryError(
            f"{r.name} and {s.name} share attributes; use a join algorithm"
        )
    cluster = Cluster(p, seed=seed)
    return JoinRun(cartesian_on_cluster(cluster, r, s), cluster.stats)


def cartesian_on_cluster(cluster: Cluster, r: Relation, s: Relation) -> Relation:
    """In-cluster primitive: the grid product ``OUT``.

    The servers are arranged in the optimal rectangle; any leftover
    servers beyond ``p1·p2`` idle. Both inputs are replicated along grid
    rows/columns in one charged round (:func:`replicate`).
    """
    replicate(cluster, ("L@cart", r), ("R@cart", s))
    return local_join(cluster, "L@cart", "R@cart", r, s, "OUT")


def replicate(cluster: Cluster, left: tuple, right: tuple) -> None:
    """One round replicating two sides along the slide-28 grid lines.

    A side is ``(fragment, relation)``. Its ``i``-th row sits on server
    ``i % p`` with serial ``i // p`` and goes to every cell of grid line
    ``h((server, serial, side))``: a row of the ``p1 × p2`` rectangle for
    ``left``, a column for ``right``, one batch per line whose rows arrive
    by source server, then serial. Every (left, right) pair meets on
    exactly one server.
    """
    p = cluster.p
    p1, p2 = optimal_rectangle(len(left[1]), len(right[1]), p)
    lines = (
        (cluster.hash_function(101, p1), lambda row: range(row * p2, (row + 1) * p2)),
        (cluster.hash_function(102, p2), lambda col: range(col, p1 * p2, p2)),
    )
    with cluster.round("cartesian-replicate") as rnd:
        for tag, ((fragment, rel), (h, cells)) in enumerate(zip((left, right), lines)):
            at = np.arange(len(rel))
            line, hashed = hash_codes(len(at), [at % p, at // p, np.full(len(at), tag)], h)
            count_hash_ops(rnd, hashed)
            arrival = np.lexsort((at // p, at % p, line))
            targets, starts = np.unique(line[arrival], return_index=True)
            for target, lo, hi in zip(targets.tolist(), starts, [*starts[1:], len(arrival)]):
                sent = [c[arrival[lo:hi]] for c in rel.columns()]
                for dest in cells(target):
                    rnd.send_columns(dest, fragment, sent)
