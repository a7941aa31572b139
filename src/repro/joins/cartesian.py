"""The grid Cartesian product (slide 28).

Arrange ``p = p1 × p2`` servers in a rectangle. Each R tuple is assigned
a random row and replicated to that row's ``p2`` servers; each S tuple is
assigned a random column and replicated to its ``p1`` servers. Every
(r, s) pair meets at exactly one server. The per-server load is
``|R|/p1 + |S|/p2``, minimized at ``|R|/p1 = |S|/p2``, giving the optimal

    L = 2·√(|R|·|S| / p).

When one relation is much smaller, the optimum degenerates to ``p1 = 1``:
broadcast the small relation, partition the other.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.joins.base import JoinRun, join_schemas
from repro.kernels.hashing import bucket_tuple_columns
from repro.kernels.partition import partition_groups
from repro.mpc.cluster import Cluster
from repro.mpc.server import held


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
    shared, schema = join_schemas(r, s)
    if shared:
        raise QueryError(
            f"{r.name} and {s.name} share attributes; use a join algorithm"
        )
    cluster = Cluster(p, seed=seed)
    cartesian_on_cluster(cluster, r, s)
    output = cluster.gather_relation("out", "OUT", schema)
    return JoinRun(output, cluster.stats)


def cartesian_on_cluster(cluster: Cluster, r: Relation, s: Relation) -> None:
    """In-cluster primitive: grid product into the ``out`` fragment.

    The servers are arranged in the optimal rectangle; any leftover
    servers beyond ``p1·p2`` idle. The inputs are scattered round-robin
    (free initial placement), then replicated along grid rows/columns in
    one charged round.
    """
    p1, p2 = optimal_rectangle(len(r), len(s), cluster.p)
    # Grid cell (i, j) is server i·p2 + j. Side 0 (R) sends a row to every
    # cell of grid row h((sid, serial, 0)), side 1 (S) to every cell of
    # grid column h((sid, serial, 1)): (input, hash, line stride, cells).
    sides = (
        (r, cluster.hash_function(101, p1), p2, range(p2)),
        (s, cluster.hash_function(102, p2), 1, range(0, p1 * p2, p2)),
    )
    for side, rel in enumerate((r, s)):
        cluster.scatter(rel, f"cart{side}")
    with cluster.round("cartesian-replicate") as rnd:
        for sid, server in enumerate(cluster.servers):
            for side, (rel, h, stride, cells) in enumerate(sides):
                columns = held(server.take(f"cart{side}"), rel.schema.arity)
                n = len(columns[0])
                if not n:
                    continue
                lines = bucket_tuple_columns(
                    [np.full(n, sid), np.arange(n), np.full(n, side)], h.salt, h.buckets
                )
                for line, part in partition_groups(lines, h.buckets, columns):
                    for cell in cells:
                        rnd.send_columns(line * stride + cell, f"cart{side}@grid", part)

    for server in cluster.servers:
        left = held(server.take("cart0@grid"), r.schema.arity)
        right = held(server.take("cart1@grid"), s.schema.arity)
        # cartesian_rows' nested-loop order: each left row with every right row
        server.append_result("out", tuple(
            [np.repeat(column, len(right[0])) for column in left]
            + [np.tile(column, len(left[0])) for column in right]
        ))
