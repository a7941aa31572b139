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

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.joins.base import JoinRun, join_schemas
from repro.joins.local import cartesian_rows
from repro.mpc.cluster import Cluster
from repro.mpc.topology import Grid


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
    p = cluster.p
    p1, p2 = optimal_rectangle(len(r), len(s), p)
    grid = Grid([p1, p2])

    r_frag = "L@cart"
    s_frag = "R@cart"
    for i, row in enumerate(r):
        cluster.servers[i % p].fragment(r_frag).append(row)
    for i, row in enumerate(s):
        cluster.servers[i % p].fragment(s_frag).append(row)

    row_of = cluster.hash_function(101, p1)
    col_of = cluster.hash_function(102, p2)
    with cluster.round("cartesian-replicate") as rnd:
        for sid, server in enumerate(cluster.servers):
            for serial, row in enumerate(server.take(r_frag)):
                target_row = row_of((sid, serial, 0))
                for j in range(p2):
                    rnd.send(grid.flat((target_row, j)), f"{r_frag}@row", row)
            for serial, row in enumerate(server.take(s_frag)):
                target_col = col_of((sid, serial, 1))
                for i in range(p1):
                    rnd.send(grid.flat((i, target_col)), f"{s_frag}@col", row)

    for server in cluster.servers:
        left = server.take(f"{r_frag}@row")
        right = server.take(f"{s_frag}@col")
        server.fragment("out").extend(cartesian_rows(left, right))
