"""The HyperCube (Shares) algorithm — one-round multiway join (slides 34–44).

Servers are arranged in a grid with one dimension per query variable;
the variable's *share* is the dimension's extent. Each tuple of atom
``S_j`` knows the grid coordinates of the variables it contains (via one
independent hash function per variable) and is replicated to every
server agreeing with them. Every server then evaluates the whole query
on its local fragments; each output tuple is produced at exactly one
server.

With optimal shares the expected load is the slide-40 formula

    L = max over edge packings u of (Π_j |S_j|^{u_j} / p)^{1/Σ u_j}

— equal to ``N / p^{1/τ*}`` for equal sizes — and this is optimal among
one-round algorithms on skew-free data (slide 36 for the triangle).
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping, Sequence

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.kernels.memo import align, bound, route_scattered_grid
from repro.kernels.partition import try_route_grid
from repro.mpc.cluster import Cluster, row_bounds
from repro.mpc.server import Server, held
from repro.mpc.topology import Grid
from repro.joins.base import served
from repro.multiway.base import MultiwayRun
from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.shares import ShareAssignment, optimal_shares


def evaluate_pools(
    cluster: Cluster, pools: Sequence[tuple[Sequence[Server], ConjunctiveQuery]],
) -> list[tuple]:
    """Evaluate ``(servers, query)`` pools in one dispatch.

    Each pool's servers hold the ``@hc`` fragments of one routed HyperCube
    run of ``query`` (SkewHC: of every residual of one heavy/light
    pattern, side by side); the pools are disjoint, so all their
    ``hypercube.eval`` calls ride one backend round-trip. Returned is each
    pool's output, in ``query``'s variable order, and its row bounds per
    server.
    """
    tables = cluster.compute_pools([
        (servers, "hypercube.eval", [(f"{atom.name}@hc", atom.arity) for atom in query.atoms],
         query)
        for servers, query in pools
    ])
    return [
        (Relation.from_columns("OUT", list(query.variables), columns), bounds)
        for (_servers, query), (columns, bounds) in zip(pools, tables)
    ]


def hypercube_join(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    seed: int = 0,
    shares: dict[str, int] | None = None,
) -> MultiwayRun:
    """One-round HyperCube evaluation of a full conjunctive query.

    ``relations`` maps atom names to relations whose attributes are the
    atom's variables. ``shares`` overrides the optimized integral shares
    (ablation hook): one positive ``int`` (not a ``bool``) per query
    variable and none for any other, whose product must not exceed
    ``p``. Every server evaluates the query on its fragments with the
    left-deep plan of :meth:`ConjunctiveQuery.evaluate`.

    The local evaluation is fanned out via the exec backend (with the
    process backend the grid servers of a worker's range evaluate
    concurrently; column blocks ride shared memory).
    """
    cluster = Cluster(p, seed=seed)
    output, details = hypercube_on(cluster, query, relations, shares)
    return MultiwayRun(output, cluster.stats, details)


def hypercube_on(
    cluster: Cluster,
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    shares: dict[str, int] | None = None,
) -> tuple[Relation, dict]:
    """:func:`hypercube_join`'s round on ``cluster``'s servers: the
    gathered output and the run's ``details``."""
    p = cluster.p
    rels = {a.name: align(a, bound(relations, a.name)) for a in query.atoms}
    sizes = {name: len(rel) for name, rel in rels.items()}
    assignment: ShareAssignment | None = None
    if shares is None:
        assignment = optimal_shares(query, sizes, p)
        shares = assignment.integral
    missing = [v for v in query.variables if v not in shares]
    if missing:
        raise QueryError(f"shares {shares} give no share to {', '.join(missing)}")
    unknown = [v for v in shares if v not in query.variables]
    if unknown:
        raise QueryError(f"shares {shares} name {', '.join(unknown)}, not a variable of {query}")
    extents = [shares[v] for v in query.variables]
    if not all(isinstance(e, numbers.Integral) and not isinstance(e, bool) for e in extents):
        raise QueryError(f"shares {shares} must be integers")
    nonpositive = [v for v in query.variables if shares[v] < 1]
    if nonpositive:
        raise QueryError(f"shares {shares} must be positive: {', '.join(nonpositive)}")
    grid = Grid(extents)
    if grid.size > p:
        raise QueryError(f"shares {shares} need {grid.size} servers, only {p} given")

    var_position = {v: i for i, v in enumerate(query.variables)}

    # Scatter inputs (free), then the single replication round.
    fragments = {}
    for atom in query.atoms:
        fragments[atom.name] = cluster.scatter(rels[atom.name], f"{atom.name}@in")

    salts = [cluster.hash_function(i, extent).salt for i, extent in enumerate(extents)]
    with cluster.round("hypercube") as rnd:
        for atom in query.atoms:
            column_dims = [var_position[v] for v in atom.variables]
            route = (column_dims, salts, extents, grid.strides, f"{atom.name}@hc")
            if route_scattered_grid(cluster, rnd, rels[atom.name], fragments[atom.name], *route):
                continue
            for server in cluster.servers:
                try_route_grid(rnd, held(server.take(fragments[atom.name]), atom.arity), *route)

    [(output, _bounds)] = evaluate_pools(cluster, [(cluster.servers[: grid.size], query)])
    details: dict = {"shares": dict(shares)}
    if assignment is not None:
        details["assignment"] = assignment
    return output, details


def hypercube_eval_chunk(chunk: list, query: ConjunctiveQuery) -> tuple:
    """Exec task ``hypercube.eval``: evaluate ``query`` on a chunk of grid servers.

    The chunk is one table per atom, in ``query.atoms`` order. The
    left-deep plan evaluates it in one pass — the query with the server as
    one more variable of every atom: a left-deep plan keeps left order at
    every step (a product step is a join on the server), so the output is
    the servers' outputs in server order.
    """
    fragments = {
        atom.name: served(atom.name, atom.variables, table)
        for atom, table in zip(query.atoms, chunk)
    }
    keyed = ConjunctiveQuery(Atom(name, rel.attributes) for name, rel in fragments.items())
    columns = keyed.evaluate(fragments).columns()
    return columns[1:], row_bounds(columns[0], len(chunk[0][1]) - 1)


def triangle_hypercube(
    r: Relation,
    s: Relation,
    t: Relation,
    p: int,
    seed: int = 0,
) -> MultiwayRun:
    """Convenience wrapper: HyperCube on Δ(x,y,z) = R(x,y) ⋈ S(y,z) ⋈ T(z,x)."""
    from repro.query.cq import triangle_query

    return hypercube_join(
        triangle_query(), {"R": r, "S": s, "T": t}, p, seed=seed
    )
