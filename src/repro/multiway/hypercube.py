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

from collections.abc import Mapping, Sequence

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.kernels.memo import align, bound, route_scattered_grid
from repro.kernels.partition import try_route_grid
from repro.mpc.cluster import Cluster
from repro.mpc.server import ChunkedColumns, Server, held
from repro.mpc.topology import Grid
from repro.joins.base import chunk_step, stacked, step_result
from repro.kernels.columnar import zip_rows
from repro.kernels.join import cut_at_tags
from repro.multiway.base import MultiwayRun
from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.shares import ShareAssignment, optimal_shares


def evaluate_pools(
    cluster: Cluster, pools: Sequence[tuple[Sequence[Server], ConjunctiveQuery, str]],
    local: str = "plan",
) -> list[Relation]:
    """Evaluate ``(servers, query, out fragment)`` pools in one dispatch.

    Each pool's servers hold the ``@hc`` fragments of one routed HyperCube
    run of ``query`` (SkewHC: of every residual of one heavy/light
    pattern, side by side); the pools are disjoint, so all their
    ``hypercube.eval`` calls ride one backend round-trip. Every server
    keeps its result under the pool's fragment; returned is each pool's
    gathered output, in ``query``'s variable order.

    A fragment held as column blocks travels as ``(None, columns)``: the
    eval chunk builds the local relation straight from them.
    """
    memo = cluster.stats.memo
    calls = []
    for servers, query, _fragment in pools:
        payloads = []
        for server in servers:
            per_atom = []
            for atom in query.atoms:
                part = server.take(f"{atom.name}@hc")
                if isinstance(part, ChunkedColumns):
                    memo.fused_payloads += 1
                    per_atom.append((None, part.arrays()))
                else:
                    memo.row_payloads += bool(part)
                    per_atom.append((part, None))
            payloads.append(per_atom)
        calls.append(("hypercube.eval", payloads, (query, local)))
    outputs = []
    for (servers, query, fragment), results in zip(pools, cluster.map_servers_batch(calls)):
        for server, result in zip(servers, results):
            server.append_result(fragment, result)
        outputs.append(cluster.gather_relation(fragment, "OUT", list(query.variables)))
    return outputs


def hypercube_join(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    seed: int = 0,
    shares: dict[str, int] | None = None,
    local: str = "plan",
) -> MultiwayRun:
    """One-round HyperCube evaluation of a full conjunctive query.

    ``relations`` maps atom names to relations whose attributes are the
    atom's variables. ``shares`` overrides the optimized integral shares
    (ablation hook); its product must not exceed ``p``. ``local`` picks
    the per-server evaluation engine: ``"plan"`` (left-deep binary joins)
    or ``"generic"`` (the worst-case optimal join of
    :mod:`repro.multiway.wcoj`, as in BiGJoin-style systems — slide 97).
    Communication costs are identical; only server-local work differs.

    The local evaluation is fanned out via the exec backend (with the
    process backend the grid servers of a worker's range evaluate
    concurrently; column blocks ride shared memory).
    """
    if local not in ("plan", "generic"):
        raise QueryError(f"unknown local evaluator {local!r}")
    rels = {a.name: align(a, bound(relations, a.name)) for a in query.atoms}
    sizes = {name: len(rel) for name, rel in rels.items()}
    assignment: ShareAssignment | None = None
    if shares is None:
        assignment = optimal_shares(query, sizes, p)
        shares = assignment.integral
    extents = [shares[v] for v in query.variables]
    grid = Grid(extents)
    if grid.size > p:
        raise QueryError(f"shares {shares} need {grid.size} servers, only {p} given")

    cluster = Cluster(p, seed=seed)
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
                try_route_grid(rnd, held(server.take(fragments[atom.name])), *route)

    (output,) = evaluate_pools(cluster, [(cluster.servers[: grid.size], query, "out")], local)
    details: dict = {"shares": dict(shares)}
    if assignment is not None:
        details["assignment"] = assignment
    return MultiwayRun(output, cluster.stats, details)


def hypercube_eval_chunk(payloads: list, common) -> list:
    """Exec task ``hypercube.eval``: evaluate the query on grid servers.

    Each payload is the server's per-atom ``(rows, columns)`` pairs in
    ``query.atoms`` order: fragment rows straight from the simulator,
    adopted without re-validating arity, or — for a fragment held as
    column blocks — ``None`` and the columns. A server with an empty
    fragment produces ``None`` (no output stored). The chunk's all-columns
    payloads are evaluated in one pass — the query with the server as one
    more variable of every atom, over the fragments stacked server-major: a
    left-deep plan keeps left order at every step, so the output is the
    servers' outputs in server order. Row payloads, the ``generic`` evaluator
    and a plan with a product step (both emit rows) go server by server;
    the eval is column-driven either way, so
    both payload shapes derive identical tuples.
    """
    query, local = common
    seen: set[str] = set()
    keyed = local == "plan"  # ... and every step of the left-deep plan has a key
    for atom in query.atoms:
        keyed = keyed and not (seen and seen.isdisjoint(atom.variables))
        seen.update(atom.variables)

    def one_pass(chunk: list) -> list | None:
        fragments = {
            atom.name: stacked(atom.name, atom.variables, [per_atom[j][1] for per_atom in chunk])
            for j, atom in enumerate(query.atoms)
        }
        if None in fragments.values():
            return None
        tagged = ConjunctiveQuery(Atom(name, rel.attributes) for name, rel in fragments.items())
        result = tagged.evaluate(fragments)
        return cut_at_tags(result.columns(), len(chunk)) if result.is_columnar else None

    def by_rows(per_atom: list) -> "list | None":
        if not all(len(cols[0] if rows is None else rows) for rows, cols in per_atom):
            return None
        local_fragments = {
            atom.name: Relation.wrap(
                atom.name, list(atom.variables), zip_rows(cols) if rows is None else rows
            )
            for atom, (rows, cols) in zip(query.atoms, per_atom)
        }
        if local == "generic":
            from repro.multiway.wcoj import generic_join

            return step_result(generic_join(query, local_fragments))
        return step_result(query.evaluate(local_fragments))

    def fused(per_atom: list) -> bool:
        return keyed and all(rows is None and len(cols[0]) for rows, cols in per_atom)

    return chunk_step(payloads, fused, one_pass, by_rows)


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
