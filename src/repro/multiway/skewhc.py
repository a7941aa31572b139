"""SkewHC: HyperCube made skew-resilient (slides 46–51).

Plain HyperCube's load guarantee collapses on skewed data. SkewHC fixes a
degree threshold (a value is a *heavy hitter* when it occurs ≥ N/p times
in some relation), and splits the output space by which variables take
heavy values:

- for every subset ``H`` of variables (a heavy/light *pattern*) and every
  combination of heavy values for ``H``, the *residual query* Q_H —
  obtained by deleting the bound variables and dropping emptied atoms —
  is evaluated by HyperCube on its own exclusive server pool, over the
  relations restricted to that combination (heavy on ``H``, light
  elsewhere);
- the all-light residual is ordinary HyperCube on light-only data.

Each original output tuple belongs to exactly one combination, so the
union of the residual outputs is exact. The worst residual governs the
load: L = Θ(IN / p^{1/ψ*}) where ψ* = max_H τ*(Q_H) (slide 47), and no
one-round algorithm can do better.

The work is done per atom and per pattern; which heavy *value* a tuple
carries only picks its pool. Each row gets one code per variable (0 =
light, ``1 + i`` = the i-th heavy value), one stable sort by those codes
makes every residual's restricted relation a slice of one memoized view,
the pools sit side by side on one cluster, and the bound values return
as constant columns.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.data.relation import Relation, union_all
from repro.errors import QueryError
from repro.joins.heavy import allocate_servers
from repro.kernels.columnar import column_of, pack_columns, shrink
from repro.kernels.join import locate
from repro.kernels.memo import align, bound, cached_view, degree_view, ordered, route_pools
from repro.mpc.cluster import Cluster
from repro.mpc.hashing import HashFamily
from repro.mpc.topology import Grid
from repro.multiway.base import MultiwayRun
from repro.multiway.hypercube import evaluate_pools, priced_load
from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.shares import optimal_shares


def find_heavy_values(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    threshold: float,
) -> dict[str, tuple]:
    """Per-variable heavy hitters — degree ≥ threshold in some atom, read
    off its degree view — in :func:`~repro.kernels.memo.ordered` order: one
    memoized view of the relations, shared (read only)."""
    rels = tuple(bound(relations, a.name) for a in query.atoms)

    def build() -> dict[str, tuple]:
        heavy: dict[str, dict] = {v: {} for v in query.variables}
        for atom, rel in zip(query.atoms, rels):
            for variable in atom.variables:
                (keys,), counts = degree_view(rel, rel.schema.indices((variable,)))
                heavy[variable].update(dict.fromkeys(keys[counts >= threshold].tolist()))
        return {v: tuple(ordered(values)) for v, values in heavy.items()}

    return cached_view(rels, ("heavy", tuple(query.atoms), threshold), build)


def skewhc_join(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    seed: int = 0,
    threshold: float | None = None,
    max_combinations: int = 100_000,
) -> MultiwayRun:
    """SkewHC evaluation of a full conjunctive query on ``p`` servers.

    ``threshold`` defaults to the tutorial's N/p with N the largest
    relation. The residuals run on side-by-side pools of the query's one
    cluster, in job order, so the cost is one ``hypercube`` round whose
    ``received`` lists every pool's servers: ``r = 1`` with ``L`` the max
    over residuals. ``details["allocation"]`` is the pool size per
    residual (0 when every variable is bound) — each is at least one
    server, so more residuals than servers take servers past ``p - 1``
    (``stats.p`` stays ``p``).
    """
    cluster = Cluster(p, seed=seed)
    relations, threshold, (heavy, jobs, routes) = _planned(
        query, relations, p, threshold, max_combinations, cluster.stats.memo
    )
    output = _run(cluster, query, relations, jobs, routes, seed)
    allocation = [job.servers for job in jobs]
    stats = cluster.stats
    stats.pools = allocation
    details = {
        "threshold": threshold, "jobs": len(jobs), "allocation": allocation,
        "heavy": {v: set(values) for v, values in heavy.items()},
        "patterns": list(dict.fromkeys(tuple(job.bound) for job in jobs)),
    }
    return MultiwayRun(output, stats, details)


def two_way_query(r: Relation, s: Relation) -> ConjunctiveQuery:
    """R ⋈ S as a two-atom query over the relations' attributes; its atoms
    are named by position (``R``, ``S``), so a self-join is one too."""
    return ConjunctiveQuery([Atom("R", r.schema.attributes), Atom("S", s.schema.attributes)])


def key_residuals(
    cluster: Cluster,
    r: Relation,
    s: Relation,
    shared: tuple[str, ...],
    keys: Sequence[tuple],
    p: int,
    seed: int,
    light: bool = False,
) -> tuple[Relation, list[int]]:
    """R ⋈ S on a pool of ``p`` servers of ``cluster`` from its first, and
    the pool size per residual: SkewHC's residuals of :func:`two_way_query`
    with the ``shared`` variables' heavy values fixed to the join keys
    ``keys``' and nothing else heavy, their pools within ``p`` servers while
    there are no more residuals than that.

    By default only the residuals binding a key run — the join on those
    keys alone. ``light`` keeps every residual, so the light values take
    the all-light one (a hash join) and the output is all of R ⋈ S; with at
    most ``p - 1`` keys that is at most ``p`` residuals, and keys are left
    light from the end of ``keys`` while a composite key's partial
    matches take more.
    """
    query, relations = two_way_query(r, s), {"R": r, "S": s}
    keys = tuple(map(tuple, keys))

    def plan(peeled: tuple) -> tuple:
        heavy = {v: () for v in query.variables}
        for v, values in zip(shared, zip(*peeled)):
            heavy[v] = tuple(ordered(dict.fromkeys(values)))
        keyed = None if light else (shared, set(peeled))
        return _plan(query, relations, p, heavy, 100_000, keyed, strict=True)

    def build() -> tuple:
        for count in range(len(keys), 0, -1):
            built = plan(keys[:count])
            if not light or len(built[1]) <= p:
                return built
        return plan(())

    _heavy, jobs, routes = cached_view(
        (r, s), ("skewhc-keys", shared, keys, p, light), build, cluster.stats.memo
    )
    return _run(cluster, query, relations, jobs, routes, seed), [job.servers for job in jobs]


def _run(cluster: Cluster, query: ConjunctiveQuery, relations: Mapping[str, Relation],
         jobs: list, routes: dict, seed: int) -> Relation:
    """The plan's residuals on side-by-side pools of ``cluster`` from its
    first server, in one round and one evaluation dispatch; the output in
    the query's variable order."""
    patterns = [list(g) for _, g in itertools.groupby(jobs, key=lambda job: job.residual)]
    servers = sum(job.servers for job in jobs)
    parts: list[Relation] = []

    def residuals(_: int, pools: Cluster) -> None:
        salts = [pools.hash_function(i, 1).salt for i in range(len(query.variables))]
        with pools.round("hypercube") as rnd:
            for atom in query.atoms:
                route_pools(
                    pools, rnd, relations[atom.name], routes[atom.name], salts,
                    f"{atom.name}@hc",
                )
        # One dispatch evaluates every residual (the pools are disjoint,
        # none waits on another): one call, and one output, per pattern.
        staged = [pattern for pattern in patterns if pattern[0].servers]
        owners = [[job for job in pattern for _ in range(job.grid.size)] for pattern in staged]
        evaluated = [
            ([pools.servers[job.base + cell] for job in pattern for cell in range(job.grid.size)],
             pattern[0].residual)
            for pattern in staged
        ]
        for holders, (gathered, bounds) in zip(owners, evaluate_pools(pools, evaluated)):
            parts.append(_expand(query, holders, gathered, np.diff(bounds)))

    if servers:
        # The residuals' pools sit side by side from server 0, so their
        # one round spans all of them: one pool of their total size.
        cluster.side_by_side([servers], seed, residuals)
    if patterns and not patterns[-1][0].servers:
        # Every variable bound: the combinations themselves are the output.
        parts.append(_expand(query, patterns[-1], None, [1] * len(patterns[-1])))
    return union_all("OUT", parts or [Relation("OUT", list(query.variables))])


def residual_loads(
    query: ConjunctiveQuery, relations: Mapping[str, Relation], p: int, seed: int = 0
) -> list[tuple[int, float]]:
    """``(pool servers, load)`` per residual of :func:`skewhc_join`'s round,
    read off the plan the run replays: the HyperCube price of its grid under
    its pool's hash functions (one server: one cell, its input size)."""
    _relations, _threshold, (_heavy, jobs, _routes) = _planned(query, relations, p)
    family = HashFamily(seed)
    return [
        (job.servers, priced_load(
            job.residual, job.restricted, dict(zip(job.residual.variables, job.grid.extents)),
            {v: family.function(i, 1).salt for i, v in enumerate(job.residual.variables)},
        ))
        for job in jobs if job.servers
    ]


def _planned(query, relations, p, threshold=None, max_combinations=100_000, stats=None) -> tuple:
    """``(aligned relations, threshold, plan)``: the threshold defaults to the
    tutorial's N/p (N the largest relation), and the plan is a view of them."""
    relations = {a.name: align(a, bound(relations, a.name)) for a in query.atoms}
    if threshold is None:
        threshold = max(max((len(r) for r in relations.values()), default=0) / p, 1.0)
    return relations, threshold, cached_view(
        tuple(relations.values()), ("skewhc", tuple(query.atoms), p, threshold, max_combinations),
        lambda: _plan(
            query, relations, p, find_heavy_values(query, relations, threshold), max_combinations,
        ),
        stats,
    )


@dataclass
class _ResidualJob:
    """One heavy/light combination: a residual query over restricted data."""

    bound: dict[str, Any]
    restricted: dict[str, Relation]
    multiplicity: int
    codes: dict[str, int]  # per variable: 0 = light, 1 + i = the i-th heavy value
    # Set by the plan: the residual query (shared by a pattern's jobs; None
    # when every variable is bound), the pool and its share grid.
    residual: ConjunctiveQuery | None = None
    base: int = 0
    servers: int = 0
    grid: Grid | None = None


def _plan(query, relations, p: int, heavy: dict, max_combinations: int, keys=None,
          strict: bool = False) -> tuple:
    """``(heavy sets, jobs with pools and grids, ``route_pools`` routes per
    atom)``; ``keys``, a ``(variables, bound values)`` pair, keeps only the
    jobs binding those variables to one of those values, and ``strict``
    keeps the pools within ``p`` servers while there are no more jobs
    (:func:`~repro.joins.heavy.allocate_servers`)."""
    jobs = _residual_jobs(query, relations, heavy, max_combinations)
    if keys is not None:
        variables, values = keys
        jobs = [job for job in jobs if len(job.bound) == len(variables)
                and tuple(job.bound[v] for v in variables) in values]
    sizes = [sum(map(len, job.restricted.values())) for job in jobs]
    allocation = allocate_servers([max(size, 1) for size in sizes], p, strict)
    residuals: dict[tuple, tuple] = {}  # per pattern: its residual and its one-cell grid
    base = 0
    for job, p_job in zip(jobs, allocation):
        if len(job.bound) == len(query.variables):
            continue
        pattern = tuple(job.bound)
        if pattern not in residuals:
            residual = query.residual(pattern)
            residuals[pattern] = residual, Grid([1] * len(residual.variables))
        job.residual, job.grid = residuals[pattern]
        if p_job > 1:  # a single server leaves the share search nothing to decide
            sizes = {name: len(rel) for name, rel in job.restricted.items()}
            shares = optimal_shares(job.residual, sizes, p_job).integral
            job.grid = Grid([shares.get(v, 1) for v in job.residual.variables])
        job.base, job.servers = base, p_job
        base += p_job
    return heavy, jobs, _routes(query, heavy, jobs)


def _routes(query: ConjunctiveQuery, heavy: dict, jobs: list) -> dict[str, list[tuple]]:
    """Per atom, its ``route_pools`` routes in job order. A restriction is
    named by what defines it: per variable of the atom, the heavy values and
    which of them (or light) it holds."""
    routes: dict[str, list[tuple]] = {atom.name: [] for atom in query.atoms}
    for job in jobs:
        for atom in job.residual.atoms if job.servers else ():
            routes[atom.name].append((
                tuple((heavy[v], job.codes[v]) for v in query.atom(atom.name).variables),
                job.restricted[atom.name], job.base, job.servers,
                tuple(job.residual.variables.index(v) for v in atom.variables),
                job.grid.extents, job.grid.strides,
            ))
    return routes


def _expand(
    query: ConjunctiveQuery,
    jobs: Sequence[_ResidualJob],
    gathered: Relation | None,
    produced: Sequence[int],
) -> Relation:
    """A pattern's output in the query's variable order: the gathered
    residual columns, each residual's bound values broadcast as constant
    columns over the ``produced`` rows it contributed, every row repeated
    by its residual's vanished-atom multiplicity."""
    free = {} if gathered is None else dict(zip(gathered.schema.attributes, gathered.columns()))
    counts = np.asarray(produced, dtype=np.int64)
    times = np.array([job.multiplicity for job in jobs], dtype=np.int64)
    row = np.repeat(np.arange(int(counts.sum())), np.repeat(times, counts))
    owner = np.repeat(np.arange(len(jobs)), counts * times)
    columns = [
        free[v][row] if v in free else column_of([job.bound[v] for job in jobs])[owner]
        for v in query.variables
    ]
    return Relation.from_columns("OUT", query.variables, columns)


# ---------------------------------------------- classification and residuals


def _atom_view(rel: Relation, atom: Atom, ranked: dict[str, list]) -> dict:
    """``{codes: restriction}`` of one atom: per variable 0 for light, else
    ``1 +`` the rank of a heavy value; the restriction is the relation over
    the light (free) positions of the rows carrying exactly those codes, in
    ``rel``'s row order, or their count when no position is free (the atom
    vanishes from that residual). One memoized view per (relation token,
    atom variables, heavy values); the aligned parent's columns, uncopied,
    when no variable of the atom has a heavy value — not the parent, which
    the plan holding it would keep alive (the plan is a view of it)."""
    values = tuple(tuple(ranked[v]) for v in atom.variables)
    if not any(values):
        whole = Relation.from_columns(rel.name, atom.variables, rel.columns())
        return {(0,) * atom.arity: whole} if len(rel) else {}
    return cached_view(
        rel, ("skewhc-atom", atom.variables, values), lambda: _classify(rel, atom, values)
    )


def _classify(rel: Relation, atom: Atom, values: tuple) -> dict:
    columns = rel.columns()
    digits = [
        locate([column], [column_of(list(heavy))]) + 1 for column, heavy in zip(columns, values)
    ]
    # One code per row that orders as its code tuple: one stable sort groups them.
    code, span, _radix = pack_columns(digits, dense=True)
    order = np.argsort(shrink(code, span), kind="stable")
    code = code[order]
    starts = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1]))[: len(code)])
    keys = zip(*(digit[order[starts]].tolist() for digit in digits))
    columns = [c[order] for c in columns]
    for column in columns:
        column.flags.writeable = False  # shared by every slice below
    groups: dict[tuple, Any] = {}
    bounds = starts.tolist() + [len(order)]
    for key, lo, hi in zip(keys, bounds, bounds[1:]):
        free = [i for i, digit in enumerate(key) if not digit]
        groups[key] = Relation.from_columns(
            atom.name, [atom.variables[i] for i in free], [columns[i][lo:hi] for i in free]
        ) if free else hi - lo
    return groups


def _residual_jobs(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    heavy: Mapping[str, Any],
    max_combinations: int,
) -> list[_ResidualJob]:
    """Every non-empty heavy/light combination, pattern by pattern.

    A combination has rows exactly when every atom has a group whose codes
    agree with it, so the combinations are the join of the atoms' group
    keys on their shared variables — no value without rows is looked at.
    They are numbered by pattern (the set of bound variables: by size,
    then in variable order), then by the bound values' rank
    (:func:`~repro.kernels.memo.ordered`: ascending when orderable).
    """
    ranked = {v: ordered(values) for v, values in heavy.items()}
    views = {a.name: _atom_view(relations[a.name], a, ranked) for a in query.atoms}
    # A combination is its codes in variable order and its group per atom so
    # far; the atoms bind the variables in that order, so an atom's group keys
    # join the combinations on the positions already bound and append the rest.
    combinations: list[tuple] = [((), ())]
    for atom in query.atoms:
        seen = len(combinations[0][0])
        at = [query.variables.index(v) for v in atom.variables]
        shared = [i for i, j in enumerate(at) if j < seen]
        new = [i for i, j in enumerate(at) if j >= seen]
        keys: dict[tuple, list] = {}
        for key, group in views[atom.name].items():
            keys.setdefault(tuple([key[i] for i in shared]), []).append(
                (tuple([key[i] for i in new]), group))
        held = [at[i] for i in shared]
        combinations = [
            (codes + rest, groups + (group,)) for codes, groups in combinations
            for rest, group in keys.get(tuple([codes[j] for j in held]), ())
        ]
        if not combinations:
            return []
        if len(combinations) > max_combinations:
            raise QueryError(f"SkewHC exceeded {max_combinations} heavy combinations")

    def number(combination: tuple) -> tuple:
        codes = combination[0]
        held = [i for i, code in enumerate(codes) if code]
        return len(held), held, [codes[i] for i in held]

    return [_job(query, ranked, *combination) for combination in sorted(combinations, key=number)]


def _job(query, ranked: dict, codes: tuple, groups: tuple) -> _ResidualJob:
    variables = query.variables
    bound = {v: ranked[v][code - 1] for v, code in zip(variables, codes) if code}
    job = _ResidualJob(bound, {}, 1, dict(zip(variables, codes)))
    for atom, group in zip(query.atoms, groups):
        if isinstance(group, Relation):
            job.restricted[atom.name] = group
        else:
            # The atom vanishes in the residual; it acts as a filter whose
            # match count multiplies output multiplicities (bag semantics).
            job.multiplicity *= group
    return job
