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
from repro.kernels.columnar import column_of
from repro.kernels.join import lookup_codes
from repro.kernels.memo import align, bound, cached_view, degree_view, ordered, route_pools
from repro.kernels.partition import stable_groups
from repro.mpc.cluster import Cluster
from repro.mpc.topology import Grid
from repro.multiway.base import MultiwayRun
from repro.multiway.hypercube import evaluate_pools
from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.shares import optimal_shares


def heavy_values_at(rel: Relation, variable: str, threshold: float) -> list:
    """SkewHC's heavy-hitter rule: the values of ``variable`` whose degree in
    ``rel`` is at least ``threshold``, read from its degree view (in the
    view's order). The planner's residual estimate counts by it too."""
    (keys,), counts = degree_view(rel, rel.schema.indices((variable,)))
    return keys[counts >= threshold].tolist()


def find_heavy_values(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    threshold: float,
) -> dict[str, tuple]:
    """Per-variable heavy hitters — degree ≥ threshold in some atom — in
    :func:`~repro.kernels.memo.ordered` order: one memoized view of the
    relations, shared (read only) by the planner's residual estimate and
    SkewHC's plan."""
    rels = tuple(bound(relations, a.name) for a in query.atoms)

    def build() -> dict[str, tuple]:
        heavy: dict[str, dict] = {v: {} for v in query.variables}
        for atom, rel in zip(query.atoms, rels):
            for variable in atom.variables:
                heavy[variable].update(dict.fromkeys(heavy_values_at(rel, variable, threshold)))
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
    relations = {a.name: align(a, bound(relations, a.name)) for a in query.atoms}
    n_max = max((len(r) for r in relations.values()), default=0)
    if threshold is None:
        threshold = max(n_max / p, 1.0)
    cluster = Cluster(p, seed=seed)
    # Heavy sets, residuals, pools and share grids follow from the
    # relations' contents: one view of all of them.
    heavy, jobs, routes = cached_view(
        tuple(relations.values()),
        ("skewhc", tuple(query.atoms), p, threshold, max_combinations),
        lambda: _plan(query, relations, p, threshold, max_combinations), cluster.stats.memo,
    )
    patterns = [list(g) for _, g in itertools.groupby(jobs, key=lambda job: job.residual)]
    allocation = [job.servers for job in jobs]
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
        # none waits on another): one call, and one gather, per pattern.
        staged = [pattern for pattern in patterns if pattern[0].servers]
        owners = [[job for job in pattern for _ in range(job.grid.size)] for pattern in staged]
        evaluated = [
            ([pools.servers[job.base + cell] for job in pattern for cell in range(job.grid.size)],
             pattern[0].residual, f"out@{','.join(pattern[0].bound)}")
            for pattern in staged
        ]
        for holders, (servers, _, fragment), gathered in zip(
            owners, evaluated, evaluate_pools(pools, evaluated)
        ):
            lengths = [len(server.get(fragment)) for server in servers]
            parts.append(_expand(query, holders, gathered, lengths))

    if any(allocation):
        # The residuals' pools sit side by side from server 0, so their
        # one round spans all of them: one pool of their total size.
        cluster.side_by_side([sum(allocation)], seed, residuals)
    if patterns and not patterns[-1][0].servers:
        # Every variable bound: the combinations themselves are the output.
        parts.append(_expand(query, patterns[-1], None, [1] * len(patterns[-1])))
    stats = cluster.stats
    stats.pools = allocation
    details = {
        "threshold": threshold, "jobs": len(jobs), "allocation": allocation,
        "heavy": {v: set(values) for v, values in heavy.items()},
        "patterns": [tuple(pattern[0].bound) for pattern in patterns],
    }
    output = union_all("OUT", parts or [Relation("OUT", list(query.variables))])
    return MultiwayRun(output, stats, details)


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

    @property
    def input_size(self) -> int:
        return sum(len(r) for r in self.restricted.values())


def _plan(query, relations, p: int, threshold: float, max_combinations: int) -> tuple:
    """``(heavy sets, jobs with pools and grids, ``route_pools`` routes per atom)``."""
    heavy = find_heavy_values(query, relations, threshold)
    jobs = _residual_jobs(query, relations, heavy, max_combinations)
    allocation = allocate_servers([max(job.input_size, 1) for job in jobs], p)
    residuals: dict[tuple, ConjunctiveQuery] = {}
    routes: dict[str, list[tuple]] = {atom.name: [] for atom in query.atoms}
    base = 0
    for job, p_job in zip(jobs, allocation):
        if len(job.bound) == len(query.variables):
            continue
        pattern = tuple(job.bound)
        job.residual = residual = (
            residuals.get(pattern) or residuals.setdefault(pattern, query.residual(pattern))
        )
        sizes = {name: len(rel) for name, rel in job.restricted.items()}
        # A single server leaves the share search nothing to decide.
        shares = optimal_shares(residual, sizes, p_job).integral if p_job > 1 else {}
        job.grid = grid = Grid([shares.get(v, 1) for v in residual.variables])
        job.base, job.servers = base, p_job
        for atom in residual.atoms:
            # A restriction is named by what defines it: per variable of the
            # atom, the heavy values and which of them (or light) it holds.
            name = tuple((heavy[v], job.codes[v]) for v in query.atom(atom.name).variables)
            dims = tuple(residual.variables.index(v) for v in atom.variables)
            routes[atom.name].append(
                (name, job.restricted[atom.name], base, p_job, dims, grid.extents, grid.strides)
            )
        base += p_job
    return heavy, jobs, routes


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
    atom variables, heavy values); the aligned parent itself, uncopied,
    when no variable of the atom has a heavy value."""
    values = tuple(tuple(ranked[v]) for v in atom.variables)
    if not any(values):
        return {(0,) * atom.arity: rel} if len(rel) else {}
    return cached_view(
        rel, ("skewhc-atom", atom.variables, values), lambda: _classify(rel, atom, values)
    )


def _classify(rel: Relation, atom: Atom, values: tuple) -> dict:
    columns = rel.columns()
    codes = [
        lookup_codes([column], [(value,) for value in heavy]) + 1
        for column, heavy in zip(columns, values)
    ]
    order, starts = stable_groups(codes)
    columns = [c[order] for c in columns]
    for column in columns:
        column.flags.writeable = False  # shared by every slice below
    groups: dict[tuple, Any] = {}
    for lo, hi in zip(starts, starts[1:] + [len(order)]):
        key = tuple(int(c[order[lo]]) for c in codes)
        free = [i for i, code in enumerate(key) if not code]
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
    combinations: list[dict[str, int]] = [{}]
    for atom in query.atoms:
        combinations = [
            {**codes, **dict(zip(atom.variables, key))}
            for codes in combinations for key in views[atom.name]
            if all(codes.get(v, code) == code for v, code in zip(atom.variables, key))
        ]
        if len(combinations) > max_combinations:
            raise QueryError(f"SkewHC exceeded {max_combinations} heavy combinations")

    def number(codes: dict[str, int]) -> tuple:
        held = [i for i, v in enumerate(query.variables) if codes[v]]
        return len(held), held, [codes[query.variables[i]] for i in held]

    return [_job(query, views, ranked, codes) for codes in sorted(combinations, key=number)]


def _build_job(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    heavy: Mapping[str, Any],
    bound: dict[str, Any],
) -> _ResidualJob | None:
    """Restrict all relations to one combination; None if provably empty."""
    jobs = _residual_jobs(query, relations, heavy, max_combinations=2**62)
    return next((job for job in jobs if job.bound == bound), None)


def _job(query, views: dict, ranked: dict, codes: dict[str, int]) -> _ResidualJob:
    bound = {v: ranked[v][codes[v] - 1] for v in query.variables if codes[v]}
    job = _ResidualJob(bound, {}, 1, codes)
    for atom in query.atoms:
        group = views[atom.name][tuple(codes[v] for v in atom.variables)]
        if isinstance(group, Relation):
            job.restricted[atom.name] = group
        else:
            # The atom vanishes in the residual; it acts as a filter whose
            # match count multiplies output multiplicities (bag semantics).
            job.multiplicity *= group
    return job
