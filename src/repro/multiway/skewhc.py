"""SkewHC: HyperCube made skew-resilient (slides 46–51).

Plain HyperCube's load guarantee collapses on skewed data. SkewHC fixes a
degree threshold (a value is a *heavy hitter* when it occurs ≥ N/p times
in some relation), and splits the output space by which variables take
heavy values:

- for every subset ``H`` of variables and every combination of heavy
  values for ``H``, the *residual query* Q_H — obtained by deleting the
  bound variables and dropping emptied atoms — is evaluated by HyperCube
  on its own exclusive server allocation, over the relations restricted
  to that combination (heavy on ``H``, light elsewhere);
- the all-light residual is ordinary HyperCube on light-only data.

Each original output tuple belongs to exactly one combination, so the
union of the residual outputs is exact. The worst residual governs the
load: L = Θ(IN / p^{1/ψ*}) where ψ* = max_H τ*(Q_H) (slide 47), and no
one-round algorithm can do better.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Any

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.joins.heavy import allocate_servers
from repro.kernels.memo import align, bound, cached_view, value_degrees
from repro.mpc.cluster import combine_parallel
from repro.multiway.base import MultiwayRun
from repro.multiway.hypercube import StagedHypercube, hypercube_route
from repro.query.cq import ConjunctiveQuery

Row = tuple[Any, ...]


def find_heavy_values(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    threshold: float,
) -> dict[str, set[Any]]:
    """Per-variable heavy-hitter sets: degree ≥ threshold in some atom."""
    heavy: dict[str, set[Any]] = {v: set() for v in query.variables}
    for atom in query.atoms:
        rel = relations[atom.name]
        for variable in atom.variables:
            # Degree maps are memoized per mutation token — every residual
            # stage of a repeated SkewHC run reuses them.
            for value, count in value_degrees(rel, variable).items():
                if count >= threshold:
                    heavy[variable].add(value)
    return heavy


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
    relation. All residual executions run on disjoint server pools, so
    the combined cost keeps ``r = 1`` (each residual is one HyperCube
    round) with ``L`` the max over residuals.
    """
    relations = {a.name: align(a, bound(relations, a.name)) for a in query.atoms}
    n_max = max((len(r) for r in relations.values()), default=0)
    if threshold is None:
        threshold = max(n_max / p, 1.0)
    heavy = find_heavy_values(query, relations, threshold)

    jobs = _residual_jobs(query, relations, heavy, max_combinations)
    if not jobs:
        # No data at all: empty output, zero cost.
        from repro.mpc.stats import RunStats

        output = Relation("OUT", list(query.variables))
        return MultiwayRun(output, RunStats(p), {"threshold": threshold, "jobs": 0})

    weights = [max(job.input_size, 1) for job in jobs]
    allocation = allocate_servers(weights, p)

    # Phase 1 — coordinator side: route every residual on its own
    # cluster; fully-bound combinations produce their rows immediately.
    rows_per_job: list[list[Row]] = [[] for _ in jobs]
    staged: list[tuple[int, _ResidualJob, StagedHypercube]] = []
    for index, (job, p_job) in enumerate(zip(jobs, allocation)):
        prepared = job.stage(max(p_job, 1), seed)
        if prepared is None:
            rows_per_job[index] = job.bound_rows()
        else:
            staged.append((index, job, prepared))

    # Phase 2 — one batched eval dispatch. The residual clusters live on
    # disjoint server pools, so their hypercube.eval rounds have no
    # coordinator dependency between them: all residuals ride a single
    # queue message per worker instead of one round-trip per residual.
    # The clusters share the ambient backend instance; the dispatch is
    # accounted to the first staged cluster's ExecStats, which is
    # faithful in aggregate because combine_parallel sums them.
    runs = []
    if staged:
        backend = staged[0][2].cluster.backend
        per_call = backend.map_payload_batch(
            [
                ("hypercube.eval", entry.payloads, entry.common)
                for _, _, entry in staged
            ],
            stats=staged[0][2].cluster.stats.exec,
        )
        # Phase 3 — coordinator side again: gather and remap per residual.
        for (index, job, entry), results in zip(staged, per_call):
            run = entry.finish(results)
            rows_per_job[index] = job.remap(run)
            runs.append(run.stats)

    out_rows: list[Row] = [row for rows in rows_per_job for row in rows]
    output = Relation("OUT", list(query.variables), out_rows)
    return MultiwayRun(
        output,
        combine_parallel(p, runs),
        {"threshold": threshold, "jobs": len(jobs), "heavy": heavy},
    )


class _ResidualJob:
    """One heavy/light combination: a residual query over restricted data."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        bound: dict[str, Any],
        restricted: dict[str, Relation],
        multiplicity: int,
    ) -> None:
        self.query = query
        self.bound = bound
        self.restricted = restricted
        self.multiplicity = multiplicity
        self.input_size = sum(len(r) for r in restricted.values())

    def stage(self, p: int, seed: int) -> StagedHypercube | None:
        """Route the residual HyperCube run; ``None`` when fully bound."""
        free = [v for v in self.query.variables if v not in self.bound]
        if not free:
            return None
        residual = self.query.residual(list(self.bound))
        return hypercube_route(residual, self.restricted, p, seed=seed)

    def bound_rows(self) -> list[Row]:
        """Fully bound: the combination itself is the output (weighted
        by the vanished atoms' multiplicities)."""
        row = tuple(self.bound[v] for v in self.query.variables)
        return [row] * self.multiplicity

    def remap(self, run: MultiwayRun) -> list[Row]:
        """Re-expand residual output rows to the original variable order."""
        residual_vars = list(run.output.schema.attributes)
        res_pos = {v: i for i, v in enumerate(residual_vars)}
        rows = []
        for out_row in run.output:
            full = tuple(
                self.bound[v] if v in self.bound else out_row[res_pos[v]]
                for v in self.query.variables
            )
            rows.extend([full] * self.multiplicity)
        return rows

    def execute(self, p: int, seed: int) -> tuple[list[Row], Any]:
        """Route, evaluate, and remap this residual on its own (unbatched)."""
        staged = self.stage(p, seed)
        if staged is None:
            return self.bound_rows(), None
        run = staged.evaluate()
        return self.remap(run), run.stats


def _residual_jobs(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    heavy: dict[str, set[Any]],
    max_combinations: int,
) -> list[_ResidualJob]:
    jobs: list[_ResidualJob] = []
    heavy_vars = [v for v in query.variables if heavy[v]]
    total = 0
    for r in range(len(heavy_vars) + 1):
        for subset in itertools.combinations(heavy_vars, r):
            combos = itertools.product(*(sorted(heavy[v]) for v in subset))
            for values in combos:
                total += 1
                if total > max_combinations:
                    raise QueryError(
                        f"SkewHC exceeded {max_combinations} heavy combinations"
                    )
                bound = dict(zip(subset, values))
                job = _build_job(query, relations, heavy, bound)
                if job is not None:
                    jobs.append(job)
    return jobs


def _build_job(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    heavy: dict[str, set[Any]],
    bound: dict[str, Any],
) -> _ResidualJob | None:
    """Restrict all relations to one combination; None if provably empty."""
    restricted: dict[str, Relation] = {}
    multiplicity = 1
    for atom in query.atoms:
        rel = relations[atom.name]
        # The restriction depends only on the relation's contents, the
        # bound values of the atom's variables, and the heavy sets of its
        # free variables — memoize it per mutation token so repeated
        # SkewHC runs (and self-joined atoms sharing a relation) reuse
        # the scan. The cached residual relation keeps a stable identity,
        # which is what lets the residual HyperCube's partition cache hit.
        bound_key = tuple((v, bound[v]) for v in atom.variables if v in bound)
        heavy_key = tuple(
            (v, tuple(sorted(heavy[v])))
            for v in atom.variables
            if v not in bound and heavy[v]
        )
        kind, value = cached_view(
            rel,
            ("restrict", atom.variables, bound_key, heavy_key),
            lambda rel=rel, atom=atom: _restrict_atom(rel, atom, bound, heavy),
        )
        if kind == "count":
            # The atom vanishes in the residual; it acts as a filter whose
            # match count multiplies output multiplicities (bag semantics).
            if not value:
                return None
            multiplicity *= value
        else:
            if not len(value):
                return None
            restricted[atom.name] = value
    return _ResidualJob(query, bound, restricted, multiplicity)


def _restrict_atom(
    rel: Relation,
    atom: Any,
    bound: dict[str, Any],
    heavy: dict[str, set[Any]],
) -> tuple[str, Any]:
    """One atom's heavy/light restriction: ``("count", n)`` when the atom
    is fully bound (vanishes), else ``("rel", Relation)`` over the free
    positions."""
    positions = [(i, v) for i, v in enumerate(atom.variables)]

    def keep(row: Row) -> bool:
        for i, v in positions:
            if v in bound:
                if row[i] != bound[v]:
                    return False
            elif row[i] in heavy[v]:
                return False
        return True

    kept = [row for row in rel if keep(row)]
    free_positions = [i for i, v in positions if v not in bound]
    if not free_positions:
        return ("count", len(kept))
    free_vars = [atom.variables[i] for i in free_positions]
    return (
        "rel",
        Relation(
            atom.name,
            free_vars,
            [tuple(row[i] for i in free_positions) for row in kept],
        ),
    )
