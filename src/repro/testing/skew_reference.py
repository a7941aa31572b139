"""The per-value, per-tuple SkewHC body — the independent reference.

:mod:`repro.multiway.skewhc` decomposes skew once per atom and once per
heavy/light pattern, as index arithmetic, for every query (the skew join
and the sort join's straddling keys are its two-atom case). What it
replaced lives on here, moved and not rewritten: one restricted relation
per (atom, heavy combination) filtered by a per-row closure, and one
cluster per residual, their rounds merged by a loop of its own
(:func:`side_by_side`). The equivalence suite
(``tests/multiway/test_skew_one_pass.py``) runs it against the one-pass
code — same output bag, same ``received`` lists — so nothing here shares
a line with what it checks, beyond the heavy-hitter scan and the server
allocation both sides are handed.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Any

from repro.data.relation import Relation
from repro.joins.heavy import allocate_servers
from repro.mpc.stats import RoundStats, RunStats
from repro.multiway.base import MultiwayRun
from repro.multiway.hypercube import hypercube_join
from repro.multiway.skewhc import find_heavy_values
from repro.query.cq import ConjunctiveQuery

Row = tuple[Any, ...]


def side_by_side(p: int, runs: list[RunStats]) -> RunStats:
    """Runs on pools side by side as one: their k-th rounds are one round
    listing every pool's servers in order, an idle pool's as zeros."""
    stats = RunStats(p)
    for k in range(max((len(run.rounds) for run in runs), default=0)):
        here = [run.rounds[k] if k < len(run.rounds) else RoundStats("", [0] * run.p)
                for run in runs]
        labels = dict.fromkeys(rd.label for rd in here if rd.label)
        stats.rounds.append(RoundStats("+".join(labels), [n for rd in here for n in rd.received]))
    return stats


# ------------------------------------------------------------------- SkewHC


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


def remap(
    query: ConjunctiveQuery, bound: dict[str, Any], multiplicity: int, run: MultiwayRun
) -> list[Row]:
    """Re-expand residual output rows to the original variable order."""
    residual_vars = list(run.output.schema.attributes)
    res_pos = {v: i for i, v in enumerate(residual_vars)}
    rows = []
    for out_row in run.output:
        full = tuple(
            bound[v] if v in bound else out_row[res_pos[v]]
            for v in query.variables
        )
        rows.extend([full] * multiplicity)
    return rows


def reference_skewhc(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    seed: int = 0,
    threshold: float | None = None,
    heavy: Mapping[str, Any] | None = None,
    light: bool = False,
) -> tuple[list[Row], RunStats, int]:
    """SkewHC one heavy *value* combination at a time: ``(rows, stats, jobs)``.

    Every combination of heavy values restricts every atom with its own
    row scan and — unless it binds every variable — runs HyperCube on its
    own cluster of ``allocate_servers``' size; the costs combine as
    runs on side-by-side pools. ``relations`` must be in atom order.
    ``heavy`` fixes the heavy values of the variables it names (none
    elsewhere) in place of the threshold's, and keeps only the
    combinations binding exactly those variables (the sort join's
    straddling keys) unless ``light`` keeps them all (the skew join); its
    pools are then kept within ``p`` (``allocate_servers``' ``strict``).
    """
    n_max = max((len(r) for r in relations.values()), default=0)
    if threshold is None:
        threshold = max(n_max / p, 1.0)
    named = None if heavy is None else [v for v in query.variables if v in heavy]
    if heavy is None:
        heavy = find_heavy_values(query, relations, threshold)
    heavy = {v: set(heavy.get(v, ())) for v in query.variables}
    heavy_vars = [v for v in query.variables if heavy[v]]
    jobs = []
    for r in range(len(heavy_vars) + 1):
        for subset in itertools.combinations(heavy_vars, r):
            if named is not None and not light and list(subset) != named:
                continue
            for values in itertools.product(*(sorted(heavy[v]) for v in subset)):
                bound = dict(zip(subset, values))
                restricted: dict[str, Relation] = {}
                multiplicity = 1
                for atom in query.atoms:
                    kind, value = _restrict_atom(relations[atom.name], atom, bound, heavy)
                    if not (value if kind == "count" else len(value)):
                        break
                    if kind == "count":
                        multiplicity *= value
                    else:
                        restricted[atom.name] = value
                else:
                    jobs.append((bound, restricted, multiplicity))
    weights = [max(sum(len(r) for r in job[1].values()), 1) for job in jobs]
    rows: list[Row] = []
    runs = []
    allocation = allocate_servers(weights, p, strict=named is not None)
    for (bound, restricted, multiplicity), p_job in zip(jobs, allocation):
        if len(bound) == len(query.variables):
            rows.extend([tuple(bound[v] for v in query.variables)] * multiplicity)
            continue
        run = hypercube_join(query.residual(list(bound)), restricted, max(p_job, 1), seed=seed)
        rows.extend(remap(query, bound, multiplicity, run))
        runs.append(run.stats)
    return rows, side_by_side(p, runs), len(jobs)
