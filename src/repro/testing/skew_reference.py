"""The per-value, per-tuple skew bodies — the independent reference.

:mod:`repro.multiway.skewhc` and :mod:`repro.joins.heavy` decompose skew
once per atom and once per heavy/light pattern, as index arithmetic.
What they replaced lives on here, moved and not rewritten: one restricted
relation per (atom, heavy combination) filtered by a per-row closure, one
cluster per residual (their rounds merged by a loop of its own,
:func:`side_by_side`), one ``send`` and one scalar hash per heavy tuple,
and one scalar hash and one send per grid-product tuple and cell.
The equivalence suite (``tests/multiway/test_skew_one_pass.py``) runs
these against the one-pass code — same output bag, same ``received``
lists — so nothing here shares a line with what it checks, beyond the
heavy-hitter scan, the server allocation and the grid's rectangle shape
both sides are handed.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Any

from repro.data.relation import Relation
from repro.joins.cartesian import optimal_rectangle
from repro.joins.heavy import allocate_servers
from repro.mpc.cluster import Cluster
from repro.mpc.stats import RoundStats, RunStats
from repro.multiway.base import MultiwayRun
from repro.multiway.hypercube import hypercube_join
from repro.multiway.skewhc import find_heavy_values
from repro.query.cq import ConjunctiveQuery
from repro.testing.scalar_reference import send_row

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
) -> tuple[list[Row], RunStats, int]:
    """SkewHC one heavy *value* combination at a time: ``(rows, stats, jobs)``.

    Every combination of heavy values restricts every atom with its own
    row scan and — unless it binds every variable — runs HyperCube on its
    own cluster of ``allocate_servers``' size; the costs combine as
    runs on side-by-side pools. ``relations`` must be in atom order.
    """
    n_max = max((len(r) for r in relations.values()), default=0)
    if threshold is None:
        threshold = max(n_max / p, 1.0)
    heavy = find_heavy_values(query, relations, threshold)
    heavy_vars = [v for v in query.variables if heavy[v]]
    jobs = []
    for r in range(len(heavy_vars) + 1):
        for subset in itertools.combinations(heavy_vars, r):
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
    for (bound, restricted, multiplicity), p_job in zip(jobs, allocate_servers(weights, p)):
        if len(bound) == len(query.variables):
            rows.extend([tuple(bound[v] for v in query.variables)] * multiplicity)
            continue
        run = hypercube_join(query.residual(list(bound)), restricted, max(p_job, 1), seed=seed)
        rows.extend(remap(query, bound, multiplicity, run))
        runs.append(run.stats)
    return rows, side_by_side(p, runs), len(jobs)


# ------------------------------------------------------ heavy value products


def reference_heavy_products(
    r: Relation,
    s: Relation,
    shared: tuple[str, ...],
    heavy_keys: list[Row],
    p: int,
    seed: int = 0,
) -> tuple[list[Row], RunStats]:
    """R ⋈ S on the heavy join keys, grouped and placed tuple by tuple, one
    cluster per pool."""
    if not heavy_keys:
        return [], RunStats(p)

    r_idx = r.schema.indices(shared)
    s_idx = s.schema.indices(shared)
    extra = [a for a in s.schema.attributes if a not in r.schema]
    extra_idx = s.schema.indices(extra)

    r_groups: dict[Row, list[Row]] = {k: [] for k in heavy_keys}
    s_groups: dict[Row, list[Row]] = {k: [] for k in heavy_keys}
    for row in r:
        key = tuple(row[i] for i in r_idx)
        if key in r_groups:
            r_groups[key].append(row)
    for row in s:
        key = tuple(row[i] for i in s_idx)
        if key in s_groups:
            s_groups[key].append(row)

    weights = [max(len(r_groups[k]) * len(s_groups[k]), 1) for k in heavy_keys]
    total = sum(weights)
    big: list[tuple[Row, int]] = []
    small: list[Row] = []
    for key, weight in zip(heavy_keys, weights):
        share = weight / total * p
        if share >= 1.0:
            big.append((key, max(1, int(share))))
        else:
            small.append(key)
    p_big = sum(alloc for _, alloc in big)
    p_small = max(p - p_big, 1) if small else 0

    out_rows: list[Row] = []
    runs: list[RunStats] = []
    for key, p_b in big:
        rows, stats = _one_heavy_product(r_groups[key], s_groups[key], extra_idx, p_b, seed)
        out_rows.extend(rows)
        runs.append(stats)
    if small:
        rows, stats = _packed_heavy_products(
            r_groups, s_groups, small, extra_idx, p_small, seed
        )
        out_rows.extend(rows)
        runs.append(stats)
    return out_rows, side_by_side(p, runs)


def _packed_heavy_products(
    r_groups: dict[Row, list[Row]],
    s_groups: dict[Row, list[Row]],
    keys: list[Row],
    extra_idx: tuple[int, ...],
    p: int,
    seed: int,
) -> tuple[list[Row], RunStats]:
    """Many small heavy values share one pool, one server per value."""
    from repro.mpc.hashing import HashFamily

    cluster = Cluster(p, seed=seed)
    placement = HashFamily(seed + 77).function(0, p)
    # Free placement: server (i + j) % p holds the j-th tuple of key i.
    sources: list[tuple[list, list]] = [([], []) for _ in range(p)]
    for i, key in enumerate(keys):
        for j, row in enumerate(r_groups[key]):
            sources[(i + j) % p][0].append((key, row))
        for j, row in enumerate(s_groups[key]):
            sources[(i + j) % p][1].append((key, row))
    with cluster.round("heavy-packed") as rnd:
        for r_src, s_src in sources:
            for key, row in r_src:
                send_row(rnd, placement(key), "R@v", (key, row))
            for key, row in s_src:
                send_row(rnd, placement(key), "S@v", (key, row))
    out_rows: list[Row] = []
    for server in cluster.servers:
        r_local: dict[Row, list[Row]] = {}
        for key, row in server.take("R@v"):
            r_local.setdefault(key, []).append(row)
        s_local: dict[Row, list[Row]] = {}
        for key, row in server.take("S@v"):
            s_local.setdefault(key, []).append(row)
        for key, r_rows in r_local.items():
            for r_row in r_rows:
                for s_row in s_local.get(key, ()):
                    if extra_idx:
                        out_rows.append(r_row + tuple(s_row[i] for i in extra_idx))
                    else:
                        out_rows.append(r_row)
    return out_rows, cluster.stats


def _one_heavy_product(
    r_rows: list[Row],
    s_rows: list[Row],
    extra_idx: tuple[int, ...],
    p_b: int,
    seed: int,
) -> tuple[list[Row], RunStats]:
    """Grid product of one heavy value's tuples on ``p_b`` exclusive servers."""
    cluster = Cluster(max(p_b, 1), seed=seed)
    if not r_rows or not s_rows:
        return [], cluster.stats

    if extra_idx:
        right = [tuple(row[i] for i in extra_idx) for row in s_rows]
        return _grid_rows(cluster, r_rows, right), cluster.stats

    # S contributes no new attributes: the join just multiplies each R row
    # by the number of matching S rows. Spread R's rows, keep bag counts.
    multiplicity = len(s_rows)
    with cluster.round("heavy-degenerate") as rnd:
        for sid in range(cluster.p):
            for row in r_rows[sid :: cluster.p]:  # placed on sid for free, round-robin
                send_row(rnd, sid, "out", row)
    rows = [row for row in cluster.gather("out") for _ in range(multiplicity)]
    return rows, cluster.stats


def _grid_rows(cluster: Cluster, left: list[Row], right: list[Row]) -> list[Row]:
    """The slide-28 rectangle tuple by tuple: each pair's concatenation.

    Grid cell (i, j) is server i·p2 + j. The ``serial``-th row placed on
    server ``sid`` (round-robin, free) hashes ``(sid, serial, side)`` to a
    grid row (left side) or column (right side) and goes to each of its
    cells; every server then pairs each left row with every right row.
    """
    p = cluster.p
    p1, p2 = optimal_rectangle(len(left), len(right), p)
    h_row, h_col = cluster.hash_function(101, p1), cluster.hash_function(102, p2)
    with cluster.round("cartesian-replicate") as rnd:
        for sid in range(p):
            for serial, row in enumerate(left[sid::p]):
                for cell in range(p2):
                    send_row(rnd, h_row((sid, serial, 0)) * p2 + cell, "L", row)
            for serial, row in enumerate(right[sid::p]):
                for cell in range(0, p1 * p2, p2):
                    send_row(rnd, h_col((sid, serial, 1)) + cell, "R", row)
    rows: list[Row] = []
    for server in cluster.servers:
        right_here = list(server.take("R"))
        rows.extend(l_row + r_row for l_row in server.take("L") for r_row in right_here)
    return rows
