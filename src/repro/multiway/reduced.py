"""Full reduction + one-round HyperCube finish (slides 63, 93).

Slide 63's upshot — *"semijoins can help if OUT is small"* — suggests a
hybrid plan for acyclic queries: run Yannakakis' two semijoin sweeps as
MPC rounds (GYM's reduction phases, O(depth) rounds of load ≤ IN/p),
then evaluate the query in a **single** HyperCube round over the reduced
relations (the "Skew-HC join phase" of slide 93).

After full reduction every remaining tuple contributes to the output, so
the relations HyperCube sees have size ≤ min(IN, OUT·arity) — on
selective queries the one-round load collapses far below IN/p^{1/τ*}.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.kernels.memo import align, bound
from repro.joins.heavy import allocate_servers
from repro.mpc.cluster import combine_parallel, combine_sequential
from repro.mpc.stats import RunStats
from repro.multiway.base import MultiwayRun, shuffle_multi_semijoin
from repro.multiway.hypercube import hypercube_join
from repro.query.cq import ConjunctiveQuery
from repro.query.ghd import GHD, width1_ghd


def reduced_hypercube(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    ghd: GHD | None = None,
    seed: int = 0,
) -> MultiwayRun:
    """Semijoin-reduce an acyclic query, then one HyperCube round.

    Requires a width-1 GHD (acyclic query). Returns the usual
    :class:`MultiwayRun`; ``details`` records the per-atom reduction
    ratios so experiments can show where the plan wins.
    """
    if ghd is None:
        ghd = width1_ghd(query)
    if ghd.width != 1:
        raise QueryError("reduced_hypercube needs a width-1 GHD (acyclic query)")

    working: dict[str, Relation] = {}
    for node in ghd.nodes():
        name = node.cover[0]
        working[name] = align(query.atom(name), bound(relations, name))
    original_sizes = {name: len(rel) for name, rel in working.items()}

    node_name = {id(node): node.cover[0] for node in ghd.nodes()}
    levels = _levels(ghd)
    phases: list[RunStats] = []

    # Upward sweep: deepest level first, every parent of the level in
    # parallel on proportionally allocated pools.
    for depth in range(len(levels) - 1, 0, -1):
        phases.extend(
            _sweep(working, node_name, levels[depth - 1], p, seed, upward=True)
        )
    # Downward sweep.
    for depth in range(len(levels) - 1):
        phases.extend(
            _sweep(working, node_name, levels[depth], p, seed + 500, upward=False)
        )

    hc = hypercube_join(query, working, p, seed=seed + 999)
    phases.append(hc.stats)

    reduction = {
        name: (original_sizes[name], len(working[name])) for name in working
    }
    return MultiwayRun(
        hc.output,
        combine_sequential(p, phases),
        {"reduction": reduction, "shares": hc.details.get("shares")},
    )


def _sweep(working, node_name, parents, p, seed, upward: bool) -> list[RunStats]:
    tasks = []
    for parent in parents:
        if not parent.children:
            continue
        pname = node_name[id(parent)]
        if upward:
            groups: dict[tuple[str, ...], list[Relation]] = {}
            for child in parent.children:
                cname = node_name[id(child)]
                key = working[pname].schema.common(working[cname].schema)
                if key:
                    groups.setdefault(key, []).append(working[cname])
            for reducers in groups.values():
                tasks.append((pname, reducers))
        else:
            for child in parent.children:
                cname = node_name[id(child)]
                if working[cname].schema.common(working[pname].schema):
                    tasks.append((cname, [working[pname]]))

    phases: list[RunStats] = []
    # Waves of distinct targets share a round.
    waves: list[list] = []
    for task in tasks:
        for wave in waves:
            if all(task[0] != t[0] for t in wave):
                wave.append(task)
                break
        else:
            waves.append([task])
    for wave in waves:
        weights = [
            max(len(working[t]) + sum(len(r) for r in reds), 1) for t, reds in wave
        ]
        pools = allocate_servers(weights, p)
        runs = []
        for (target, reducers), p_op in zip(wave, pools):
            reduced, stats = shuffle_multi_semijoin(
                working[target], reducers, max(p_op, 1), seed=seed,
                label="reduce-semijoin",
            )
            working[target] = reduced
            runs.append(stats)
        phases.append(combine_parallel(p, runs))
    return phases


def _levels(ghd: GHD):
    levels = []
    frontier = [ghd.root]
    while frontier:
        levels.append(frontier)
        frontier = [c for node in frontier for c in node.children]
    return levels
