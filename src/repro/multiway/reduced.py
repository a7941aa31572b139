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
from repro.mpc.cluster import Cluster
from repro.multiway.base import MultiwayRun
from repro.multiway.gym import full_reducer
from repro.multiway.hypercube import hypercube_on
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

    nodes = ghd.nodes()
    working = {
        id(node): align(query.atom(node.cover[0]), bound(relations, node.cover[0]))
        for node in nodes
    }
    original_sizes = {node.cover[0]: len(working[id(node)]) for node in nodes}

    # GYM's reducer (every level's semijoins in parallel on
    # proportionally allocated pools) under this plan's own seeds, then
    # the HyperCube round on the same cluster.
    cluster = Cluster(p, seed=seed)
    full_reducer(working, ghd.levels(), cluster, (seed, seed + 500))

    reduced = {node.cover[0]: working[id(node)] for node in nodes}
    with cluster.step(seed + 999) as step:
        output, details = hypercube_on(step, query, reduced)

    reduction = {
        name: (original_sizes[name], len(rel)) for name, rel in reduced.items()
    }
    return MultiwayRun(
        output,
        cluster.stats,
        {"reduction": reduction, "shares": details.get("shares")},
    )
