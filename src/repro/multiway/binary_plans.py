"""Iterative binary join plans — the multi-round baseline (slides 52, 57, 63).

Most systems evaluate a multiway join as a sequence of two-way hash
joins, one round each. On skew-free ("matching-degree") data the
intermediates never grow, so the whole plan runs with L = O(IN/p) in
n − 1 rounds (slide 57) — beating any one-round algorithm's
IN/p^{1/τ*}. On cyclic queries with large intermediates the plan can
explode (slide 63: |T_i| ≫ p·IN makes one-round replication cheaper) —
the benchmarks reproduce both regimes.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.kernels.memo import align, bound
from repro.mpc.cluster import Cluster
from repro.multiway.base import MultiwayRun, join_step
from repro.query.cq import ConjunctiveQuery


def binary_join_plan(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    seed: int = 0,
    order: Sequence[str] | None = None,
) -> MultiwayRun:
    """Left-deep sequence of one-round hash joins (Cartesian when forced).

    ``order`` lists atom names in join order (default: query order). The
    run's ``details`` record every intermediate size — the quantity
    slide 63's scalability warning is about.
    """
    atom_order = list(order) if order is not None else [a.name for a in query.atoms]
    if sorted(atom_order) != sorted(a.name for a in query.atoms):
        raise QueryError(
            f"join order {atom_order} does not cover the query atoms exactly"
        )

    cluster = Cluster(p, seed=seed)
    current = align(query.atom(atom_order[0]), bound(relations, atom_order[0]))
    intermediate_sizes = [len(current)]
    for step, name in enumerate(atom_order[1:], start=1):
        rel = align(query.atom(name), bound(relations, name))
        with cluster.step(seed + step) as view:
            current = join_step(view, current, rel, label=f"join-{name}")
        intermediate_sizes.append(len(current))

    output = current.project(list(query.variables), name="OUT")
    return MultiwayRun(
        output,
        cluster.stats,
        {"order": atom_order, "intermediate_sizes": intermediate_sizes},
    )
