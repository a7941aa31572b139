"""Join-order selection for iterative binary plans.

Slide 63 shows that a bad binary-plan order can materialize intermediates
far larger than IN — the classic join-ordering problem. This module
implements the standard greedy heuristic: start from the relation pair
with the smallest estimated join, then repeatedly attach the atom that
keeps the intermediate smallest (preferring connected atoms so Cartesian
steps only happen when the query itself is disconnected).

Cardinality estimates use exact degree statistics (the simulator can
afford them); the *decision procedure* is what a real optimizer runs on
sketched statistics.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.joins.base import estimate_join_size
from repro.kernels.memo import align, bound
from repro.query.cq import ConjunctiveQuery


def greedy_join_order(
    query: ConjunctiveQuery, relations: Mapping[str, Relation]
) -> list[str]:
    """An atom order whose running intermediate stays greedily minimal.

    At each step the unused atom minimizing the estimated size of
    (current intermediate ⋈ atom) is appended; ties and the first pick
    fall back to atom-size order. Returns atom names for
    :func:`repro.multiway.binary_plans.binary_join_plan`'s ``order=``.
    """
    remaining = {a.name for a in query.atoms}
    if not remaining:
        raise QueryError("query has no atoms")
    aligned = {a.name: align(a, bound(relations, a.name)) for a in query.atoms}

    # Seed: the cheapest pair (or the single atom).
    if len(remaining) == 1:
        return list(remaining)
    names = sorted(remaining)
    best_pair = None
    best_size = None
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            size = estimate_join_size(aligned[a], aligned[b])
            if best_size is None or size < best_size:
                best_size = size
                best_pair = (a, b)
    assert best_pair is not None
    order = list(best_pair)
    remaining -= set(best_pair)

    current = aligned[order[0]].join(aligned[order[1]])
    while remaining:
        connected = [
            n for n in sorted(remaining)
            if current.schema.common(aligned[n].schema)
        ]
        candidates = connected or sorted(remaining)
        next_name = min(
            candidates, key=lambda n: estimate_join_size(current, aligned[n])
        )
        order.append(next_name)
        remaining.remove(next_name)
        current = current.join(aligned[next_name])
    return order
