"""The share search as it was before it became one array pass: the oracle.

``_round_shares`` below is the loop :func:`repro.query.shares._round_shares`
ran until the search was rewritten to rank every candidate grid in one
numpy pass — kept verbatim (with the load helper it called), so the
rewrite is checked against the code it replaced, not against itself.
Do not edit it to follow the library.
"""

import itertools
import math

from repro.query.cq import ConjunctiveQuery


def _max_atom_load(query: ConjunctiveQuery, sizes: dict[str, int],
                   shares: dict[str, float] | dict[str, int]) -> float:
    """max_j |S_j| / Π_{i ∈ vars(S_j)} share_i — the expected worst load."""
    worst = 0.0
    for atom in query.atoms:
        denom = math.prod(shares[v] for v in atom.variables)
        worst = max(worst, sizes[atom.name] / denom)
    return worst


def _round_shares(query: ConjunctiveQuery, sizes: dict[str, int], p: int,
                  fractional: dict[str, float], max_enumeration: int) -> dict[str, int]:
    """Integral shares with Π ≤ p minimizing the predicted load.

    Small grids are searched exhaustively over per-variable candidates
    {1, …, ceil(share)+1}; otherwise a floor-rounding with greedy repair
    is used.
    """
    variables = list(query.variables)
    candidate_lists: list[list[int]] = []
    for v in variables:
        hi = max(1, math.ceil(fractional[v]) + 1)
        candidates = sorted({1, *range(max(1, math.floor(fractional[v]) - 1), hi + 1)})
        candidate_lists.append([c for c in candidates if c <= p])

    combos = math.prod(len(c) for c in candidate_lists)
    if combos <= max_enumeration:
        best: dict[str, int] | None = None
        best_rank: tuple | None = None
        for combo in itertools.product(*candidate_lists):
            if math.prod(combo) > p:
                continue
            shares = dict(zip(variables, combo))
            load = _max_atom_load(query, sizes, shares)
            # Rank ties canonically so the result does not depend on the
            # order atoms/variables appear in the query text: among grids
            # with the same worst atom load, prefer the lower *total*
            # replication (what every server sums over its atoms), then
            # the name-lexicographic share vector. The total is summed from
            # the smallest load, so rounding cannot depend on atom order.
            total = sum(sorted(
                sizes[a.name] / math.prod(shares[v] for v in a.variables)
                for a in query.atoms
            ))
            rank = (load, total, tuple(shares[v] for v in sorted(variables)))
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = shares
        if best is not None:
            return best

    # Fallback: floor everything (guaranteed feasible), no repair needed.
    floored = {v: max(1, math.floor(fractional[v])) for v in variables}
    while math.prod(floored.values()) > p:
        # Shrink the variable whose share exceeds its fractional value
        # most (name order breaks exact ratio ties deterministically).
        victim = max(
            sorted(floored),
            key=lambda v: floored[v] / max(fractional[v], 1e-12),
        )
        floored[victim] = max(1, floored[victim] - 1)
    return floored
