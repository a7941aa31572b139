"""The AGM output-size bound (slide 55).

For a full conjunctive query Q with relation sizes |S_j|, every fractional
edge cover (w_j) bounds the output:

    |OUT| ≤ Π_j |S_j|^{w_j}

and the bound is tight for the best cover. With equal sizes |S_j| = IN the
bound reads |OUT| ≤ IN^{ρ*}.
"""

from __future__ import annotations

import math

from repro.query.cq import ConjunctiveQuery
from repro.query.fractional import fractional_edge_cover


def agm_bound(query: ConjunctiveQuery, sizes: dict[str, int]) -> float:
    """The optimal AGM bound Π_j |S_j|^{w_j} for the given relation sizes.

    ``sizes`` maps atom names to relation cardinalities. An empty relation
    makes the bound 0 (the query returns nothing).
    """
    query.require_atoms(sizes, "sizes")
    if any(sizes[a.name] == 0 for a in query.atoms):
        return 0.0
    objective = {a.name: math.log(sizes[a.name]) for a in query.atoms}
    cover = fractional_edge_cover(query, objective)
    return math.exp(cover.value)


def agm_bound_equal(query: ConjunctiveQuery, n: int) -> float:
    """The equal-size AGM bound IN^{ρ*}."""
    return agm_bound(query, {a.name: n for a in query.atoms})


def output_within_agm(query: ConjunctiveQuery, sizes: dict[str, int],
                      out_size: int) -> bool:
    """Whether an observed output size respects the AGM bound.

    A tolerance of 0.5 absorbs float rounding of the LP exponentials.
    """
    return out_size <= agm_bound(query, sizes) + 0.5


def agm_ratio(query: ConjunctiveQuery, sizes: dict[str, int],
              out_size: int) -> float:
    """``out_size`` as a fraction of the AGM bound (0.0 for an empty bound).

    The differential harness reports this per instance: a ratio above
    1.0 (modulo float rounding) is a theorem violation — some algorithm
    produced tuples a correct evaluation cannot.
    """
    bound = agm_bound(query, sizes)
    if bound == 0.0:
        return 0.0 if out_size == 0 else float("inf")
    return out_size / bound
