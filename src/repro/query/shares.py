"""Optimal share computation for the HyperCube algorithm (slides 37–44).

HyperCube arranges ``p`` servers in a grid ``p_1 × … × p_k`` (one
dimension per variable). An atom ``S_j`` is replicated along the
dimensions of variables it does not contain, so the expected number of
its tuples per server is ``|S_j| / Π_{i : x_i ∈ vars(S_j)} p_i``. The
*shares* ``p_i`` minimize the worst atom's per-server traffic subject to
``Π p_i ≤ p``.

Writing ``p_i = p^{e_i}``, the problem becomes the linear program

    minimize λ  s.t.  log|S_j| − (Σ_{i ∈ j} e_i)·log p ≤ λ,  Σ e_i ≤ 1,  e ≥ 0

whose optimum (by LP duality, Beame et al. '14) equals the edge-packing
load formula of slide 40. Real-valued shares are rounded to an integer
grid with ``Π p_i ≤ p`` by exhaustive/greedy search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import OptimizationError
from repro.query import lp
from repro.query.cq import ConjunctiveQuery


@dataclass(frozen=True)
class ShareAssignment:
    """Result of share optimization for one query + size profile."""

    exponents: dict[str, float]       # e_i: share of variable i is p^{e_i}
    fractional: dict[str, float]      # p^{e_i} (real-valued shares)
    integral: dict[str, int]          # rounded shares, Π ≤ p
    predicted_load: float             # max_j |S_j| / Π_{i∈j} share_i (fractional)
    integral_load: float              # same with the integral shares

    def extents(self, variables: tuple[str, ...]) -> tuple[int, ...]:
        """Integral shares ordered by the query's variable tuple."""
        return tuple(self.integral[v] for v in variables)


def optimal_shares(query: ConjunctiveQuery, sizes: dict[str, int], p: int,
                   max_enumeration: int = 200_000) -> ShareAssignment:
    """Optimal (fractional) shares and a good integral rounding.

    ``sizes`` maps atom names to cardinalities; ``p`` is the server count.
    """
    if p <= 0:
        raise OptimizationError("p must be positive")
    query.require_atoms(sizes, "sizes")
    exponents = _share_exponents(query, sizes, p)
    fractional = {v: p ** e for v, e in exponents.items()}
    integral = _round_shares(query, sizes, p, fractional, max_enumeration)
    return ShareAssignment(
        exponents=exponents,
        fractional=fractional,
        integral=integral,
        predicted_load=_max_atom_load(query, sizes, fractional),
        integral_load=_max_atom_load(query, sizes, integral),
    )


def _share_exponents(query: ConjunctiveQuery, sizes: dict[str, int],
                     p: int) -> dict[str, float]:
    """Solve the log-space share LP; returns e_i per variable."""
    variables = list(query.variables)
    k = len(variables)
    log_p = math.log(p) if p > 1 else 1.0  # p=1: all shares 1, any exponents

    # Decision vector: [e_1 … e_k, λ]
    c = np.zeros(k + 1)
    c[-1] = 1.0

    rows, rhs = [], []
    for atom in query.atoms:
        row = np.zeros(k + 1)
        for i, v in enumerate(variables):
            if v in atom.variables:
                row[i] = -log_p
        row[-1] = -1.0
        rows.append(row)
        rhs.append(-math.log(max(sizes[atom.name], 1)))
    # Σ e_i ≤ 1
    budget = np.zeros(k + 1)
    budget[:k] = 1.0
    rows.append(budget)
    rhs.append(1.0)

    bounds = [(0.0, None)] * k + [(None, None)]
    _load, x = lp.solve(c, rows, rhs, bounds)
    return {v: max(e, 0.0) for v, e in zip(variables, x)}


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
    {1, …, ceil(share)+1}, all in one array pass; otherwise a
    floor-rounding with greedy repair is used.

    A grid is ranked by its worst atom load, then — so the result does not
    depend on the order atoms/variables appear in the query text — by its
    *total* replication (what every server sums over its atoms, summed in
    atom order), then by its name-ordered share vector, the first minimum
    kept. The grids are enumerated in that name order over ascending
    candidates, so the stable sort by (load, total) alone puts the least
    share vector first among equals. Sizes, candidates and the products of
    feasible grids are integers below 2^53 (infeasible grids are dropped
    before any load is computed), so each quotient is exactly the float
    ``size / Π shares`` is.
    """
    names = sorted(query.variables)
    candidate_lists: list[list[int]] = []
    for v in names:
        hi = max(1, math.ceil(fractional[v]) + 1)
        candidates = sorted({1, *range(max(1, math.floor(fractional[v]) - 1), hi + 1)})
        candidate_lists.append([c for c in candidates if c <= p])

    shape = tuple(map(len, candidate_lists))
    combos = math.prod(shape)
    if combos <= max_enumeration:
        # One row per grid, one column per variable (name order).
        flat = np.array([c for cands in candidate_lists for c in cands], dtype=np.float64)
        offsets = np.array([0, *itertools.accumulate(shape[:-1])])
        grids = flat[np.array(np.unravel_index(np.arange(combos), shape)).T + offsets]
        grids = grids[np.multiply.reduce(grids, axis=1) <= p]
        if len(grids):
            # Per atom, the product of its variables' columns: the ranking
            # holds grids × atoms floats, never grids × atoms × variables.
            column = dict(zip(names, grids.T))
            loads = [sizes[a.name] / math.prod(column[v] for v in a.variables)
                     for a in query.atoms]
            total, worst = loads[0], loads[0]
            for load in loads[1:]:
                total = total + load
                worst = np.maximum(worst, load)
            best = grids[np.lexsort((total, worst))[0]]
            shares = dict(zip(names, map(int, best.tolist())))
            return {v: shares[v] for v in query.variables}

    # Fallback: floor everything (guaranteed feasible), no repair needed.
    floored = {v: max(1, math.floor(fractional[v])) for v in query.variables}
    while math.prod(floored.values()) > p:
        # Shrink the variable whose share exceeds its fractional value
        # most (name order breaks exact ratio ties deterministically).
        victim = max(
            sorted(floored),
            key=lambda v: floored[v] / max(fractional[v], 1e-12),
        )
        floored[victim] = max(1, floored[victim] - 1)
    return floored


def equal_size_shares(query: ConjunctiveQuery, n: int, p: int) -> ShareAssignment:
    """Shares when all relations have the same size ``n``."""
    return optimal_shares(query, {a.name: n for a in query.atoms}, p)
