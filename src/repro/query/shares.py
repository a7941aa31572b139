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
load formula of slide 40. The executed *integral* grid needs no LP: one
array pass ranks every grid with ``Π p_i ≤ p`` (a table kept per #variables
and p beside the LP memo), or a window around the LP's shares if too many.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.errors import OptimizationError
from repro.kernels.memo import Later, OnRead
from repro.query import lp
from repro.query.cq import ConjunctiveQuery


@dataclass(frozen=True)
class ShareAssignment(OnRead):
    """Result of share optimization for one query + size profile.

    :func:`optimal_shares` gives the LP's fields as :class:`Later` values when
    it finds the grid without them: the first read of any of them solves the
    LP once for all three (the query path reads none).
    """

    exponents: dict[str, float]       # e_i: share of variable i is p^{e_i}
    fractional: dict[str, float]      # p^{e_i} (real-valued shares)
    integral: dict[str, int]          # the executed grid, Π ≤ p
    predicted_load: float             # max_j |S_j| / Π_{i∈j} share_i (fractional)
    integral_load: float              # same with the integral shares

    _deferred = ("exponents", "fractional", "predicted_load")

    def extents(self, variables: tuple[str, ...]) -> tuple[int, ...]:
        """Integral shares ordered by the query's variable tuple."""
        return tuple(self.integral[v] for v in variables)


def optimal_shares(query: ConjunctiveQuery, sizes: dict[str, int], p: int,
                   max_enumeration: int = 200_000) -> ShareAssignment:
    """The optimal integral shares, and the LP's fractional optimum.

    ``sizes`` maps atom names to cardinalities; ``p`` is the server count.
    ``integral`` is the first minimum of (worst atom load, total load,
    name-ordered shares) over every grid with Π ≤ p — or, if there are more
    than ``max_enumeration``, over the window :func:`_round_shares` searches.
    """
    if p <= 0:
        raise OptimizationError("p must be positive")
    query.require_atoms(sizes, "sizes")
    key = ("share ranking", tuple(query.atoms), p, max_enumeration)
    names, table, products = lp.derived(key, lambda: _query_table(query, p, max_enumeration))
    if table.shape[1]:
        integral, load = _first_minimum(query, sizes, names, table, products)
        optimum = functools.cache(functools.partial(_lp_optimum, query, dict(sizes), p))
        return ShareAssignment(integral=integral, integral_load=load, **{
            name: Later(lambda name=name: optimum()[name]) for name in ShareAssignment._deferred})
    optimum = _lp_optimum(query, sizes, p)
    integral = _round_shares(query, sizes, p, optimum["fractional"], max_enumeration)
    return ShareAssignment(integral=integral, integral_load=_max_atom_load(query, sizes, integral),
                           **optimum)


def _grid_table(k: int, p: int, limit: int) -> np.ndarray:
    """Every grid of ``k`` shares with Π ≤ p, one per column in ascending
    lexicographic order (none if there are more than ``limit``): each grid
    of the first variables extends to the shares ``1 … p // Π`` of the
    next. Every product is ≤ p, so ``p``'s unsigned type holds them all.
    """
    products = np.ones(1, dtype=np.int64)
    rows: list[np.ndarray] = []
    for _ in range(k):
        counts = p // products
        starts = np.cumsum(counts) - counts
        if starts[-1] + counts[-1] > limit:
            return np.zeros((k, 0), dtype=np.min_scalar_type(p))
        parent = np.repeat(np.arange(len(counts)), counts)
        share = np.arange(len(parent)) - starts[parent] + 1
        rows = [row[parent] for row in rows] + [share]
        products = products[parent] * share
    table = np.array(rows, dtype=np.min_scalar_type(p))
    table.flags.writeable = False
    return table


def _query_table(query: ConjunctiveQuery, p: int, limit: int) -> tuple:
    """``query``'s variables in name order, their grid table and each
    atom's product of shares in every grid: what ranking needs of the
    atoms and ``p``, kept per atom tuple."""
    names = sorted(query.variables)
    table = lp.derived(("share grids", len(names), p, limit),
                       lambda: _grid_table(len(names), p, limit))
    return names, table, _atom_products(query, names, table)


def _atom_products(query: ConjunctiveQuery, names: list[str], grids: np.ndarray) -> np.ndarray:
    """Per atom (a row each), the product of its variables' shares in each
    of ``grids`` (one per column, a row per variable of ``names``)."""
    row = dict(zip(names, grids))
    return np.array([functools.reduce(operator.mul, map(row.get, a.variables)) for a in query.atoms])


def _first_minimum(query: ConjunctiveQuery, sizes: dict[str, int], names: list[str],
                   grids: np.ndarray, products: np.ndarray) -> tuple[dict[str, int], float]:
    """The first of ``grids`` minimizing (worst atom load, total load summed
    from the smallest), and its worst load. Grids listed in name order break
    the last ties by shares, so the text's atom and variable order cannot
    matter: not even through rounding, as each grid's loads are summed in
    one order. Products of shares are integers ≤ p, exact in p's type, so
    each quotient is exactly ``size / Π shares``.
    """
    loads = np.array([[sizes[a.name]] for a in query.atoms], dtype=np.float64) / products
    total, worst = np.sort(loads, axis=0).sum(axis=0), np.maximum.reduce(loads)
    best = int(np.lexsort((total, worst))[0])
    shares = dict(zip(names, grids[:, best].tolist()))
    return {v: shares[v] for v in query.variables}, float(worst[best])


def _lp_optimum(query: ConjunctiveQuery, sizes: dict[str, int], p: int) -> dict:
    """Solve the log-space share LP: the fractional fields of a
    :class:`ShareAssignment`, by name."""
    variables = list(query.variables)
    k = len(variables)
    log_p = math.log(p) if p > 1 else 1.0  # p=1: all shares 1, any exponents
    # Decision vector [e_1 … e_k, λ]: one row per atom, then Σ e_i ≤ 1.
    rows = [[-log_p if v in atom.variables else 0.0 for v in variables] + [-1.0]
            for atom in query.atoms] + [[1.0] * k + [0.0]]
    rhs = [-math.log(max(sizes[atom.name], 1)) for atom in query.atoms] + [1.0]
    bounds = [(0.0, None)] * k + [(None, None)]
    _load, x = lp.solve([0.0] * k + [1.0], rows, rhs, bounds)
    exponents = {v: max(e, 0.0) for v, e in zip(variables, x)}
    fractional = {v: p ** e for v, e in exponents.items()}
    return {"exponents": exponents, "fractional": fractional,
            "predicted_load": _max_atom_load(query, sizes, fractional)}


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
    """Integral shares with Π ≤ p near the fractional ones: the best grid
    over per-variable candidates {1, …, ceil(share)+1} (enumerated in name
    order, ascending) if there are few enough, else a floor-rounding with
    greedy repair.
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
        flat = np.array([c for cands in candidate_lists for c in cands], dtype=np.min_scalar_type(p))
        offsets = np.array([0, *itertools.accumulate(shape[:-1])])
        grids = flat[np.array(np.unravel_index(np.arange(combos), shape)).T + offsets]
        grids = grids[np.multiply.reduce(grids, axis=1, dtype=np.float64) <= p].T
        if grids.shape[1]:
            return _first_minimum(query, sizes, names, grids, _atom_products(query, names, grids))[0]

    # Fallback: floor everything (guaranteed feasible), no repair needed.
    floored = {v: max(1, math.floor(fractional[v])) for v in query.variables}
    while math.prod(floored.values()) > p:
        # Shrink the share > 1 that exceeds its fractional value most
        # (name order breaks exact ratio ties deterministically); one of
        # them exists, since the product of ones is 1 ≤ p.
        victim = max(
            sorted(v for v in floored if floored[v] > 1),
            key=lambda v: floored[v] / max(fractional[v], 1e-12),
        )
        floored[victim] -= 1
    return floored


def equal_size_shares(query: ConjunctiveQuery, n: int, p: int) -> ShareAssignment:
    """Shares when all relations have the same size ``n``."""
    return optimal_shares(query, {a.name: n for a in query.atoms}, p)
