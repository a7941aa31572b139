"""Fractional covers and packings of query hypergraphs (slide 39).

Three linear programs drive every load bound in the tutorial:

- **fractional edge packing** — weights ``u_j ≥ 0`` on atoms with
  ``Σ_{j : x ∈ vars(S_j)} u_j ≤ 1`` for every variable ``x``; its optimal
  total weight is ``τ*``. The skew-free one-round load is
  ``IN / p^{1/τ*}`` (slide 40).
- **fractional edge cover** — weights ``w_j ≥ 0`` with
  ``Σ_{j : x ∈ vars(S_j)} w_j ≥ 1``; its optimum is ``ρ*``, the exponent
  of the AGM output bound ``|OUT| ≤ IN^{ρ*}`` (slide 55).
- **fractional vertex cover** — weights on variables covering every atom;
  by LP duality its optimum equals ``τ*``.

``ψ*`` (slide 47) is ``max_x τ*(Q_x)`` over residual queries — the
exponent governing one-round algorithms under *skew*.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError
from repro.query import lp
from repro.query.cq import ConjunctiveQuery

_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LPResult:
    """Optimal value and weights of one of the hypergraph LPs."""

    value: float
    weights: dict[str, float]

    def weight(self, name: str) -> float:
        return self.weights[name]


def _solve(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, names: list[str],
           maximize: bool) -> LPResult:
    sign = -1.0 if maximize else 1.0
    fun, x = lp.solve(sign * c, a_ub, b_ub, [(0, None)] * len(c))
    return LPResult(sign * fun, dict(zip(names, x)))


def _objective_vector(query: ConjunctiveQuery,
                      objective: dict[str, float] | None) -> np.ndarray:
    """Per-atom objective coefficients in atom order (all ones by default)."""
    if objective is None:
        return np.ones(len(query.atoms))
    query.require_atoms(objective, "objective")
    return np.array([float(objective[a.name]) for a in query.atoms])


def fractional_edge_packing(query: ConjunctiveQuery,
                            objective: dict[str, float] | None = None) -> LPResult:
    """Maximize Σ c_j·u_j subject to Σ_{j ∋ x} u_j ≤ 1 for every variable x.

    With the default all-ones objective the optimum is ``τ*``. The
    weighted form (``c_j = log |S_j|``) appears in the unequal-size load
    formula of slide 40.
    """
    atoms = query.atoms
    names = [a.name for a in atoms]
    c = _objective_vector(query, objective)
    rows = []
    for variable in query.variables:
        rows.append([1.0 if variable in a.variables else 0.0 for a in atoms])
    a_ub = np.array(rows)
    b_ub = np.ones(len(query.variables))
    return _solve(c, a_ub, b_ub, names, maximize=True)


def fractional_edge_cover(query: ConjunctiveQuery,
                          objective: dict[str, float] | None = None) -> LPResult:
    """Minimize Σ c_j·w_j subject to Σ_{j ∋ x} w_j ≥ 1 for every variable x.

    With the all-ones objective the optimum is ``ρ*``; with
    ``c_j = log |S_j|`` the optimum is the log of the AGM bound.
    """
    atoms = query.atoms
    names = [a.name for a in atoms]
    c = _objective_vector(query, objective)
    rows = []
    for variable in query.variables:
        # ≥ constraints become ≤ after negation.
        rows.append([-1.0 if variable in a.variables else 0.0 for a in atoms])
    a_ub = np.array(rows)
    b_ub = -np.ones(len(query.variables))
    return _solve(c, a_ub, b_ub, names, maximize=False)


def fractional_vertex_cover(query: ConjunctiveQuery) -> LPResult:
    """Minimize Σ v_x subject to Σ_{x ∈ vars(S_j)} v_x ≥ 1 for every atom.

    By LP duality the optimum equals ``τ*`` — tests exploit this.
    """
    variables = list(query.variables)
    c = np.ones(len(variables))
    rows = []
    for atom in query.atoms:
        rows.append([-1.0 if v in atom.variables else 0.0 for v in variables])
    a_ub = np.array(rows)
    b_ub = -np.ones(len(query.atoms))
    return _solve(c, a_ub, b_ub, variables, maximize=False)


def tau_star(query: ConjunctiveQuery) -> float:
    """τ*: the fractional edge packing number (slide 40)."""
    return fractional_edge_packing(query).value


def rho_star(query: ConjunctiveQuery) -> float:
    """ρ*: the fractional edge cover number — the AGM exponent (slide 55)."""
    return fractional_edge_cover(query).value


def psi_star(query: ConjunctiveQuery) -> float:
    """ψ* = max over variable subsets x of τ*(Q_x) (slide 47).

    Governs one-round load under skew: L = IN / p^{1/ψ*}. Enumerates all
    2^k residual queries, so only sensible for small queries (the
    tutorial's all have ≤ 7 variables) — once per hypergraph: the value is
    kept beside the LP memo (:func:`repro.query.lp.derived`), so a repeat
    builds none of the residual programs.
    """
    if len(query.variables) > 16:
        raise QueryError("psi_star enumerates variable subsets; query too large")

    def enumerate_residuals() -> float:
        best = tau_star(query)
        for r in range(1, len(query.variables)):
            for bound in itertools.combinations(query.variables, r):
                try:
                    residual = query.residual(bound)
                except QueryError:
                    continue
                best = max(best, tau_star(residual))
        return best

    return lp.derived(("psi*", tuple(query.atoms)), enumerate_residuals)


def verify_packing(query: ConjunctiveQuery, weights: dict[str, float]) -> bool:
    """Check feasibility of an edge packing (used to validate LP output)."""
    if any(w < -_TOLERANCE for w in weights.values()):
        return False
    for variable in query.variables:
        total = sum(weights.get(a.name, 0.0) for a in query.atoms_with(variable))
        if total > 1.0 + 1e-6:
            return False
    return True


def verify_cover(query: ConjunctiveQuery, weights: dict[str, float]) -> bool:
    """Check feasibility of an edge cover."""
    if any(w < -_TOLERANCE for w in weights.values()):
        return False
    for variable in query.variables:
        total = sum(weights.get(a.name, 0.0) for a in query.atoms_with(variable))
        if total < 1.0 - 1e-6:
            return False
    return True


def skew_free_load(query: ConjunctiveQuery, n: int, p: int) -> float:
    """The tutorial's skew-free one-round load N / p^{1/τ*} (slide 41)."""
    return n / p ** (1.0 / tau_star(query))


def skewed_load(query: ConjunctiveQuery, n: int, p: int) -> float:
    """The worst-case one-round load under skew N / p^{1/ψ*} (slide 47)."""
    return n / p ** (1.0 / psi_star(query))


def maximal_load_over_packings(query: ConjunctiveQuery, sizes: dict[str, int],
                               p: int) -> tuple[float, dict[str, float]]:
    """The unequal-size optimal load of slide 40/42.

        L = max over edge packings u of (Π_j |S_j|^{u_j} / p)^{1 / Σ_j u_j}

    The maximum over the packing polytope of a quasi-convex objective is
    attained at a vertex; we enumerate the polytope's vertices for the
    small queries of the tutorial by solving the LP with random positive
    objectives plus all 0/1-support candidates. Returns ``(L, packing)``.
    """
    best_load = 0.0
    best_packing: dict[str, float] = {a.name: 0.0 for a in query.atoms}
    query.require_atoms(sizes, "sizes")
    log_sizes = {name: math.log(max(size, 1)) for name, size in sizes.items()}

    for packing in _packing_vertices(query):
        total = sum(packing.values())
        if total <= _TOLERANCE:
            continue
        log_load = (sum(log_sizes[n] * u for n, u in packing.items())
                    - math.log(p)) / total
        load = math.exp(log_load)
        if load > best_load:
            best_load = load
            best_packing = packing
    return best_load, best_packing


def _packing_vertices(query: ConjunctiveQuery) -> list[dict[str, float]]:
    """Vertices of the edge-packing polytope (exact for ≤ ~6 atoms).

    Enumerate all subsets of atoms; for each subset solve the packing LP
    restricted to that support with the all-ones objective, plus the
    classic half-integral vertices. This covers every vertex of the
    polytope for the tutorial's query sizes; duplicates are pruned.
    """
    atoms = [a.name for a in query.atoms]
    if len(atoms) > 12:
        raise QueryError("packing-vertex enumeration is exponential; query too large")
    vertices: list[dict[str, float]] = []
    seen: set[tuple[float, ...]] = set()

    for r in range(1, len(atoms) + 1):
        for support in itertools.combinations(range(len(atoms)), r):
            support_set = {atoms[i] for i in support}
            objective = {n: (1.0 if n in support_set else -1000.0) for n in atoms}
            result = fractional_edge_packing(query, objective)
            rounded = tuple(round(result.weights[n], 9) for n in atoms)
            if rounded not in seen:
                seen.add(rounded)
                vertices.append({n: max(result.weights[n], 0.0) for n in atoms})
    return vertices
