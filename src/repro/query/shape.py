"""The shape of a query: what planning reads of the hypergraph alone.

τ*, ρ*, α-acyclicity, connectivity, the GYO join tree and the
depth-minimised width-1 GHD are functions of the atoms — their names
and variables, in order — and of no tuple, size or ``p``. :func:`shape`
builds them once per atom tuple and keeps the frozen record beside the
LP memo (:func:`repro.query.lp.derived`), as ψ* is kept: a repeat
of the same atoms over other relations runs no GYO, builds no GHD and
looks up no LP for τ*/ρ*.

The record is shared between callers and threads — read only. Its join
tree is a read-only mapping; its GHD's nodes are never mutated by the
algorithms that walk them (GYM keys its working relations by node).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.errors import DecompositionError
from repro.query import lp
from repro.query.cq import ConjunctiveQuery
from repro.query.fractional import rho_star, tau_star
from repro.query.ghd import GHD, width1_ghd
from repro.query.hypergraph import Hypergraph, gyo_reduction


@dataclass(frozen=True)
class QueryShape:
    """The hypergraph facts of one atom tuple (``None``: cyclic)."""

    tau_star: float
    rho_star: float
    acyclic: bool
    connected: bool
    parent: Mapping[str, str] | None
    ghd: GHD | None

    def join_tree(self, query: ConjunctiveQuery) -> Mapping[str, str]:
        """The GYO join tree (a parent map; the root maps to itself), as
        :func:`~repro.query.hypergraph.join_tree` gives it — raising
        :class:`DecompositionError` for the cyclic ``query``."""
        if self.parent is None:
            raise DecompositionError(f"query {query} is cyclic; no join tree exists")
        return self.parent

    def width1_ghd(self, query: ConjunctiveQuery) -> GHD:
        """The depth-minimised width-1 GHD, as
        :func:`~repro.query.ghd.width1_ghd` builds it (the same error for a
        cyclic ``query``)."""
        self.join_tree(query)
        return self.ghd


def shape(query: ConjunctiveQuery) -> QueryShape:
    """The :class:`QueryShape` of ``query``'s atoms, built once."""
    return lp.derived(("shape", tuple(query.atoms)), lambda: _build(query))


def _build(query: ConjunctiveQuery) -> QueryShape:
    acyclic, parent = gyo_reduction(Hypergraph.of(query))
    return QueryShape(
        tau_star(query),
        rho_star(query),
        acyclic,
        _connected(query),
        MappingProxyType(parent) if acyclic else None,
        width1_ghd(query) if acyclic else None,
    )


def _connected(query: ConjunctiveQuery) -> bool:
    """Whether the atoms form one connected hypergraph component."""
    atoms = query.atoms
    if len(atoms) <= 1:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(atoms)):
            if j not in seen and set(atoms[i].variables) & set(atoms[j].variables):
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(atoms)
