"""A worst-case optimal (generic) join for local evaluation.

The tutorial's "in practice" slide (97) lists systems — BiGJoin, SEED,
TwinTwigJoin — whose local engines are *worst-case optimal joins*:
variable-at-a-time evaluation whose running time is bounded by the AGM
output bound, unlike binary join plans which can materialize
intermediates far larger than the output (slide 63's warning).

:func:`generic_join` implements the textbook Generic Join: pick a
variable order; for each prefix, intersect the candidate values offered
by every atom containing the next variable, seeded from the smallest
candidate set. It is a drop-in alternative to the left-deep local plan
inside HyperCube (``hypercube_join(..., local="generic")`` via
:func:`generic_join_evaluate`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.kernels.memo import align, bound
from repro.query.cq import ConjunctiveQuery

Row = tuple[Any, ...]


class _AtomIndex:
    """Trie-ish index of one relation along the global variable order."""

    def __init__(self, atom_variables: Sequence[str], rows: list[Row],
                 order: Sequence[str]) -> None:
        # Positions of the atom's variables sorted by the global order.
        self.variables = sorted(atom_variables, key=order.index)
        self._positions = [list(atom_variables).index(v) for v in self.variables]
        self.rows = rows

    def candidates(self, binding: Mapping[str, Any], variable: str) -> set[Any] | None:
        """Values this atom allows for ``variable`` given the binding.

        Returns None when the atom does not contain ``variable``.
        Counts respect set semantics (multiplicity handled at emit time).
        """
        if variable not in self.variables:
            return None
        out: set[Any] = set()
        for row in self.rows:
            ok = True
            value = None
            for v, pos in zip(self.variables, self._positions):
                if v == variable:
                    value = row[pos]
                elif v in binding and row[pos] != binding[v]:
                    ok = False
                    break
            if ok:
                out.add(value)
        return out

    def multiplicity(self, binding: Mapping[str, Any]) -> int:
        """Number of rows matching a full binding of the atom's variables."""
        count = 0
        for row in self.rows:
            if all(
                row[pos] == binding[v]
                for v, pos in zip(self.variables, self._positions)
            ):
                count += 1
        return count


def generic_join(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    order: Sequence[str] | None = None,
) -> Relation:
    """Worst-case optimal evaluation of a full CQ (bag semantics).

    ``order`` fixes the variable elimination order (default: the query's
    variable order). Output multiplicities match
    :meth:`ConjunctiveQuery.evaluate` exactly.
    """
    variable_order = list(order) if order is not None else list(query.variables)
    if sorted(variable_order) != sorted(query.variables):
        raise QueryError(
            f"variable order {variable_order} does not cover {query.variables}"
        )

    indexes = []
    for atom in query.atoms:
        aligned = align(atom, bound(relations, atom.name))
        indexes.append(
            _AtomIndex(atom.variables, aligned.rows_readonly(), variable_order)
        )

    out_rows: list[Row] = []

    def extend(binding: dict[str, Any], depth: int) -> None:
        if depth == len(variable_order):
            # Bag semantics: multiply each atom's matching row count.
            multiplicity = 1
            for index in indexes:
                multiplicity *= index.multiplicity(binding)
                if multiplicity == 0:
                    return
            row = tuple(binding[v] for v in query.variables)
            out_rows.extend([row] * multiplicity)
            return
        variable = variable_order[depth]
        candidate_sets = [
            c for index in indexes
            if (c := index.candidates(binding, variable)) is not None
        ]
        if not candidate_sets:
            raise QueryError(f"variable {variable} appears in no atom")
        # Intersect, starting from the smallest set (the WCOJ trick).
        candidate_sets.sort(key=len)
        values = candidate_sets[0]
        for other in candidate_sets[1:]:
            values = values & other
            if not values:
                return
        for value in sorted(values, key=repr):
            binding[variable] = value
            extend(binding, depth + 1)
            del binding[variable]

    extend({}, 0)
    return Relation("OUT", list(query.variables), out_rows)


def generic_join_evaluate(
    query: ConjunctiveQuery, relations: Mapping[str, Relation]
) -> Relation:
    """Adapter matching :meth:`ConjunctiveQuery.evaluate`'s signature."""
    return generic_join(query, relations)
