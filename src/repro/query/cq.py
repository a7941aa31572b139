"""Conjunctive queries (full CQs) and residual queries.

The tutorial studies *full* conjunctive queries

    Q(x1, …, xk) = S1(vars1) ⋈ S2(vars2) ⋈ … ⋈ Sl(varsl)

where the head contains every variable. An :class:`Atom` names a relation
and lists its variables; a :class:`ConjunctiveQuery` is a list of atoms.

Residual queries (slide 47): fixing a set of variables ``x`` (because
their values are heavy hitters handled separately) yields ``Q_x``,
obtained by removing those variables from every atom and deleting atoms
that become empty. SkewHC computes one residual query per heavy/light
combination.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.data.relation import Relation
from repro.errors import QueryError


@dataclass(frozen=True)
class Atom:
    """One atom ``name(variables)`` of a conjunctive query.

    Variables within an atom must be distinct (the tutorial's queries all
    satisfy this; repeated variables can be expressed with a selection
    before the join).
    """

    name: str
    variables: tuple[str, ...]

    def __init__(self, name: str, variables: Sequence[str]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "variables", tuple(variables))
        if not self.variables:
            raise QueryError(f"atom {name} has no variables")
        if len(set(self.variables)) != len(self.variables):
            raise QueryError(f"atom {name}{self.variables} repeats a variable")

    @property
    def arity(self) -> int:
        return len(self.variables)

    def var_set(self) -> frozenset[str]:
        return frozenset(self.variables)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.variables)})"


class ConjunctiveQuery:
    """A full conjunctive query: the natural join of its atoms.

    >>> triangle = ConjunctiveQuery([
    ...     Atom("R", ["x", "y"]), Atom("S", ["y", "z"]), Atom("T", ["z", "x"]),
    ... ])
    >>> triangle.variables
    ('x', 'y', 'z')
    """

    def __init__(self, atoms: Iterable[Atom]) -> None:
        self.atoms = list(atoms)
        if not self.atoms:
            raise QueryError("a query needs at least one atom")
        names = [a.name for a in self.atoms]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate atom names in query: {names}")
        seen: dict[str, None] = {}
        for atom in self.atoms:
            for v in atom.variables:
                seen.setdefault(v)
        self.variables: tuple[str, ...] = tuple(seen)

    def atom(self, name: str) -> Atom:
        """The atom called ``name``."""
        for a in self.atoms:
            if a.name == name:
                return a
        raise QueryError(f"no atom named {name!r} in {self}")

    def atoms_with(self, variable: str) -> list[Atom]:
        """All atoms containing ``variable``."""
        return [a for a in self.atoms if variable in a.variables]

    def require_atoms(self, mapping: Mapping[str, object], what: str) -> None:
        """Raise :class:`QueryError` unless ``mapping`` has an entry per atom.

        ``what`` names the mapping (``"sizes"``, ``"objective"``) in the
        message, which lists every missing atom.
        """
        missing = [a.name for a in self.atoms if a.name not in mapping]
        if missing:
            raise QueryError(
                f"{what} lack atoms {missing} of {self} (have {sorted(mapping)})"
            )

    def residual(self, bound: Iterable[str]) -> "ConjunctiveQuery":
        """The residual query Q_x: drop ``bound`` variables, drop empty atoms.

        Raises :class:`QueryError` if *every* atom becomes empty (the
        residual of a fully bound query is a constant, not a query).
        """
        bound_set = set(bound)
        unknown = bound_set - set(self.variables)
        if unknown:
            raise QueryError(f"cannot bind unknown variables {sorted(unknown)}")
        new_atoms = []
        for atom in self.atoms:
            remaining = [v for v in atom.variables if v not in bound_set]
            if remaining:
                new_atoms.append(Atom(atom.name, remaining))
        if not new_atoms:
            raise QueryError(f"residual of {self} on {sorted(bound_set)} has no atoms")
        return ConjunctiveQuery(new_atoms)

    def evaluate(self, relations: Mapping[str, Relation]) -> Relation:
        """Reference (sequential) evaluation: left-deep natural join.

        ``relations`` maps atom names to relations whose schemas use the
        atom's variables as attribute names. Used as ground truth in tests.
        """
        result: Relation | None = None
        for atom in self.atoms:
            rel = self._bound_relation(atom, relations)
            result = rel if result is None else result.join(rel)
        assert result is not None
        # Normalize the column order to the query's variable order.
        return result.project(list(self.variables), name="OUT")

    def _bound_relation(self, atom: Atom, relations: Mapping[str, Relation]) -> Relation:
        try:
            rel = relations[atom.name]
        except KeyError:
            raise QueryError(f"no relation bound for atom {atom.name!r}") from None
        if rel.schema.attributes != atom.variables:
            if set(rel.schema.attributes) != set(atom.variables):
                raise QueryError(
                    f"relation {rel.name} attributes {rel.schema.attributes} do not "
                    f"match atom {atom}"
                )
            rel = rel.project(list(atom.variables))
        return rel

    def __str__(self) -> str:
        return " ⋈ ".join(str(a) for a in self.atoms)

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({[str(a) for a in self.atoms]})"


# --------------------------------------------------------------- common queries


def two_way_join() -> ConjunctiveQuery:
    """R(x,y) ⋈ S(y,z) — the tutorial's two-way join."""
    return ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "z"])])


def triangle_query() -> ConjunctiveQuery:
    """Δ(x,y,z) = R(x,y) ⋈ S(y,z) ⋈ T(z,x) (slide 34)."""
    return ConjunctiveQuery(
        [Atom("R", ["x", "y"]), Atom("S", ["y", "z"]), Atom("T", ["z", "x"])]
    )


def two_path_query() -> ConjunctiveQuery:
    """R(x), S(x,y), T(y) — the intersection-path example (slide 53)."""
    return ConjunctiveQuery([Atom("R", ["x"]), Atom("S", ["x", "y"]), Atom("T", ["y"])])


def path_query(n: int) -> ConjunctiveQuery:
    """The length-n path R1(A0,A1) ⋈ R2(A1,A2) ⋈ … ⋈ Rn(A(n-1),An) (slide 79)."""
    if n < 1:
        raise QueryError("path query needs at least one atom")
    return ConjunctiveQuery(
        [Atom(f"R{i}", [f"A{i - 1}", f"A{i}"]) for i in range(1, n + 1)]
    )


def star_query(n: int) -> ConjunctiveQuery:
    """The star R1(A0,A1) ⋈ R2(A0,A2) ⋈ … ⋈ Rn(A0,An) (slide 79)."""
    if n < 1:
        raise QueryError("star query needs at least one atom")
    return ConjunctiveQuery(
        [Atom(f"R{i}", ["A0", f"A{i}"]) for i in range(1, n + 1)]
    )


def cycle_query(n: int) -> ConjunctiveQuery:
    """The length-n cycle R1(x1,x2) ⋈ … ⋈ Rn(xn,x1); n=3 is the triangle."""
    if n < 3:
        raise QueryError("cycle query needs at least three atoms")
    return ConjunctiveQuery(
        [Atom(f"R{i}", [f"x{i}", f"x{(i % n) + 1}"]) for i in range(1, n + 1)]
    )


def spider_query() -> ConjunctiveQuery:
    """The slide-61 open query: R1(x1,x2,x3) ⋈ R2(y1,y2,y3) ⋈ S1(x1,y1) ⋈ S2(x2,y2) ⋈ S3(x3,y3)."""
    return ConjunctiveQuery(
        [
            Atom("R1", ["x1", "x2", "x3"]),
            Atom("R2", ["y1", "y2", "y3"]),
            Atom("S1", ["x1", "y1"]),
            Atom("S2", ["x2", "y2"]),
            Atom("S3", ["x3", "y3"]),
        ]
    )
