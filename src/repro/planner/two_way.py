"""The two-relation face of the cost-based optimizer.

The tutorial's two-way decision surface (slides 23–32: broadcast when
one side fits a server's share of the other, the Cartesian grid without
a join key, the parallel hash join on skew-free data, the skew-aware
join otherwise) is priced, not ruled, by
:func:`repro.planner.optimizer.plan_query`. :func:`plan_two_way_join`
and :func:`execute_two_way_join` are that planner and its executor on
the two-atom query ``R(r's attributes), S(s's attributes)``; they
decide and dispatch nothing themselves. :class:`TwoWayPlan` is the
record they — and :class:`repro.engine.Engine`, for queries of up to two
atoms — return: a view of one candidate of the
:class:`~repro.planner.optimizer.ExplainResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.relation import Relation
from repro.joins.base import JoinRun
from repro.planner.optimizer import ExplainResult, plan_and_execute, plan_query
from repro.planner.statistics import JoinStatistics, join_statistics
from repro.query.cq import Atom, ConjunctiveQuery


@dataclass(frozen=True)
class TwoWayPlan:
    """One strategy of an :class:`ExplainResult` over at most two atoms.

    ``algorithm`` names any strategy the optimizer can run on such a
    query: ``"broadcast"``, ``"hash"``, ``"skew"`` or ``"cartesian"``,
    the general ``"hypercube"``, ``"skewhc"``, ``"gym"`` and
    ``"semijoin"`` when they are cheaper (or forced), and ``"scan"`` for
    a single atom.
    """

    algorithm: str
    predicted_load: float
    statistics: JoinStatistics

    @classmethod
    def view(
        cls, explain: ExplainResult, executed: str, *relations: Relation
    ) -> "TwoWayPlan":
        """The record of ``executed`` over the query's one or two inputs."""
        if len(relations) == 1:
            size = len(relations[0])
            statistics = JoinStatistics(size, 0, (), size, 0, 0)
        else:
            statistics = join_statistics(*relations)
        return cls(
            executed, explain.candidate(executed).predicted_load or 0.0, statistics
        )

    def describe(self) -> str:
        return (
            f"{self.algorithm} join (predicted L ≈ {self.predicted_load:.0f}, "
            f"IN={self.statistics.in_size}, OUT={self.statistics.out_size})"
        )


def _two_atom_query(
    r: Relation, s: Relation
) -> tuple[ConjunctiveQuery, dict[str, Relation]]:
    """The natural join of ``r`` and ``s`` as a query with its bindings.

    The atoms are named by position, not after the relations, so two
    inputs that share a name still form a valid query.
    """
    query = ConjunctiveQuery(
        [Atom("R", r.schema.attributes), Atom("S", s.schema.attributes)]
    )
    return query, {"R": r, "S": s}


def plan_two_way_join(r: Relation, s: Relation, p: int) -> TwoWayPlan:
    """The optimizer's cheapest strategy for R ⋈ S on ``p`` servers."""
    query, relations = _two_atom_query(r, s)
    explain = plan_query(query, relations, p)
    return TwoWayPlan.view(explain, explain.chosen, r, s)


def execute_two_way_join(
    r: Relation, s: Relation, p: int, seed: int = 0
) -> tuple[TwoWayPlan, JoinRun]:
    """Plan and run; returns the decision and the execution."""
    query, relations = _two_atom_query(r, s)
    explain, executed, output, stats = plan_and_execute(
        query, relations, p, seed=seed
    )
    return TwoWayPlan.view(explain, executed, r, s), JoinRun(output, stats)
