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

from dataclasses import dataclass, field

from repro.data.relation import Relation
from repro.joins.base import JoinRun
from repro.kernels.memo import Later, OnRead
from repro.planner.optimizer import ExplainResult, plan_and_execute, plan_query
from repro.planner.statistics import JoinStatistics, join_statistics
from repro.query.cq import Atom, ConjunctiveQuery


def _uncounted() -> JoinStatistics:
    raise ValueError("a TwoWayPlan built without statistics has none to count")


def _counted(inputs: tuple) -> JoinStatistics:
    """The statistics of the one or two relations whose columns these are."""
    relations = [Relation.from_columns(*held) for held in inputs]
    if len(relations) == 1:
        size = len(relations[0])
        return JoinStatistics(size, 0, (), size, 0, 0)
    return join_statistics(*relations)


@dataclass(frozen=True)
class TwoWayPlan(OnRead):
    """One strategy of an :class:`ExplainResult` over at most two atoms.

    ``algorithm`` names any strategy the optimizer can run on such a
    query: ``"broadcast"``, ``"hash"``, ``"skew"`` or ``"cartesian"``,
    the general ``"hypercube"``, ``"skewhc"``, ``"gym"`` and
    ``"semijoin"`` when they are cheaper (or forced), and ``"scan"`` for
    a single atom.

    ``statistics`` is the exact :class:`JoinStatistics` of the inputs as
    they were when the plan was made. Built directly, the plan takes it
    as given; :meth:`view` counts it on first read instead, since nothing
    on the query path reads it — so a viewed plan holds its inputs'
    columns (read only: a later ``extend`` cannot reach them) for as long
    as it lives. ``==``, ``hash`` and ``repr`` read ``statistics`` as the
    dataclass field it is.
    """

    _deferred = ("statistics",)

    algorithm: str
    predicted_load: float
    statistics: JoinStatistics = field(default_factory=lambda: Later(_uncounted))

    @classmethod
    def view(
        cls, explain: ExplainResult, executed: str, *relations: Relation
    ) -> "TwoWayPlan":
        """The record of ``executed`` over the query's one or two inputs."""
        inputs = tuple((rel.name, rel.schema, tuple(rel.columns())) for rel in relations)
        return cls(executed, explain.candidate(executed).predicted_load or 0.0,
                   Later(lambda: _counted(inputs)))

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


def plan_two_way_join(r: Relation, s: Relation, p: int, seed: int = 0) -> TwoWayPlan:
    """The optimizer's cheapest strategy for R ⋈ S on ``p`` servers, priced
    by the hash functions of a run at ``seed``."""
    query, relations = _two_atom_query(r, s)
    explain = plan_query(query, relations, p, seed=seed)
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
