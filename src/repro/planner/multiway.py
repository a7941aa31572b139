"""The conjunctive-query face of the cost-based optimizer.

The tutorial's multiway decision surface — GYM for acyclic queries while
OUT < p^{1−1/τ*}·IN (slide 78), HyperCube on skew-free data, SkewHC
under heavy hitters — is priced by
:func:`repro.planner.optimizer.plan_query` from τ*, ψ*, the m/p
heavy-hitter rule and the output estimate. :func:`plan_multiway_join`
and :func:`execute_multiway_join` are that planner and its executor
under their historical names; they decide and dispatch nothing
themselves. :class:`MultiwayPlan` is the record they — and
:class:`repro.engine.Engine`, for queries of three or more atoms —
return: a view of one candidate of the
:class:`~repro.planner.optimizer.ExplainResult`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.data.relation import Relation
from repro.kernels.memo import Later, OnRead
from repro.multiway.base import MultiwayRun
from repro.planner.optimizer import ExplainResult, plan_and_execute, plan_query
from repro.query.cq import ConjunctiveQuery


@dataclass(frozen=True)
class MultiwayPlan(OnRead):
    """One strategy of an :class:`ExplainResult` plus the cost model's inputs.

    A view reads ``out_estimate`` off the statistics when it is read.
    """

    _deferred = ("out_estimate",)

    algorithm: str            # any strategy the optimizer can run on the query
    acyclic: bool
    tau_star: float
    skewed: bool
    in_size: int
    out_estimate: int
    predicted_load: float

    @classmethod
    def view(cls, explain: ExplainResult, executed: str) -> "MultiwayPlan":
        """The record of ``executed`` as a view of ``explain``."""
        stats = explain.statistics
        return cls(
            executed,
            explain.acyclic,
            explain.tau_star,
            stats.skewed,
            stats.in_size,
            Later(lambda: stats.out_estimate),
            explain.candidate(executed).predicted_load or 0.0,
        )

    def describe(self) -> str:
        return (
            f"{self.algorithm} (acyclic={self.acyclic}, τ*={self.tau_star:.2f}, "
            f"skewed={self.skewed}, predicted L ≈ {self.predicted_load:.0f})"
        )


def plan_multiway_join(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    out_estimate: int | None = None,
    seed: int = 0,
) -> MultiwayPlan:
    """The optimizer's cheapest strategy for this query and input profile.

    ``out_estimate`` defaults to the exact output size (the simulator
    can afford it); pass a sketch-based estimate to model a real engine.
    ``seed`` is the run's: under skew the hashed plans are priced by its
    hash functions, so this is the plan :func:`execute_multiway_join`
    runs at that seed.
    """
    explain = plan_query(query, relations, p, out_estimate=out_estimate, seed=seed)
    return MultiwayPlan.view(explain, explain.chosen)


def execute_multiway_join(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    seed: int = 0,
    out_estimate: int | None = None,
) -> tuple[MultiwayPlan, MultiwayRun]:
    """Plan and run; returns the decision and the execution."""
    explain, executed, output, stats = plan_and_execute(
        query, relations, p, seed=seed, out_estimate=out_estimate
    )
    return MultiwayPlan.view(explain, executed), MultiwayRun(output, stats)
