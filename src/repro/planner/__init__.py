"""Cost-based plan selection over the tutorial's algorithm menu."""

from repro.planner.join_order import estimate_join_size, greedy_join_order
from repro.planner.multiway import (
    MultiwayPlan,
    execute_multiway_join,
    plan_multiway_join,
)
from repro.planner.optimizer import (
    STRATEGIES,
    CandidatePlan,
    ExplainResult,
    execute_strategy,
    plan_and_execute,
    plan_query,
)
from repro.planner.statistics import (
    JoinStatistics,
    QueryStatistics,
    RelationStats,
    collect_query_statistics,
    join_statistics,
    relation_statistics,
)
from repro.planner.two_way import TwoWayPlan, execute_two_way_join, plan_two_way_join

__all__ = [
    "STRATEGIES",
    "CandidatePlan",
    "ExplainResult",
    "JoinStatistics",
    "MultiwayPlan",
    "QueryStatistics",
    "RelationStats",
    "TwoWayPlan",
    "collect_query_statistics",
    "estimate_join_size",
    "execute_multiway_join",
    "execute_strategy",
    "execute_two_way_join",
    "greedy_join_order",
    "join_statistics",
    "plan_and_execute",
    "plan_multiway_join",
    "plan_query",
    "plan_two_way_join",
    "relation_statistics",
]
