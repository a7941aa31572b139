"""Error-path coverage for the cost-based optimizer.

Unknown strategy names, empty-relation statistics, and p=1 degenerate
grids — the paths a long-lived service actually exercises when tenants
send junk, tables are empty, or the cluster degenerates to one server.
"""

import pytest

from repro.data.relation import Relation
from repro.engine import Engine
from repro.errors import QueryError
from repro.planner.optimizer import (
    STRATEGIES,
    execute_strategy,
    plan_and_execute,
    plan_query,
    price_branches,
)
from repro.planner.statistics import collect_query_statistics
from repro.query.parser import parse_query

TWO_WAY = "Q(a, b, c) :- R(a, b), S(b, c)"
TRIANGLE = "Q(a, b, c) :- R(a, b), S(b, c), T(c, a)"


@pytest.fixture
def rels():
    return {
        "R": Relation("R", ["a", "b"], [(i, i % 3) for i in range(20)]),
        "S": Relation("S", ["b", "c"], [(i % 3, i) for i in range(15)]),
    }


@pytest.fixture
def empty_rels():
    return {
        "R": Relation("R", ["a", "b"], []),
        "S": Relation("S", ["b", "c"], []),
    }


# -------------------------------------------------------- unknown strategies


def test_execute_strategy_rejects_unknown_name(rels):
    with pytest.raises(QueryError, match="unknown strategy 'sideways'"):
        execute_strategy(TWO_WAY, rels, 4, "sideways")


def test_execute_strategy_error_lists_choices(rels):
    with pytest.raises(QueryError) as exc_info:
        execute_strategy(TWO_WAY, rels, 4, "nope")
    for name in STRATEGIES:
        assert name in str(exc_info.value)


def test_plan_and_execute_rejects_unknown_forced_strategy(rels):
    engine = Engine(4)
    for rel in rels.values():
        engine.register(rel)
    for name in ("bogus", "classic"):
        with pytest.raises(QueryError, match="unknown strategy"):
            plan_and_execute(TWO_WAY, rels, 4, strategy=name)
        with pytest.raises(QueryError, match="unknown strategy"):
            engine.query(TWO_WAY, strategy=name)


def test_explain_candidate_unknown_name_raises(rels):
    explain = plan_query(TWO_WAY, rels, 4)
    with pytest.raises(KeyError, match="bogus"):
        explain.candidate("bogus")


def test_strategy_inapplicable_to_query_shape(rels):
    # Single-atom queries only support scan; multi-atom never does.
    single = {"R": rels["R"]}
    with pytest.raises(QueryError, match="scan"):
        execute_strategy("Q(a, b) :- R(a, b)", single, 4, "hash")
    with pytest.raises(QueryError, match="single-atom"):
        execute_strategy(TWO_WAY, rels, 4, "scan")


# ---------------------------------------------------- empty-relation stats


def test_statistics_on_empty_relations(empty_rels):
    cq = parse_query(TWO_WAY)
    stats = collect_query_statistics(cq, empty_rels, 4)
    assert stats.in_size == 0
    assert stats.out_estimate == 0
    assert not stats.skewed


def test_plan_query_on_empty_relations_chooses_something(empty_rels):
    explain = plan_query(TWO_WAY, empty_rels, 4)
    assert explain.chosen in STRATEGIES
    assert explain.chosen_plan.predicted_load == 0.0


def test_execute_on_empty_relations_returns_empty(empty_rels):
    explain, executed, output, stats = plan_and_execute(
        TWO_WAY, empty_rels, 4
    )
    assert len(output) == 0
    assert stats.max_load == 0


def test_one_empty_one_full_join_is_empty(rels, empty_rels):
    mixed = {"R": rels["R"], "S": empty_rels["S"]}
    _, _, output, _ = plan_and_execute(TWO_WAY, mixed, 4)
    assert len(output) == 0


# ------------------------------------------------------- degenerate p = 1


def test_p1_two_way_executes_every_applicable_strategy(rels):
    explain = plan_query(TWO_WAY, rels, 1)
    reference = None
    for candidate in explain.candidates:
        if not candidate.applicable:
            continue
        output, stats = execute_strategy(
            TWO_WAY, rels, 1, candidate.strategy
        )
        rows = sorted(output.rows_readonly())
        if reference is None:
            reference = rows
        assert rows == reference
        # One server carries everything: L_max is the whole input+output.
        assert stats.max_load > 0


def test_p1_triangle_hypercube_grid_degenerates_cleanly(rels):
    triangle = dict(rels)
    triangle["T"] = Relation("T", ["c", "a"], [(i % 5, i % 4) for i in range(12)])
    explain, executed, output, stats = plan_and_execute(
        TRIANGLE, triangle, 1
    )
    assert executed in STRATEGIES
    assert stats.num_rounds >= 1


def test_invalid_p_rejected(rels):
    for bad in (0, -1):
        with pytest.raises(QueryError, match="at least one server"):
            plan_query(TWO_WAY, rels, bad)


def test_empty_query_unconstructible():
    # plan_query guards against empty queries, but the type system makes
    # them unbuildable in the first place.
    from repro.query.cq import ConjunctiveQuery

    with pytest.raises(QueryError, match="at least one atom"):
        ConjunctiveQuery([])


# --------------------------------------------------------- price_branches


def test_price_branches_requires_branches(rels):
    with pytest.raises(QueryError, match="at least one branch"):
        price_branches(TWO_WAY, [], 4)


def test_price_branches_sums_over_branches(rels):
    whole = plan_query(TWO_WAY, rels, 4)
    pricing = price_branches(TWO_WAY, [rels, rels], 4)
    assert pricing.branches == 2
    assert len(pricing.chosen) == 2
    assert pricing.predicted_load == pytest.approx(
        2 * (whole.chosen_plan.predicted_load or 0.0)
    )
    assert pricing.predicted_rounds >= 2 * (
        whole.chosen_plan.predicted_rounds or 0
    )
