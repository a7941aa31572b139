"""``plan_query`` is a memoized view of its relations.

The decision record is a function of the atoms, the bound relations'
contents and ``(p, out_estimate, sample, seed)``; while every relation
is the same object at the same mutation token, a repeat is served the
*same* frozen ``ExplainResult`` without gathering statistics. Anything
that can change the record — a mutation, a replacement, another scalar
— must produce a fresh plan equal to what an un-memoized planner
computes; an edit of a list ``rows()`` handed out changes nothing.
"""

import copy
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.engine import Engine
from repro.kernels.memo import clear_memo, forget
from repro.mpc.trace import trace
from repro.planner import optimizer
from repro.planner.multiway import MultiwayPlan
from repro.planner.optimizer import plan_and_execute, plan_query
from repro.planner.two_way import TwoWayPlan
from repro.query import lp
from repro.query.parser import parse_query

TRIANGLE_TEXT = "Q(a, b, c) :- R(a, b), S(b, c), T(c, a)"
TWO_WAY = parse_query("Q(a, b, c) :- R(a, b), S(b, c)")
TRIANGLE = parse_query(TRIANGLE_TEXT)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def statistics_calls(monkeypatch):
    """How often the planner gathered statistics (the body's first step)."""
    calls = []
    original = optimizer.collect_query_statistics

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer, "collect_query_statistics", counting)
    return calls


def _relations(skew=30):
    return {
        "R": Relation("R", ["a", "b"], [(i, 0 if i < skew else i % 9) for i in range(80)]),
        "S": Relation("S", ["b", "c"], [(i % 9, i) for i in range(70)]),
        "T": Relation("T", ["c", "a"], [(i % 13, i % 11) for i in range(60)]),
    }


def _copies(relations):
    """Equal relations under new identities: nothing cached can be theirs."""
    return {
        name: Relation(rel.name, rel.schema.attributes, list(rel.rows_readonly()))
        for name, rel in relations.items()
    }


def _unmemoized(cq, relations, p=4, **kwargs):
    return plan_query(cq, _copies(relations), p, **kwargs)


class TestRepeatIsServedTheRecord:
    def test_same_object_and_no_statistics_pass(self, statistics_calls):
        relations = _relations()
        first = plan_query(TRIANGLE, relations, 4)
        assert len(statistics_calls) == 1
        assert plan_query(TRIANGLE, relations, 4) is first
        assert plan_query(TRIANGLE_TEXT, relations, 4) is first  # parsed or not
        assert len(statistics_calls) == 1
        assert first == _unmemoized(TRIANGLE, relations)

    def test_atoms_are_part_of_the_key(self):
        relations = _relations()
        two = plan_query(TWO_WAY, relations, 4)
        three = plan_query(TRIANGLE, relations, 4)
        assert two.query != three.query
        renamed = parse_query("Q(a, b, c) :- R(a, b), T(b, c)")
        swapped = {"R": relations["R"], "T": relations["S"]}
        assert plan_query(renamed, swapped, 4).query == str(renamed)

    def test_forced_strategy_shares_the_entry_with_auto(self, statistics_calls):
        relations = _relations()
        auto, _, _, _ = plan_and_execute(TWO_WAY, relations, 4)
        forced, executed, _, _ = plan_and_execute(TWO_WAY, relations, 4, strategy="hash")
        assert forced is auto and executed == "hash"
        assert len(statistics_calls) == 1

    def test_lp_misses_do_not_move_on_the_repeat(self):
        relations = _relations()
        plan_query(TRIANGLE, relations, 4)
        misses = lp.counters()[1]
        plan_query(TRIANGLE, relations, 4)
        assert lp.counters()[1] == misses


class TestWhatMustReplan:
    @pytest.mark.parametrize("mutate", [
        lambda rels: rels["R"].add((999, 0)),
        lambda rels: rels["S"].extend([(0, 1000 + i) for i in range(40)]),
        lambda rels: rels["T"].add((1, 1)),
    ], ids=["add-R", "extend-S", "add-T"])
    def test_mutating_any_bound_relation(self, mutate, statistics_calls):
        relations = _relations()
        first = plan_query(TRIANGLE, relations, 4)
        mutate(relations)
        again = plan_query(TRIANGLE, relations, 4)
        assert len(statistics_calls) == 2
        assert again is not first
        assert again == _unmemoized(TRIANGLE, relations)
        assert plan_query(TRIANGLE, relations, 4) is again

    def test_forget_and_clear_memo_drop_the_record(self, statistics_calls):
        relations = _relations()
        first = plan_query(TRIANGLE, relations, 4)
        # The entry pins all three inputs: forgetting any one drops it.
        assert forget(relations["S"]) >= 1
        second = plan_query(TRIANGLE, relations, 4)
        assert second is not first and second == first
        clear_memo()
        assert plan_query(TRIANGLE, relations, 4) is not second
        assert len(statistics_calls) == 3

    def test_borrowed_input_is_never_served_a_record(self, statistics_calls):
        # The PR 15 regression shape: rows() handed out, the list edited in
        # place. The list is the caller's copy: the relation is unchanged,
        # so the record it was planned from is the right one to serve.
        relations = _relations(skew=0)
        rows = relations["R"].rows()
        level = plan_query(TWO_WAY, relations, 4)
        assert not level.statistics.skewed
        rows[:] = [(i, 0) for i in range(80)]
        again = plan_query(TWO_WAY, relations, 4)
        assert again is level and len(statistics_calls) == 1
        assert again == _unmemoized(TWO_WAY, relations)
        assert forget(relations["R"]) >= 1  # the record (and R's views) were pinned

    @pytest.mark.parametrize("kwargs", [
        {"p": 8}, {"out_estimate": 10**6}, {"sample": 20}, {"sample": 20, "seed": 5},
    ], ids=["p", "out_estimate", "sample", "seed"])
    def test_each_scalar_is_part_of_the_key(self, kwargs, statistics_calls):
        relations = _relations()
        base = plan_query(TRIANGLE, relations, 4, sample=20 if "seed" in kwargs else None)
        args = {"p": 4, **kwargs}
        other = plan_query(TRIANGLE, relations, **args)
        assert len(statistics_calls) == 2
        assert other is not base
        assert other == _unmemoized(TRIANGLE, relations, **args)
        assert plan_query(TRIANGLE, relations, **args) is other


class TestTheSharedRecordIsReadOnly:
    def test_views_rendering_and_trace_leave_it_untouched(self):
        relations = _relations()
        for cq in (TWO_WAY, TRIANGLE):
            explain, executed, _output, stats = plan_and_execute(cq, relations, 4)
            before = copy.deepcopy(explain)
            if len(cq.atoms) == 2:
                TwoWayPlan.view(explain, executed, relations["R"], relations["S"]).describe()
            MultiwayPlan.view(explain, executed)
            explain.describe()
            trace(stats)
            for candidate in explain.candidates:
                candidate.describe()
            assert explain == before
            assert plan_query(cq, relations, 4) is explain


operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from("RS"), st.integers(0, 5)),
        st.tuples(st.just("extend"), st.sampled_from("RS"), st.integers(0, 5)),
        st.tuples(st.just("borrow_edit"), st.sampled_from("RS"), st.integers(0, 5)),
        st.tuples(st.just("replace"), st.sampled_from("RS"), st.integers(0, 5)),
        st.tuples(st.just("plan"), st.sampled_from([2, 4]), st.just(0)),
        st.tuples(st.just("plan_twice"), st.sampled_from([2, 4]), st.just(0)),
    ),
    max_size=10,
)
small_rows = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(r_rows=small_rows, s_rows=small_rows, ops=operations)
def test_plan_view_coherent_under_interleavings(r_rows, s_rows, ops):
    """Mirror of the PR 6/10 coherency suites for the plan view.

    Whatever interleaving of mutations, in-place edits of a handed-out
    ``rows()`` copy (which change nothing) and re-registrations the
    catalog suffers, the engine's decision
    equals the one a planner that has never seen these relations makes
    for a fresh copy of the same state — on the miss and on the hit.
    """
    clear_memo()
    engine = Engine(p=2)
    engine.register(Relation("R", ["a", "b"], r_rows))
    engine.register(Relation("S", ["b", "c"], s_rows))
    shadow = {"R": list(r_rows), "S": list(s_rows)}
    for tag, target, value in ops:
        if tag == "add":
            engine.relation(target).add((value, value))
            shadow[target].append((value, value))
        elif tag == "extend":
            engine.relation(target).extend([(value, 0)] * 3)
            shadow[target].extend([(value, 0)] * 3)
        elif tag == "borrow_edit":
            live = engine.relation(target).rows()
            if live:
                live[value % len(live)] = (value, value)  # the copy: shadow unchanged
            assert engine.relation(target).rows_readonly() == shadow[target]
        elif tag == "replace":
            attrs = engine.relation(target).schema.attributes
            shadow[target] = [(value, i % 3) for i in range(value)]
            engine.register(Relation(target, attrs, shadow[target]))
        else:
            engine.p = target
            want = plan_query(TWO_WAY, {
                "R": Relation("R", ["a", "b"], list(shadow["R"])),
                "S": Relation("S", ["b", "c"], list(shadow["S"])),
            }, target)
            for _ in range(2 if tag == "plan_twice" else 1):
                assert engine.query(TWO_WAY).explain == want
    clear_memo()


def test_two_threads_planning_one_query_agree():
    relations = _relations()
    results, errors = [], []
    start = threading.Barrier(2)

    def worker():
        try:
            start.wait(timeout=10)
            for _ in range(20):
                results.append(plan_query(TRIANGLE, relations, 4))
        except BaseException as exc:  # noqa: BLE001 - the assertion target
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(results) == 40
    assert all(result == results[0] for result in results)
    # Once both have stored, everyone is served one record.
    assert plan_query(TRIANGLE, relations, 4) is plan_query(TRIANGLE, relations, 4)


class TestTwoWayPlanCountsOnFirstRead:
    """``TwoWayPlan.statistics`` is counted when first read, never on the
    query path, and reads as the eagerly counted record did: the same
    statistics, ``==``, ``hash``, ``repr`` and ``describe()``."""

    @staticmethod
    def _eager(plan, r, s):
        """The record as it was when the view counted at construction."""
        from dataclasses import dataclass

        from repro.planner.statistics import JoinStatistics, join_statistics

        @dataclass(frozen=True)
        class TwoWayPlan:
            algorithm: str
            predicted_load: float
            statistics: JoinStatistics

            def describe(self) -> str:
                return (
                    f"{self.algorithm} join (predicted L ≈ {self.predicted_load:.0f}, "
                    f"IN={self.statistics.in_size}, OUT={self.statistics.out_size})"
                )

        TwoWayPlan.__qualname__ = "TwoWayPlan"  # as its repr printed it
        return TwoWayPlan(plan.algorithm, plan.predicted_load, join_statistics(r, s))

    @pytest.fixture
    def counts(self, monkeypatch):
        from repro.planner import two_way

        calls = []
        original = two_way.join_statistics

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(two_way, "join_statistics", counting)
        return calls

    @pytest.mark.parametrize("out_estimate", [None, 7])
    @pytest.mark.parametrize("schemas", [
        (["a", "b"], ["b", "c"]), (["a", "b", "c"], ["c", "b", "d"]),
    ], ids=["one-attribute-key", "two-attribute-key"])
    def test_the_plan_reads_as_the_eager_record(self, counts, schemas, out_estimate):
        r = Relation("R", schemas[0], [(i % 5, i % 3, i % 4)[: len(schemas[0])] for i in range(40)])
        s = Relation("S", schemas[1], [(i % 4, i % 3, i)[: len(schemas[1])] for i in range(30)])
        text = f"R({', '.join(schemas[0])}), S({', '.join(schemas[1])})"

        def plan_over(*relations):
            engine = Engine(p=4)
            for rel in relations:
                engine.register(rel)
            return engine.query(text, out_estimate=out_estimate).plan

        plan = plan_over(r, s)
        twin = plan_over(*(Relation(x.name, x.schema.attributes, x.rows()) for x in (r, s)))
        assert counts == []  # the query path never reads it
        eager = self._eager(plan, r, s)
        # Grown after the plan was made: the plan still counts the inputs it saw.
        r.extend([(0, 0, 0)[: r.schema.arity]] * 5)
        assert plan.statistics == eager.statistics
        assert len(counts) == 1
        assert repr(plan) == repr(eager)
        assert plan.describe() == eager.describe()
        assert hash(plan) == hash(eager)
        assert plan == twin and hash(plan) == hash(twin)
        assert plan_over(r, s) != plan  # R grew
        assert len(counts) == 3

    def test_a_single_atom_counts_nothing(self, counts):
        engine = Engine(p=4)
        engine.register(Relation("R", ["a", "b"], [(1, 2), (3, 4)]))
        plan = engine.query("R(a, b)").plan
        assert repr(plan) == (
            "TwoWayPlan(algorithm='scan', predicted_load=0.0, statistics=JoinStatistics("
            "r_size=2, s_size=0, shared=(), out_size=2, max_degree_r=0, max_degree_s=0))"
        )
        assert counts == []

    def test_direct_construction_takes_the_statistics_as_given(self, counts):
        r = Relation("R", ["a", "b"], [(i % 5, i % 3) for i in range(40)])
        s = Relation("S", ["b", "c"], [(i % 3, i) for i in range(30)])
        engine = Engine(p=4)
        engine.register(r)
        engine.register(s)
        plan = engine.query("R(a, b), S(b, c)").plan
        eager = self._eager(plan, r, s)
        counts.clear()
        for built in (
            TwoWayPlan(plan.algorithm, plan.predicted_load, eager.statistics),
            TwoWayPlan(algorithm=plan.algorithm, predicted_load=plan.predicted_load,
                       statistics=eager.statistics),
        ):
            assert built.statistics is eager.statistics
            assert repr(built) == repr(eager) and built.describe() == eager.describe()
            assert built == plan and hash(built) == hash(plan)
        assert len(counts) == 1  # the viewed plan's, counted once
        with pytest.raises(ValueError):
            TwoWayPlan("hash", 1.0).statistics
