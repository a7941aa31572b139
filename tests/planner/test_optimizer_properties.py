"""Property-based invariants of the adaptive planner (hypothesis).

Three laws the optimizer must satisfy on *every* input, not just the
canonical scenarios:

1. Optimality of the choice: the chosen candidate's predicted load is a
   lower bound on every other applicable candidate's.
2. Structural invariance: renaming relations or permuting atoms changes
   neither the chosen strategy nor its predicted load — the cost model
   reads cardinalities and degrees, never names or atom order. Under skew
   HyperCube and SkewHC are priced where their hash functions send the
   degrees, and a variable's function is its position's: an atom order
   that keeps the variables in order keeps the whole decision, one that
   renumbers them keeps every other candidate's price.
3. Auto ≡ forced: executing ``strategy="auto"`` produces byte-identical
   rows and identical measured load to forcing the strategy the explain
   says it chose.
4. One planner: ``plan_two_way_join``, ``plan_multiway_join`` and
   ``Engine.query(...).plan`` are views of ``plan_query``'s record —
   whichever front door a query comes through, it gets one answer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.planner.optimizer import execute_strategy, plan_and_execute, plan_query
from repro.query.parser import parse_query

# Small value domains force collisions (and thus occasional heavy
# hitters), so the generated corpus exercises skew and uniform branches.
_rows = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=40
)


def _instance(draw, query="R(x, y), S(y, z)"):
    cq = parse_query(query)
    relations = {}
    schemas = {"R": ["x", "y"], "S": ["y", "z"], "T": ["z", "x"]}
    for atom in cq.atoms:
        rows = draw(_rows)
        relations[atom.name] = Relation(atom.name, schemas[atom.name], rows)
    p = draw(st.sampled_from([2, 4, 8]))
    return cq, relations, p


@st.composite
def two_way_instances(draw):
    return _instance(draw)


@st.composite
def triangle_instances(draw):
    return _instance(draw, "R(x, y), S(y, z), T(z, x)")


class TestChosenIsCheapest:
    @settings(max_examples=40, deadline=None)
    @given(two_way_instances())
    def test_two_way(self, instance):
        cq, relations, p = instance
        explain = plan_query(cq, relations, p)
        chosen = explain.chosen_plan
        for cand in explain.candidates:
            if cand.applicable and cand.strategy != explain.chosen:
                assert chosen.predicted_load <= cand.predicted_load

    @settings(max_examples=15, deadline=None)
    @given(triangle_instances())
    def test_triangle(self, instance):
        cq, relations, p = instance
        explain = plan_query(cq, relations, p)
        chosen = explain.chosen_plan
        for cand in explain.candidates:
            if cand.applicable and cand.strategy != explain.chosen:
                assert chosen.predicted_load <= cand.predicted_load


class TestStructuralInvariance:
    @settings(max_examples=30, deadline=None)
    @given(two_way_instances())
    def test_relation_renaming(self, instance):
        cq, relations, p = instance
        baseline = plan_query(cq, relations, p)
        renamed_cq = parse_query("A(x, y), B(y, z)")
        renamed = {
            "A": Relation("A", ["x", "y"], relations["R"].rows()),
            "B": Relation("B", ["y", "z"], relations["S"].rows()),
        }
        other = plan_query(renamed_cq, renamed, p)
        assert other.chosen == baseline.chosen
        assert other.chosen_plan.predicted_load == pytest.approx(
            baseline.chosen_plan.predicted_load
        )

    @settings(max_examples=30, deadline=None)
    @given(two_way_instances())
    def test_atom_permutation(self, instance):
        cq, relations, p = instance
        baseline = plan_query(cq, relations, p)
        flipped = parse_query("S(y, z), R(x, y)")
        other = plan_query(flipped, relations, p)
        assert other.chosen == baseline.chosen
        assert other.chosen_plan.predicted_load == pytest.approx(
            baseline.chosen_plan.predicted_load
        )

    @settings(max_examples=10, deadline=None)
    @given(triangle_instances())
    def test_triangle_atom_rotation(self, instance):
        cq, relations, p = instance
        baseline = plan_query(cq, relations, p)
        # Moving T ahead of S keeps the variables in order, so each keeps
        # its hash function: the whole decision stands, skewed or not.
        reordered = plan_query(parse_query("R(x, y), T(z, x), S(y, z)"), relations, p)
        assert reordered.chosen == baseline.chosen
        assert reordered.chosen_plan.predicted_load == pytest.approx(
            baseline.chosen_plan.predicted_load
        )
        # A rotation renumbers the variables: under skew only the prices
        # that read no hash function must stand.
        rotated = parse_query("T(z, x), R(x, y), S(y, z)")
        other = plan_query(rotated, relations, p)
        hashed = ("hypercube", "skewhc") if baseline.statistics.skewed else ()
        for before, after in zip(baseline.candidates, other.candidates):
            assert after.applicable == before.applicable
            if before.applicable and before.strategy not in hashed:
                assert after.predicted_load == pytest.approx(before.predicted_load)
        if not hashed:
            assert other.chosen == baseline.chosen
            assert other.chosen_plan.predicted_load == pytest.approx(
                baseline.chosen_plan.predicted_load
            )


class TestAutoEqualsForced:
    @settings(max_examples=25, deadline=None)
    @given(two_way_instances())
    def test_two_way(self, instance):
        cq, relations, p = instance
        explain, executed, output, stats = plan_and_execute(cq, relations, p)
        assert executed == explain.chosen
        forced_output, forced_stats = execute_strategy(
            cq, relations, p, explain.chosen
        )
        assert output.rows() == forced_output.rows()
        assert stats.max_load == forced_stats.max_load
        assert stats.num_rounds == forced_stats.num_rounds
        # and both agree with the sequential oracle
        assert sorted(output.rows()) == sorted(cq.evaluate(relations).rows())

    @settings(max_examples=8, deadline=None)
    @given(triangle_instances())
    def test_triangle(self, instance):
        cq, relations, p = instance
        explain, executed, output, stats = plan_and_execute(cq, relations, p)
        assert executed == explain.chosen
        forced_output, forced_stats = execute_strategy(
            cq, relations, p, explain.chosen
        )
        assert output.rows() == forced_output.rows()
        assert stats.max_load == forced_stats.max_load
        assert sorted(output.rows()) == sorted(cq.evaluate(relations).rows())


class TestOnePlanner:
    def test_planner_faces_agree_with_plan_query(self):
        from repro.engine import Engine
        from repro.planner.multiway import plan_multiway_join
        from repro.planner.two_way import plan_two_way_join
        from repro.testing.differential import RELATIONAL_KINDS, generate_instances

        checked = {2: 0, 3: 0}
        for instance in generate_instances(120, seed=3, kinds=list(RELATIONAL_KINDS)):
            cq, relations, p = instance.query, instance.relations, instance.p
            explain = plan_query(cq, relations, p, seed=instance.seed)
            if len(cq.atoms) == 2:
                r, s = (relations[atom.name] for atom in cq.atoms)
                record = plan_two_way_join(r, s, p, seed=instance.seed)
            else:
                record = plan_multiway_join(cq, relations, p, seed=instance.seed)
            assert record.algorithm == explain.chosen, instance.label
            assert record.predicted_load == explain.chosen_plan.predicted_load

            engine = Engine(p, seed=instance.seed)
            for name, relation in relations.items():
                engine.register(relation, name=name)
            result = engine.query(cq)
            assert result.plan == record, instance.label
            assert result.plan.algorithm == result.explain.chosen
            checked[min(len(cq.atoms), 3)] += 1
        assert checked[2] >= 20 and checked[3] >= 40
