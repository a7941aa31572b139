"""Unit tests for the cost-based adaptive planner."""

import pytest

from repro.data.generators import (
    single_value_relation,
    skewed_relation,
    uniform_relation,
)
from repro.data.graphs import random_edges, triangle_relations
from repro.data.relation import Relation
from repro.errors import QueryError
from repro.planner.optimizer import (
    STRATEGIES,
    CandidatePlan,
    execute_strategy,
    plan_and_execute,
    plan_query,
)
from repro.query.parser import parse_query


def _two_way_uniform(n=600, domain=80):
    return {
        "R": uniform_relation("R", ("x", "y"), n, domain, seed=1),
        "S": uniform_relation("S", ("y", "z"), n, domain, seed=2),
    }


def _triangle(n=400, nodes=60, seed=5):
    r, s, t = triangle_relations(random_edges(n, nodes, seed=seed))
    return {"R": r, "S": s, "T": t}


class TestEnumeration:
    def test_every_strategy_appears_exactly_once(self):
        explain = plan_query("R(x, y), S(y, z)", _two_way_uniform(), p=8)
        names = [c.strategy for c in explain.candidates]
        assert names == list(STRATEGIES[1:])  # scan only for single atoms
        assert explain.chosen in names
        assert explain.candidate(explain.chosen).applicable

    def test_single_atom_is_scan(self):
        rel = uniform_relation("R", ("x", "y"), 50, 10, seed=3)
        explain = plan_query("R(x, y)", {"R": rel}, p=4)
        assert explain.chosen == "scan"
        assert [c.strategy for c in explain.candidates] == ["scan"]

    def test_unknown_candidate_lookup_raises(self):
        explain = plan_query("R(x, y), S(y, z)", _two_way_uniform(), p=8)
        with pytest.raises(KeyError):
            explain.candidate("nonsense")

    def test_empty_query_raises(self):
        # ConjunctiveQuery itself refuses zero atoms, so the planner's
        # own guard is a backstop; either way planning nothing is a
        # QueryError, never a silent empty plan.
        with pytest.raises(QueryError):
            plan_query(parse_query("R(x, y)").__class__([]), {}, p=4)

    def test_nonpositive_p_raises(self):
        with pytest.raises(QueryError):
            plan_query("R(x, y), S(y, z)", _two_way_uniform(), p=0)


class TestApplicability:
    def test_shared_variable_join_marks_cartesian_inapplicable(self):
        explain = plan_query("R(x, y), S(y, z)", _two_way_uniform(), p=8)
        cartesian = explain.candidate("cartesian")
        assert not cartesian.applicable
        assert "share variables" in cartesian.reason
        assert cartesian.predicted_load is None
        assert cartesian.envelope is None

    def test_disjoint_pair_marks_hash_family_inapplicable(self):
        rels = {
            "R": uniform_relation("R", ("a", "b"), 40, 10, seed=1),
            "S": uniform_relation("S", ("c", "d"), 40, 10, seed=2),
        }
        explain = plan_query("R(a, b), S(c, d)", rels, p=4)
        for name in ("broadcast", "hash", "skew"):
            assert not explain.candidate(name).applicable
        assert explain.candidate("cartesian").applicable

    def test_cyclic_query_marks_ghd_family_inapplicable(self):
        explain = plan_query("R(x, y), S(y, z), T(z, x)", _triangle(), p=8)
        for name in ("gym", "semijoin"):
            cand = explain.candidate(name)
            assert not cand.applicable and "cyclic" in cand.reason
        assert not explain.acyclic

    def test_skew_voids_hypercube_guarantee(self):
        # Skew voids HyperCube's guarantee, not its candidacy: it is priced
        # where its hash functions send the one value's rows, and the skew
        # join that still wins measures lower.
        rels = {
            "R": single_value_relation("R", ["x", "y"], 100, "y"),
            "S": single_value_relation("S", ["y", "z"], 100, "y"),
        }
        explain = plan_query("R(x, y), S(y, z)", rels, p=8)
        assert explain.statistics.skewed
        hypercube = explain.candidate("hypercube")
        assert hypercube.applicable and hypercube.predicted_load == 200.0
        assert explain.chosen == "skew"
        loads = {s: execute_strategy("R(x, y), S(y, z)", rels, 8, s)[1].max_load
                 for s in ("skew", "hypercube")}
        assert loads["skew"] < loads["hypercube"] == 200


class TestCanonicalChoices:
    def test_uniform_two_way_picks_hash(self):
        explain = plan_query("R(x, y), S(y, z)", _two_way_uniform(), p=8)
        assert explain.chosen == "hash"

    def test_tiny_side_picks_broadcast(self):
        rels = {
            "R": uniform_relation("R", ("x", "y"), 2000, 100, seed=1),
            "S": uniform_relation("S", ("y", "z"), 8, 100, seed=2),
        }
        assert plan_query("R(x, y), S(y, z)", rels, p=8).chosen == "broadcast"

    def test_single_value_join_picks_skew(self):
        rels = {
            "R": single_value_relation("R", ["x", "y"], 150, "y"),
            "S": single_value_relation("S", ["y", "z"], 150, "y"),
        }
        assert plan_query("R(x, y), S(y, z)", rels, p=8).chosen == "skew"

    def test_disjoint_pair_picks_cartesian(self):
        rels = {
            "R": uniform_relation("R", ("a", "b"), 60, 30, seed=1),
            "S": uniform_relation("S", ("c", "d"), 60, 30, seed=2),
        }
        assert plan_query("R(a, b), S(c, d)", rels, p=4).chosen == "cartesian"

    def test_uniform_triangle_picks_hypercube(self):
        explain = plan_query("R(x, y), S(y, z), T(z, x)", _triangle(), p=8)
        assert explain.chosen == "hypercube"

    def test_skewed_triangle_picks_skewhc(self):
        # HyperCube is priced where its hash functions send the heavy
        # values, SkewHC by its own plan: here HyperCube prices and
        # measures lower.
        r = skewed_relation("R", ["x", "y"], 500, "y", universe=60, s=1.4, seed=3)
        s = skewed_relation("S", ["y", "z"], 500, "y", universe=60, s=1.4, seed=4)
        t = uniform_relation("T", ("z", "x"), 500, 60, seed=5)
        query, rels = "R(x, y), S(y, z), T(z, x)", {"R": r, "S": s, "T": t}
        explain = plan_query(query, rels, p=8)
        assert explain.statistics.skewed
        assert explain.chosen == "hypercube"
        loads = {s: execute_strategy(query, rels, 8, s)[1].max_load for s in ("hypercube", "skewhc")}
        assert loads["hypercube"] < loads["skewhc"]

    def test_chosen_minimizes_predicted_load(self):
        explain = plan_query("R(x, y), S(y, z)", _two_way_uniform(), p=8)
        chosen = explain.chosen_plan
        for cand in explain.candidates:
            if cand.applicable:
                assert chosen.predicted_load <= cand.predicted_load


class TestExecuteStrategy:
    def test_every_applicable_strategy_matches_oracle(self):
        cq = parse_query("R(x, y), S(y, z)")
        rels = _two_way_uniform(n=200, domain=30)
        expected = sorted(cq.evaluate(rels).rows())
        explain = plan_query(cq, rels, p=8)
        for cand in explain.candidates:
            if not cand.applicable:
                continue
            output, stats = execute_strategy(cq, rels, 8, cand.strategy)
            assert sorted(output.rows()) == expected, cand.strategy
            assert stats.num_rounds >= 1

    def test_unknown_strategy_raises(self):
        with pytest.raises(QueryError):
            execute_strategy("R(x, y), S(y, z)", _two_way_uniform(), 4, "magic")

    def test_shape_inapplicable_raises(self):
        rels = _two_way_uniform()
        with pytest.raises(QueryError):
            execute_strategy("R(x, y), S(y, z)", rels, 4, "cartesian")
        with pytest.raises(QueryError):
            execute_strategy("R(x, y), S(y, z)", rels, 4, "scan")
        with pytest.raises(QueryError):
            execute_strategy("R(x, y), S(y, z), T(z, x)", _triangle(), 4, "hash")
        with pytest.raises(QueryError):
            execute_strategy("R(x, y), S(y, z), T(z, x)", _triangle(), 4, "gym")

    def test_guarantee_inapplicable_still_runs(self):
        # HyperCube on skewed data loses its load guarantee but must
        # still execute correctly when forced.
        rels = {
            "R": single_value_relation("R", ["x", "y"], 60, "y"),
            "S": single_value_relation("S", ["y", "z"], 60, "y"),
        }
        cq = parse_query("R(x, y), S(y, z)")
        output, _ = execute_strategy(cq, rels, 8, "hypercube")
        assert sorted(output.rows()) == sorted(cq.evaluate(rels).rows())

    def test_no_identity_projection_of_an_engine_output(self, monkeypatch):
        """An output that already is OUT in variable order is returned as is."""
        from repro.engine import Engine

        unchanged = []
        project = Relation.project

        def spy(self, attributes, name=None):
            if (tuple(attributes) == self.schema.attributes
                    and (name or self.name) == self.name):
                unchanged.append(self.name)
            return project(self, attributes, name=name)

        monkeypatch.setattr(Relation, "project", spy)
        engine = Engine(8)
        for relation in (*_two_way_uniform(200, 30).values(), _triangle()["T"]):
            engine.register(relation)
        for text in ("R(x, y), S(y, z)", "R(x, y), S(y, z), T(z, x)"):
            result = engine.query(text)
            assert result.output.name == "OUT"
            assert result.output.schema.attributes == parse_query(text).variables
        assert unchanged == []

    def test_every_output_is_out_in_variable_order(self):
        """Also for ``scan`` and for relations stored in a permuted order."""
        rels = {
            "R": uniform_relation("R", ("y", "x"), 120, 20, seed=1),
            "S": uniform_relation("S", ("z", "y"), 120, 20, seed=2),
            "T": uniform_relation("T", ("x", "z"), 120, 20, seed=3),
            "U": uniform_relation("U", ("w", "v"), 30, 20, seed=4),
        }
        queries = {
            "R(x, y)": ("scan",),
            "R(x, y), S(y, z)": (
                "broadcast", "hash", "skew", "hypercube", "skewhc", "gym", "semijoin",
            ),
            "R(x, y), U(v, w)": ("cartesian",),
            "R(x, y), S(y, z), T(z, x)": ("hypercube", "skewhc"),
        }
        for text, strategies in queries.items():
            cq = parse_query(text)
            for strategy in strategies:
                output, _ = execute_strategy(cq, rels, 4, strategy)
                assert output.name == "OUT", (text, strategy)
                assert output.schema.attributes == cq.variables, (text, strategy)
                assert sorted(output.rows()) == sorted(cq.evaluate(rels).rows())

    def test_scan_output_never_aliases_the_input(self):
        out = Relation("OUT", ["x", "y"], [(1, 2), (3, 4)])
        output, _ = execute_strategy("OUT(x, y)", {"OUT": out}, 4, "scan")
        assert output is not out
        assert output.rows() == out.rows()

    def test_plan_and_execute_auto_equals_forced(self):
        cq = parse_query("R(x, y), S(y, z)")
        rels = _two_way_uniform(n=300, domain=40)
        explain, executed, output, stats = plan_and_execute(cq, rels, 8)
        assert executed == explain.chosen
        forced_output, forced_stats = execute_strategy(
            cq, rels, 8, explain.chosen
        )
        assert output.rows() == forced_output.rows()
        assert stats.max_load == forced_stats.max_load


class TestExplainResult:
    def test_trace_contents(self):
        explain = plan_query("R(x, y), S(y, z)", _two_way_uniform(), p=8)
        text = explain.describe()
        assert "adaptive plan for R(x, y) ⋈ S(y, z)" in text
        assert "p=8" in text and "tau*=" in text and "lower bound" in text
        assert "<- chosen" in text
        for cand in explain.candidates:
            assert cand.strategy in text
        assert text.splitlines() == list(explain.trace)

    def test_lower_bound_below_chosen_prediction(self):
        explain = plan_query("R(x, y), S(y, z)", _two_way_uniform(), p=8)
        assert 0 < explain.lower_bound <= explain.chosen_plan.predicted_load

    def test_envelope_arithmetic(self):
        cand = CandidatePlan("hash", True, 100.0, 1, 4.0, 10.0)
        assert cand.envelope == 410.0
        assert cand.within_envelope(410.0)
        assert not cand.within_envelope(410.5)
