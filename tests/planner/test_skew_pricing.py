"""Skewed multiway queries run the one-round plan that measures best.

Under skew HyperCube is priced where its own hash functions send the
heavy degrees, and SkewHC by the residual plan its run replays. On every
skewed query of three or more atoms — perfbench's ``skewtri`` sizes, x7's
power-law triangle and the statistics corpus — the planner's pick must
measure within 1.25x of the best strategy forced, and HyperCube's
measured load must lie within [0.8, 1.25] of its price.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import datagen
from repro.data.relation import Relation
from repro.kernels.memo import clear_memo
from repro.planner.optimizer import execute_strategy, plan_query
from repro.query.parser import parse_query
from tests.planner import statistics_goldens as corpus

SLACK = 1.25


def _skewtri(n, variant):
    """A ``cold_mix`` ``skewtri`` op's inputs, built as the statistics corpus builds them."""
    op = datagen.make_op("skewtri", n, variant, np.random.default_rng(11))
    relations = {name: Relation.from_columns(name, attrs, cols)
                 for name, (attrs, cols) in op.relations.items()}
    return datagen.query_text("skewtri"), relations, 8, 0, None


def _power_law_triangle():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
    try:
        x7 = importlib.import_module("bench_x7_planner")
    finally:
        sys.path.pop(0)
    (scenario,) = [s for s in x7.planner_scenarios() if s.name == "triangle_power_law"]
    return scenario.query, scenario.relations, scenario.p, scenario.seed, None


def _corpus_case(name, p):
    text, relations, sample = corpus.cases()[name]()
    return text, relations, p, 3, sample


def _check(query, relations, p, seed, sample):
    """The pick's measured L against every forced strategy's, and HyperCube's
    measured L against its price; returns the pick."""
    clear_memo()
    explain = plan_query(query, relations, p, sample=sample, seed=seed)
    assert len(query.atoms) >= 3 and explain.statistics.skewed
    # HyperCube runs on any query, so it is forced whatever the planner says.
    forced = {cand.strategy for cand in explain.candidates if cand.applicable} | {"hypercube"}
    measured = {
        strategy: execute_strategy(query, relations, p, strategy, seed=seed)[1].max_load
        for strategy in sorted(forced)
    }
    assert measured[explain.chosen] <= SLACK * min(measured.values()), (explain.chosen, measured)
    hypercube = explain.candidate("hypercube")
    assert hypercube.applicable
    if hypercube.predicted_load:
        assert 0.8 <= measured["hypercube"] / hypercube.predicted_load <= SLACK, measured
    else:
        assert measured["hypercube"] == 0
    clear_memo()
    return explain.chosen


INSTANCES = {f"skewtri-{n}": (lambda n=n, v=v: _skewtri(n, v))
             for v, n in enumerate((600, 800, 1000, 1400))}
INSTANCES["x7-triangle_power_law"] = _power_law_triangle


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_the_pick_measures_near_the_best_forced_plan(name):
    text, relations, p, seed, sample = INSTANCES[name]()
    assert _check(parse_query(text), relations, p, seed, sample) == "hypercube"


def test_every_skewed_multiway_corpus_instance():
    picks = {}
    for name in corpus.cases():
        for p in corpus.P_VALUES:
            text, relations, p, seed, sample = _corpus_case(name, p)
            query = parse_query(text)
            skewed = plan_query(query, relations, p, sample=sample, seed=seed).statistics.skewed
            if len(query.atoms) >= 3 and skewed:
                picks[f"{name}/{p}"] = _check(query, relations, p, seed, sample)
    assert len(picks) >= 8 and {"hypercube", "skewhc"} <= set(picks.values()), picks
