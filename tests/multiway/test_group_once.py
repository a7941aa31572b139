"""Each (relation, key) is grouped once per query, by whichever step asks first.

GYM's width-1 bags are their input relations, so its semijoin steps read
the degree views the planner's statistics already built for them; a
reducer's key set is the key columns of its degree view
(``memo.distinct_project``); and set-semantics bags are deduplicated once,
as covers. A grouping pass is a ``memo.grouped`` or a ``Relation.distinct``
call. Every count here runs inline: a worker's calls are not visible to the
coordinator.
"""

import json
import sys
from collections import Counter

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.engine import Engine
from repro.exec.config import use_backend
from repro.kernels import memo
from repro.mpc.cluster import Cluster
from repro.multiway.gym import _materialize_bags, gym
from repro.query.cq import path_query
from repro.query.shape import shape
from repro.testing.oracle import oracle_join, same_bag
from tests.multiway import multiway_goldens as goldens

PATH4 = "R(x, y), S(y, z), T(z, w), U(w, v)"


@pytest.fixture(autouse=True)
def inline_cold():
    memo.clear_memo()
    with use_backend("inline"):
        yield
    memo.clear_memo()


@pytest.fixture
def groupings(monkeypatch):
    """Counts of ``memo.grouped`` (under every name a module imported it by)
    and ``Relation.distinct`` calls, and of the sorts (``np.unique``,
    ``np.argsort``) either runs."""
    calls = Counter()
    inside = [0]
    real_grouped, real_distinct = memo.grouped, Relation.distinct

    def grouping(kind, real):
        def counted(*args, **kwargs):
            calls[kind] += 1
            inside[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                inside[0] -= 1
        return counted

    def sorting(real):
        def counted(*args, **kwargs):
            calls["sorts"] += inside[0] > 0
            return real(*args, **kwargs)
        return counted

    grouped = grouping("grouped", real_grouped)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "grouped", None) is real_grouped:
            monkeypatch.setattr(module, "grouped", grouped)
    monkeypatch.setattr(Relation, "distinct", grouping("distinct", real_distinct))
    for name in ("unique", "argsort"):
        monkeypatch.setattr(np, name, sorting(getattr(np, name)))
    return calls


def path4_relations(n=600, seed=21):
    """R, S, T and U of ``n`` rows over a domain of 2n/3, as perfbench's ``path4``."""
    rng = np.random.default_rng(seed)
    domain = 2 * n // 3
    return {
        name: Relation.from_columns(name, attrs, [rng.integers(0, domain, n) for _ in attrs])
        for name, attrs in (("R", "xy"), ("S", "yz"), ("T", "zw"), ("U", "wv"))
    }


def test_a_cold_gym_path4_groups_each_relation_key_once(groupings):
    engine = Engine(8)
    relations = path4_relations()
    for rel in relations.values():
        engine.register(rel)
    memo.clear_memo()
    result = engine.query(PATH4, strategy="gym")
    # The parent ran 25: 19 groupings and 6 distinct key sets.
    assert groupings["distinct"] == 0
    assert groupings["grouped"] + groupings["distinct"] <= 18
    assert result.stats.num_rounds == 7
    assert same_bag(engine.oracle(PATH4).rows(), result.output.rows())


@pytest.mark.parametrize("strategy, query, passes", [
    ("hash", "R(x, y), S(y, z)", 3),
    ("gym", PATH4, 16),
])
def test_a_cold_query_over_narrow_int64_keys_counts_and_never_sorts(
    groupings, strategy, query, passes
):
    # Every key column spans 2n/3 values: each degree view, the joint
    # degrees, the OUT count and every key set is counted over its span, and
    # the OUT count groups an inner atom's rows by one key, not by every
    # variable it shares. The parent sorted 3 and 18 times, and grouped 3
    # and 18 times.
    engine = Engine(8)
    for rel in path4_relations().values():
        engine.register(rel)
    memo.clear_memo()
    result = engine.query(query, strategy=strategy)
    assert groupings["sorts"] == 0
    assert groupings["grouped"] + groupings["distinct"] == passes
    assert same_bag(engine.oracle(query).rows(), result.output.rows())


def test_a_width1_bag_is_its_input():
    query = path_query(4)
    relations = goldens.path_relations(4)
    ghd = shape(query).width1_ghd(query)
    working = _materialize_bags(query, relations, ghd, Cluster(8), 0, parallel=True)
    for node in ghd.nodes():
        (name,) = node.cover
        assert working[id(node)] is relations[name]


def test_a_key_set_is_the_key_columns_of_the_degree_view(groupings):
    rel = path4_relations()["S"]
    (keys,), _counts = memo.degree_view(rel, (1,))
    assert groupings["grouped"] == 1
    first = memo.distinct_project(rel, ("z",))
    assert groupings["grouped"] == 1  # no second grouping
    assert memo.distinct_project(rel, ("z",)) is first
    assert first.schema.attributes == ("z",)
    assert np.shares_memory(first.columns()[0], keys)
    assert sorted(first.column("z")) == sorted(set(rel.column("z")))


@pytest.mark.parametrize("variant", ["optimized", "vanilla"])
def test_set_semantics_bags_are_deduplicated_once(groupings, variant):
    # path_balanced_ghd(5) reuses atoms, so its bags run under set semantics;
    # every bag keeps every attribute of its covers' join.
    query, relations, ghd = goldens.gym_cases()["5-path-balanced"]
    run = gym(query, relations, 8, ghd=ghd, variant=variant, seed=3)
    assert run.details["set_semantics"]
    # One per cover; the parent also deduplicated every bag again: 16.
    assert groupings["distinct"] == 9
    assert set(run.output.rows()) == set(oracle_join(query, relations).rows())
    assert len(run.output) == len(set(run.output.rows()))
    golden = json.loads(goldens.GOLDEN.read_text())
    assert goldens._observed(run.output, run.stats) == golden[f"gym-{variant}/5-path-balanced/8"]
