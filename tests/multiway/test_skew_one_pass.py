"""Skew in one pass: same bytes as the per-value code it replaced.

SkewHC classifies each atom once and runs every residual on disjoint
pools of one cluster; the heavy products of ``skew_join`` / ``sort_join``
are index arithmetic. Neither may move a destination, a ``received``
list or an output row:

- goldens captured **at the parent commit** (``skew_goldens.py``) pin
  per-round ``received``, ``details["jobs"]`` and the outputs;
- on random skewed instances — every holding and value kind — the output
  bag is ``query.evaluate``'s and the loads are those of the moved
  per-value bodies (:mod:`repro.testing.skew_reference`);
- the same under faults, audit and the process backend, and a warm
  repeat rebuilds nothing.
"""

import json
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.exec.config import use_backend
from repro.joins.heavy import heavy_value_products
from repro.joins.skew_join import find_heavy_keys, skew_join
from repro.joins.sort_join import sort_join
from repro.kernels import memo, partition
from repro.mpc.audit import audited
from repro.mpc.cluster import Cluster, RoundContext
from repro.mpc.faults import CrashFault, FaultPlan, faulty
from repro.mpc.server import ChunkedColumns
from repro.multiway import skewhc
from repro.multiway.skewhc import skewhc_join
from repro.query.cq import path_query, star_query, triangle_query, two_way_join
from repro.testing.oracle import oracle_join
from repro.testing.skew_reference import reference_heavy_products, reference_skewhc
from tests.holdings import (
    P_VALUES, assert_one_answer, hold, holdings, per_server, scalar_rung, variants,
)
from tests.multiway import skew_goldens as goldens

GOLDEN = json.loads(goldens.GOLDEN.read_text())


def _received(stats):
    return [(rd.label, rd.received) for rd in stats.rounds]


# ------------------------------------------------------------------ goldens


@pytest.mark.parametrize("name", sorted(goldens.skewhc_cases()))
def test_skewhc_matches_the_parent_commit(name):
    query, case = goldens.skewhc_cases()[name]
    for p in goldens.P_VALUES:
        for seed in goldens.SEEDS:
            got = goldens.observe_skewhc(query, case, p, seed)
            assert got == GOLDEN[f"skewhc/{name}/{p}/{seed}"], (p, seed)


@pytest.mark.parametrize("name", sorted(goldens.two_way_cases()))
@pytest.mark.parametrize("label, algorithm", [("skew_join", skew_join), ("sort_join", sort_join)])
def test_heavy_products_match_the_parent_commit(label, algorithm, name):
    case = goldens.two_way_cases()[name]
    for p in goldens.P_VALUES:
        for seed in goldens.SEEDS:
            got = goldens.observe_two_way(algorithm, case, p, seed)
            assert got == GOLDEN[f"{label}/{name}/{p}/{seed}"], (p, seed)


def test_the_goldens_reach_every_heavy_branch():
    labels = Counter(
        label for key, seen in GOLDEN.items() if key.startswith("skew_join/")
        for joined, _ in seen["received"] for label in joined.split("+")
    )
    assert {"hash-shuffle", "cartesian-replicate", "heavy-packed", "heavy-degenerate"} <= set(labels)
    pools = [len(seen["received"][0][1]) for key, seen in GOLDEN.items()
             if key.startswith("skewhc/") and seen["received"]]
    assert max(pools) > 27 and any(seen["jobs"] > 20 for seen in GOLDEN.values() if "jobs" in seen)


# ------------------------------------------------ random instances, all holdings

QUERIES = {
    "triangle": triangle_query(), "two-way": two_way_join(),
    "star": star_query(3), "path": path_query(3),
}
KINDS = {
    "int": lambda v: v,
    "string": lambda v: f"k{v}",
    # 0/1 collapse onto False/True: few values, most of them heavy.
    "bool": lambda v: v % 2 == 0 if v < 2 else v,
}


@st.composite
def skewed_instances(draw):
    """A query with small, skewed, duplicate-bearing relations."""
    name = draw(st.sampled_from(sorted(QUERIES)))
    values = st.one_of(st.just(0), st.just(1), st.integers(0, 6))   # 0 and 1 are hubs
    case = {}
    for atom in QUERIES[name].atoms:
        rows = draw(st.lists(st.tuples(*[values] * atom.arity), min_size=1, max_size=24))
        case[atom.name] = (list(atom.variables), rows)
    return name, case


def _held(case, how, kind):
    change = KINDS[kind]
    return {
        name: hold(name, attrs, [tuple(change(v) for v in row) for row in rows], how)
        for name, (attrs, rows) in case.items()
    }


@settings(max_examples=60, deadline=None)
@given(
    instance=skewed_instances(), p=st.sampled_from([1, 2, 3, 5, 8]), seed=st.integers(0, 3),
    how=st.sampled_from(["columns", "rows", "borrowed"]), kind=st.sampled_from(sorted(KINDS)),
    threshold=st.sampled_from([None, 2, 3]),
)
def test_skewhc_is_the_per_value_reference(instance, p, seed, how, kind, threshold):
    name, case = instance
    query = QUERIES[name]
    how = "rows" if how == "columns" and kind != "int" else how
    run = skewhc_join(query, _held(case, how, kind), p, seed=seed, threshold=threshold)
    plain = _held(case, "rows", kind)
    want = Counter(query.evaluate(plain).rows_readonly())
    assert Counter(run.output.rows_readonly()) == want
    rows, stats, jobs = reference_skewhc(query, plain, p, seed=seed, threshold=threshold)
    assert Counter(rows) == want
    assert _received(run.stats) == _received(stats)
    assert run.details["jobs"] == jobs and sum(run.details["allocation"]) == len(
        run.stats.rounds[0].received if run.stats.rounds else []
    )
    # Types survive: a bool stays a bool, a string a string.
    assert Counter(map(type, (v for row in run.output.rows_readonly() for v in row))) == \
        Counter(map(type, (v for row in want.elements() for v in row)))
    if kind == "int":
        assert all(column.dtype.kind in "iu" for column in run.output.columns())
    with scalar_rung():
        scalar = skewhc_join(query, plain, p, seed=seed, threshold=threshold)
    assert scalar.output.rows_readonly() == run.output.rows_readonly()
    assert _received(scalar.stats) == _received(run.stats)


@st.composite
def two_way_instances(draw):
    unary = draw(st.booleans())
    keys = st.one_of(st.just(0), st.integers(0, 4))
    r = draw(st.lists(st.tuples(st.integers(0, 9), keys), min_size=1, max_size=40))
    s = draw(st.lists(st.tuples(keys) if unary else st.tuples(keys, st.integers(-5, 5)),
                      min_size=1, max_size=40))
    return {"R": (["x", "y"], r), "S": (["y"] if unary else ["y", "z"], s)}


@settings(max_examples=60, deadline=None)
@given(
    case=two_way_instances(), p=st.sampled_from([1, 2, 3, 5, 8, 13]), seed=st.integers(0, 3),
    how=st.sampled_from(["columns", "rows", "borrowed"]), kind=st.sampled_from(sorted(KINDS)),
    threshold=st.sampled_from([1, 2, 4]),
)
def test_heavy_products_are_the_per_tuple_reference(case, p, seed, how, kind, threshold):
    how = "rows" if how == "columns" and kind != "int" else how
    held, plain = _held(case, how, kind), _held(case, "rows", kind)
    heavy_keys = find_heavy_keys(plain["R"], plain["S"], ("y",), threshold)
    got, stats = heavy_value_products(held["R"], held["S"], ("y",), heavy_keys, p, seed=seed)
    rows, reference_stats = reference_heavy_products(
        plain["R"], plain["S"], ("y",), heavy_keys, p, seed=seed
    )
    assert got.rows_readonly() == rows                     # row for row, in order
    assert [type(v) for row in got.rows_readonly() for v in row] == \
        [type(v) for row in rows for v in row]
    assert _received(stats) == _received(reference_stats)
    assert stats.p == p
    if kind == "int":
        assert all(column.dtype.kind in "iu" for column in got.columns())
    # ... and the whole join is the local join's bag, on every rung.
    want = Counter(plain["R"].join(plain["S"]).rows_readonly())
    for rung in (nullcontext, scalar_rung):
        with rung():
            run = skew_join(held["R"], held["S"], p, seed=seed)
        assert Counter(run.output.rows_readonly()) == want


def test_duplicates_and_vanished_atoms_keep_their_multiplicities():
    # x = 1, y = 0 and z = 5 are all heavy: S vanishes from the (x, y, z)
    # residual and its three copies of (0, 5) multiply the one R row.
    query = two_way_join()
    relations = {
        "R": Relation("R", ["x", "y"], [(1, 0), (1, 0), (2, 7)]),
        "S": Relation("S", ["y", "z"], [(0, 5)] * 3 + [(7, 9)]),
    }
    run = skewhc_join(query, relations, p=4, threshold=2)
    assert Counter(run.output.rows_readonly()) == Counter({(1, 0, 5): 6, (2, 7, 9): 1})
    assert ("x", "y", "z") in run.details["patterns"]
    assert run.details["allocation"][-1] == 0      # fully bound: no server


# ------------------------------------------------ faults, audit, process backend


def _skewed_triangle(how="columns"):
    query, case = goldens.skewhc_cases()["triangle"]
    return query, {n: hold(n, attrs, rows, how) for n, (attrs, rows) in case.items()}


def test_one_server_pools_route_without_a_hash_or_a_sort(monkeypatch):
    """At p = 8 every residual of the skewed triangle sits on a pool of one
    server, so its route is the identity: no hash kernel and no
    source-major argsort run, and the server receives the restriction's
    own columns, every row in order. The run is still the golden's and the
    per-tuple reference's: output, received lists, L, r and C."""
    memo.clear_memo()
    query, case = goldens.skewhc_cases()["triangle"]
    relations = {n: hold(n, attrs, rows, "columns") for n, (attrs, rows) in case.items()}
    calls = Counter()
    for name in ("bucket_value_column", "bucket_tuple_columns", "source_major_order"):
        def counted(*args, _name=name, _real=getattr(partition, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(partition, name, counted)
    sent: dict = {}
    real_send = RoundContext.send_columns

    def send(self, dest, fragment, columns, units=1):
        sent.setdefault((dest, fragment), []).append(list(columns))
        real_send(self, dest, fragment, columns, units)

    monkeypatch.setattr(RoundContext, "send_columns", send)
    run = skewhc_join(query, relations, p=8, seed=1)
    assert run.details["jobs"] > 8 and set(run.details["allocation"]) == {0, 1}
    assert calls == Counter() and run.stats.memo.hash_ops == 0
    _, _, routes = skewhc._plan(query, relations, 8, run.details["threshold"], 100_000)
    for atom in query.atoms:
        for _name, part, base, size, *_grid in routes[atom.name]:
            assert size == 1
            (blocks,) = sent[base, f"{atom.name}@hc"]
            assert len(blocks) == len(part.columns())
            assert all(block is column for block, column in zip(blocks, part.columns()))
    rows, stats, jobs = reference_skewhc(query, relations, 8, seed=1)
    assert Counter(run.output.rows_readonly()) == Counter(rows) and run.details["jobs"] == jobs
    assert _received(run.stats) == _received(stats)
    assert (run.stats.max_load, run.stats.num_rounds, run.stats.total_communication) == \
        (stats.max_load, stats.num_rounds, stats.total_communication)
    monkeypatch.undo()
    assert goldens.observe_skewhc(query, case, 8, 1) == GOLDEN["skewhc/triangle/8/1"]
    memo.clear_memo()


def test_under_faults_and_audit_nothing_is_lost():
    query, relations = _skewed_triangle()
    want = Counter(query.evaluate(relations).rows_readonly())
    clean = skewhc_join(query, relations, p=8, seed=1)
    plan = FaultPlan(crashes=(CrashFault(round=0, server=2),), scatter_crashes=(1,))
    with faulty(plan), audited():
        run = skewhc_join(query, relations, p=8, seed=1)
    assert Counter(run.output.rows_readonly()) == want
    assert _received(run.stats) == _received(clean.stats)
    assert run.stats.faults.crashes == 1 and not run.stats.faults.unrecovered
    assert run.stats.audit.ok and run.stats.audit.rounds_audited == 1
    r, s = (hold(n, *goldens.two_way_cases()["mixed"][i], "columns") for i, n in enumerate("RS"))
    with faulty(plan), audited():
        joined = skew_join(r, s, 8, seed=1)
    assert Counter(joined.output.rows_readonly()) == Counter(r.join(s).rows_readonly())
    assert joined.stats.audit.ok and not joined.stats.faults.unrecovered
    assert _received(joined.stats) == _received(skew_join(r, s, 8, seed=1).stats)


def test_one_run_is_one_message_per_worker():
    query, relations = _skewed_triangle()
    inline = skewhc_join(query, relations, p=8, seed=2)
    with use_backend("process", workers=2):
        run = skewhc_join(query, relations, p=8, seed=2)
    assert run.details["jobs"] > 8
    assert run.stats.exec.queue_messages <= 2
    assert run.output.rows_readonly() == inline.output.rows_readonly()
    assert _received(run.stats) == _received(inline.stats)
    assert all(column.dtype == np.int64 for column in run.output.columns())


# ----------------------------------------------------------- what a repeat rebuilds


def test_a_warm_repeat_builds_nothing_and_a_mutation_only_its_own_view(monkeypatch):
    memo.clear_memo()
    query, relations = _skewed_triangle()
    built = {"plans": 0, "views": [], "clusters": 0}
    real_plan, real_init = memo._build_plan, Cluster.__init__

    def counting_plan(*args, **kwargs):
        built["plans"] += 1
        return real_plan(*args, **kwargs)

    real_classify = skewhc._classify

    def counting_classify(rel, atom, values):
        built["views"].append(atom.name)
        return real_classify(rel, atom, values)

    def counting_init(self, *args, **kwargs):
        built["clusters"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(memo, "_build_plan", counting_plan)
    monkeypatch.setattr(skewhc, "_classify", counting_classify)
    monkeypatch.setattr(Cluster, "__init__", counting_init)

    cold = skewhc_join(query, relations, p=8, seed=3)
    assert built["clusters"] == 1 and sorted(built["views"]) == ["R", "S", "T"]
    assert built["plans"] > 0                             # a partition per restriction ...
    assert cold.stats.memo.partition_misses == 3          # one plan per atom
    plans, views = memo.memo_cache_sizes()
    built.update(plans=0, views=[], clusters=0)

    warm = skewhc_join(query, relations, p=8, seed=3)
    assert built == {"plans": 0, "views": [], "clusters": 1}
    assert warm.stats.memo.partition_hits == 3 and warm.stats.memo.view_hits == 1
    assert memo.memo_cache_sizes() == (plans, views)
    assert warm.output.rows_readonly() == cold.output.rows_readonly()

    relations["S"].add((0, 0))                            # a new token for S alone
    built.update(plans=0, views=[], clusters=0)
    again = skewhc_join(query, relations, p=8, seed=3)
    assert built["views"] == ["S"] and built["clusters"] == 1
    assert Counter(again.output.rows_readonly()) == \
        Counter(query.evaluate(relations).rows_readonly())


# ------------------------------------------- one answer, three ways to hold it

# 0 is a hub of every column (heavy from p = 3 up); the tails stay light.
TRIANGLE = {
    "R": (["x", "y"], [(i % 4 and 1 + i % 29, i % 3 and 1 + (i * 7) % 31) for i in range(60)]),
    "S": (["y", "z"], [(i % 3 and 1 + (i * 5) % 31, i % 5 and 1 + i % 23) for i in range(60)]),
    "T": (["z", "x"], [(i % 4 and 1 + (i * 3) % 23, i % 3 and 1 + (i * 11) % 29) for i in range(60)]),
}
TRIANGLE_KINDS = variants(TRIANGLE, ["x", "y", "z"], ("T", "x"))


def _skewhc(relations, p):
    run = skewhc_join(triangle_query(), relations, p, seed=2)
    return run.output, run.stats


@pytest.mark.parametrize("kind, p", [
    (kind, p)
    for kind in ("int", "string-keyed", "bool-payload", "uint64-key", "mixed-numeric")
    for p in P_VALUES
])
def test_skewhc_one_answer_three_ways_to_hold_it(kind, p):
    memo.clear_memo()
    results = assert_one_answer(
        _skewhc, TRIANGLE_KINDS[kind], p, lambda relations: oracle_join(triangle_query(), relations)
    )
    for how, (output, stats) in results.items():
        columns = output.columns()
        assert len(output) > 0 and not any(column.flags.writeable for column in columns), how
        if kind == "int":
            assert all(column.dtype == np.int64 for column in columns), how
            assert all(type(v) is int for row in output.rows_readonly() for v in row)
            assert (len(stats.pools) > 1) == (p > 1), how       # the hubs are peeled
        elif kind == "string-keyed":
            # A value numpy cannot hold exactly rides an object column.
            # (T's bools only ever meet R's equal ints, whose x the output
            # carries.)
            assert all(column.dtype == object for column in columns), how


def test_an_empty_atom_leaves_no_residual_and_no_cluster():
    for how, relations in holdings(TRIANGLE_KINDS["empty-side"]).items():
        run = skewhc_join(triangle_query(), relations, 8)
        assert len(run.output) == 0 and not run.stats.rounds, how
        assert run.details["jobs"] == 0 and run.details["allocation"] == [], how


# ------------------------------------------------------- the cliff, counted


def test_details_trace_and_explain_count_the_pools():
    from repro.mpc.trace import trace
    from repro.planner.optimizer import plan_query

    query, relations = _skewed_triangle()
    run = skewhc_join(query, relations, p=8, seed=0)
    allocation = run.details["allocation"]
    assert len(allocation) == run.details["jobs"] == 14
    assert sum(allocation) == len(run.stats.rounds[0].received) == 12 > 8
    assert run.details["patterns"][0] == () and len(run.details["patterns"]) > 1
    assert run.stats.pools == allocation
    assert "pools: 14 residuals on 12 pool servers of p=8 (12 single-server)" in trace(run.stats)
    line = next(
        text for text in plan_query(query, relations, p=8).trace if text.lstrip().startswith("skewhc")
    )
    assert "residuals on one-server pools of p=8" in line


def test_a_result_that_views_its_input_survives_the_worker():
    # A one-atom residual's eval is a projection — views of its payload's
    # arrays. The worker used to release the input segment before encoding
    # the result, and every such residual came back as zeros.
    from repro.query.cq import Atom, ConjunctiveQuery

    query = ConjunctiveQuery([Atom("R", ["a"])])
    with use_backend("process", workers=2):
        cluster = Cluster(3)
        for i, server in enumerate(cluster.servers):
            server.put("R@hc", ChunkedColumns([[np.array([8 + i, 6])]]))
        table = cluster.compute("hypercube.eval", [("R@hc", 1)], query)
    assert [columns[0].tolist() for columns in per_server(table)] == [[8, 6], [9, 6], [10, 6]]
