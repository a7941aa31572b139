"""Memo entries die with their owner (:mod:`repro.kernels.memo`).

Plans and views hold the relations they derive from weakly: an entry
disappears when its owner is collected — and not before — so a
throwaway intermediate stops pushing live plans out of the LRU, while a
recycled ``id()`` can still never hit (lookups compare identities).
"""

import gc
import pickle
import threading
import weakref
from collections import Counter

import numpy as np

from repro.data.relation import Relation
from repro.kernels import memo
from repro.kernels.columnar import column_of, columns_of, key_columns
from repro.kernels.memo import (
    clear_memo,
    degree_view,
    forget,
    memo_cache_sizes,
    project_view,
    route,
)
from repro.kernels.partition import try_route
from repro.mpc.cluster import Cluster
from repro.mpc.stats import MemoStats
from tests.holdings import degree_counter


def _relation(n=30, name="R"):
    return Relation.from_columns(name, ["x", "y"], [np.arange(n) % 7, np.arange(n)])


def _route(rel, p=4):
    cluster = Cluster(p)
    frag = cluster.scatter(rel, "R@in")
    with cluster.round("route") as rnd:
        route(cluster, rnd, frag, (0,), cluster.hash_function(0), "out", rel=rel)
    return cluster.stats.memo


def test_entries_disappear_when_the_owner_is_collected_and_not_before():
    clear_memo()
    kept, gone = _relation(name="K"), _relation(name="G")
    for rel in (kept, gone):
        _route(rel)
        degree_view(rel, (0,))
        project_view(rel, ("y", "x"))
    assert memo_cache_sizes() == (2, 4)
    gc.collect()
    assert memo_cache_sizes() == (2, 4)          # alive: nothing is dropped
    assert _route(gone).partition_hits == 1
    del gone, rel
    gc.collect()
    assert memo_cache_sizes() == (1, 2)          # its plan and both views went
    assert _route(kept).partition_hits == 1      # the survivor's are intact
    stats = MemoStats()
    assert degree_counter(degree_view(kept, (0,), stats=stats)) == Counter(
        {(v,): c for v, c in Counter((np.arange(30) % 7).tolist()).items()})
    assert (stats.view_hits, stats.view_misses) == (1, 0)
    clear_memo()


def test_a_dead_owner_is_purged_by_the_next_put_not_by_the_collector():
    clear_memo()
    live, doomed = _relation(name="L"), _relation(name="D")
    degree_view(doomed, (0,))
    del doomed
    gc.collect()
    assert len(memo._views) == 1                 # queued, not yet purged
    degree_view(live, (0,))                      # a put: purge first
    assert len(memo._views) == 1 and memo_cache_sizes() == (0, 1)
    assert forget(live) == 1
    clear_memo()


def test_a_recycled_id_can_never_hit():
    clear_memo()
    rel = _relation()
    token = rel.mutation_token()
    key = ((id(rel),), (token,), "project", ("y", "x"), None)
    dead = weakref.ref(_relation(name="was-here"))   # collected at once
    assert dead() is None
    memo._views.put(key, ((dead,), (token,), "a stale view under a recycled id"))
    fresh = project_view(rel, ("y", "x"))
    assert isinstance(fresh, Relation) and fresh.attributes == ("y", "x")
    assert project_view(rel, ("y", "x")) is fresh
    clear_memo()


def test_forget_and_clear_memo_keep_their_meaning():
    clear_memo()
    a, b = _relation(name="A"), _relation(name="B")
    for rel in (a, b):
        _route(rel)
        degree_view(rel, (1,))
    assert forget(a) == 2 and memo_cache_sizes() == (1, 1)
    assert forget(a) == 0
    clear_memo()
    assert memo_cache_sizes() == (0, 0)
    assert _route(b).partition_misses == 1


def test_every_lookup_is_a_hit_or_a_miss():
    clear_memo()
    before = [cache.counters()[:2] for cache in (memo._plans, memo._views)]
    lookups = 0
    relations = [_relation(n, name=f"R{n}") for n in (10, 20, 30)]
    for _ in range(3):
        for rel in relations:
            degree_view(rel, (0,))
            project_view(rel, ("y", "x"))
            lookups += 2
        relations.pop()                           # an owner dies mid-way
        relations.append(_relation(40 + len(relations)))
        gc.collect()
    after = [cache.counters()[:2] for cache in (memo._plans, memo._views)]
    assert sum(after[1]) - sum(before[1]) == lookups
    assert after[0] == before[0]
    clear_memo()


def test_two_threads_build_while_a_third_drops_its_relations():
    clear_memo()
    shared = [_relation(50, name=f"S{i}") for i in range(4)]
    expected = [Counter((v,) for v in (np.arange(50) % 7).tolist())] * 4
    errors = []
    start = threading.Barrier(3)

    def builder():
        try:
            start.wait(timeout=10)
            for _ in range(150):
                for rel, want in zip(shared, expected):
                    assert degree_counter(degree_view(rel, (0,))) == want
                    assert project_view(rel, ("y", "x")).attributes == ("y", "x")
        except BaseException as exc:  # noqa: BLE001 - the assertion target
            errors.append(exc)

    def dropper():
        try:
            start.wait(timeout=10)
            for n in range(300):
                rel = _relation(5 + n % 9, name="tmp")
                degree_view(rel, (0,))
                del rel
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=t) for t in (builder, builder, dropper)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors and not any(t.is_alive() for t in threads)
    gc.collect()
    # Only the four shared relations still own entries.
    assert memo_cache_sizes() == (0, 8)
    for cache in (memo._plans, memo._views):
        hits, misses, _evictions, _dropped, size = cache.counters()
        assert size == len(cache.keys()) <= cache.capacity
    clear_memo()


def test_a_relation_with_memo_entries_still_pickles():
    clear_memo()
    rel = _relation()
    degree_view(rel, (0,))
    twin = pickle.loads(pickle.dumps(rel))
    assert twin.rows_readonly() == rel.rows_readonly()
    assert not any(column.flags.writeable for column in twin.columns())
    clear_memo()


class TestColumnsThatStandInForRows:
    """Every value rides a column by the one rule, so ``tolist()`` rebuilds
    the very tuples: plain ints as ``int64``/``uint64``, anything else —
    ``bool`` and numpy scalars included — as an ``object`` column that
    holds the values themselves."""

    def test_the_one_rule_widens_nothing(self):
        rows = [(True, 2), (False, 3)]
        flags, ints = key_columns(rows, (0, 1))
        assert flags.dtype == object and flags.tolist() == [True, False]
        assert all(type(v) is bool for v in flags.tolist())
        assert ints.dtype == np.int64 and ints.tolist() == [2, 3]
        assert column_of([1, True]).dtype == object
        assert type(column_of([np.int64(1), 2]).tolist()[0]) is np.int64
        assert [c.tolist() for c in key_columns([(1, 2), (3, 4)], (1, 0))] == [[2, 4], [1, 3]]
        assert [c.dtype for c in columns_of([], 2)] == [np.int64, np.int64]

    def test_bools_ride_an_object_column(self):
        rel = Relation("B", ["x", "flag"], [(1, True), (2, False)])
        assert [c.dtype for c in rel.columns()] == [np.int64, object]
        assert rel.rows() == [(1, True), (2, False)]
        assert Relation("B", ["x", "flag"], [(1, 1), (2, True)]).columns()[1].dtype == object
        big = Relation("U", ["x"], [(2**63 + 1,), (2**63 + 5,)])
        assert big.columns()[0].dtype == np.uint64

    def test_bool_rows_route_as_rows(self):
        # A bool key rides an object column: hashed once per distinct value
        # through the scalar spec, and the delivered rows are bools again.
        cluster = Cluster(2)
        h = cluster.hash_function(0)
        with cluster.round("route") as rnd:
            try_route(rnd, columns_of([(True,), (False,)], 1), (0,), h, "one")
            try_route(rnd, columns_of([(True, 1), (False, 2)], 2), (0,), h, "two")
        got = [row for server in cluster.servers for name in ("one", "two")
               for row in server.take(name)]
        assert Counter(got) == Counter([(True,), (False,), (True, 1), (False, 2)])
        assert all(type(row[0]) is bool for row in got)


def test_a_relation_only_a_query_saw_dies_with_its_caller():
    """The engine's in-order alignment record is a marker, not its owner:
    an entry holding the relation itself would keep it alive for good."""
    from repro.engine import run_query
    from repro.query.parser import parse_query

    def query_once():
        r = _relation(name="R").rename({"x": "a", "y": "b"})
        s = Relation.from_columns("S", ["b", "c"], [np.arange(30), np.arange(30) % 5])
        result = run_query(parse_query("R(a,b), S(b,c)"), {"R": r, "S": s}, 4)
        assert len(result.output) == 30
        return weakref.ref(r), weakref.ref(s)

    clear_memo()
    refs = query_once()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    clear_memo()


def test_a_relation_only_a_cyclic_plan_saw_dies_with_its_caller():
    """A cyclic query's plan reads OUT later from its inputs' columns, and a
    one-server pool's route is the restriction's own columns: neither holds
    a relation, so the caller's relations die while the result lives."""
    from repro.engine import run_query
    from repro.query.cq import triangle_query

    query = triangle_query()

    def query_once(skewed):
        # Skewed: three hubs per column, so every residual gets one server.
        ids = np.arange(60)
        hubs = 3 if skewed else 29
        columns = [np.where(ids % 2, ids % hubs, ids % 29),
                   np.where(ids % 3, (ids * 7) % hubs, (ids * 7) % 29)]
        relations = {
            name: Relation.from_columns(name, attrs, columns)
            for name, attrs in (("R", ["x", "y"]), ("S", ["y", "z"]), ("T", ["z", "x"]))
        }
        expected = len(query.evaluate(relations))
        # Skewed, SkewHC is forced: its one-server pools are what is checked.
        result = run_query(query, relations, 8, strategy="skewhc" if skewed else "auto")
        assert len(result.output) == expected
        return result, expected, [weakref.ref(rel) for rel in relations.values()]

    for skewed, chosen in ((False, "hypercube"), (True, "skewhc")):
        clear_memo()
        result, expected, refs = query_once(skewed)
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        assert result.plan.algorithm == chosen
        assert not skewed or max(result.stats.pools) == 1
        assert result.explain.statistics.out_estimate == expected   # read after they died
        clear_memo()


def test_an_atom_with_no_heavy_value_is_not_pinned_by_the_skewhc_plan():
    """SkewHC's plan is a view of the query's relations; an atom none of
    whose values is heavy is restricted to its columns, not to itself, so
    the cached plan keeps no relation alive — planning a skewed triangle
    builds that plan even when HyperCube runs."""
    from repro.engine import run_query
    from repro.query.cq import triangle_query

    clear_memo()
    relations = {  # y = 0 is a hub of R and S; T holds no heavy value
        "R": Relation("R", ["x", "y"], [(i, 0) for i in range(40)] + [(i, i) for i in range(40, 80)]),
        "S": Relation("S", ["y", "z"], [(0, i) for i in range(40)] + [(i, 100 + i) for i in range(40, 80)]),
        "T": Relation("T", ["z", "x"], [(i, i) for i in range(80)]),
    }
    result = run_query(triangle_query(), relations, 8, strategy="skewhc")
    assert result.stats.pools and memo_cache_sizes()[1] > 0
    refs = [weakref.ref(rel) for rel in relations.values()]
    del relations
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    clear_memo()


def test_an_in_order_relation_still_counts_as_aligned_from_the_memo():
    from repro.engine import Engine

    clear_memo()
    r = Relation.from_columns("R", ["a", "b"], [np.arange(40) % 7, np.arange(40)])
    s = Relation.from_columns("S", ["b", "c"], [np.arange(40), np.arange(40) % 5])
    engine = Engine(p=4)
    engine.register(r)
    engine.register(s)
    hits = [engine.query("R(a,b), S(b,c)").align_cache_hits for _ in range(3)]
    assert hits == [0, 2, 2]
    clear_memo()
