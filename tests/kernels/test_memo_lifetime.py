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
    forget,
    key_degrees,
    memo_cache_sizes,
    project_view,
    route,
)
from repro.kernels.partition import try_route
from repro.mpc.cluster import Cluster
from repro.mpc.stats import MemoStats


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
        key_degrees(rel, (0,))
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
    assert key_degrees(kept, (0,), stats=stats) == Counter({(v,): c for v, c in
                                                           Counter((np.arange(30) % 7).tolist()).items()})
    assert (stats.view_hits, stats.view_misses) == (1, 0)
    clear_memo()


def test_a_dead_owner_is_purged_by_the_next_put_not_by_the_collector():
    clear_memo()
    live, doomed = _relation(name="L"), _relation(name="D")
    key_degrees(doomed, (0,))
    del doomed
    gc.collect()
    assert len(memo._views) == 1                 # queued, not yet purged
    key_degrees(live, (0,))                      # a put: purge first
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
        key_degrees(rel, (1,))
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
            key_degrees(rel, (0,))
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
                    assert key_degrees(rel, (0,)) == want
                    assert project_view(rel, ("y", "x")).attributes == ("y", "x")
        except BaseException as exc:  # noqa: BLE001 - the assertion target
            errors.append(exc)

    def dropper():
        try:
            start.wait(timeout=10)
            for n in range(300):
                rel = _relation(5 + n % 9, name="tmp")
                key_degrees(rel, (0,))
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
    key_degrees(rel, (0,))
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
