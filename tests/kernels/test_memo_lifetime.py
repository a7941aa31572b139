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
from repro.kernels.columnar import exact_columns, key_columns
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
    assert twin.rows_readonly() == rel.rows_readonly() and twin.is_columnar
    clear_memo()


class TestColumnsThatStandInForRows:
    """Columns replace the row list downstream, so they are extracted only
    when ``tolist()`` rebuilds the very tuples: plain ints, nothing else."""

    def test_exact_columns_refuses_what_key_columns_widens(self):
        rows = [(True, 2), (False, 3)]
        assert [c.tolist() for c in key_columns(rows, (0, 1))] == [[True, False], [2, 3]]
        assert exact_columns(rows, (0, 1)) is None
        assert exact_columns([(1, 2), (True, 3)], (0, 1)) is None
        assert exact_columns([(np.int64(1), 2)], (0, 1)) is None
        assert [c.tolist() for c in exact_columns([(1, 2), (3, 4)], (1, 0))] == [[2, 4], [1, 3]]
        assert [len(c) for c in exact_columns([], (0, 1))] == [0, 0]

    def test_a_bool_bearing_relation_has_no_columns(self):
        assert Relation("B", ["x", "flag"], [(1, True), (2, False)]).columns() is None
        assert Relation("B", ["x", "flag"], [(1, 1), (2, True)]).columns() is None
        big = Relation("U", ["x"], [(2**63 + 1,), (2**63 + 5,)])
        assert big.columns()[0].dtype == np.uint64

    def test_bool_rows_route_as_rows(self):
        # Was test_a_route_extracting_the_whole_row_refuses_bools: a route
        # keyed on the whole row used to ship the extracted columns as the
        # rows' stand-in and so had to refuse widened bools. A row-held
        # fragment now travels as its rows — the key columns are only
        # hashed — so nothing is refused and nothing is widened.
        cluster = Cluster(2)
        h = cluster.hash_function(0)
        with cluster.round("route") as rnd:
            try_route(rnd, [(True,), (False,)], (0,), h, "out")
            try_route(rnd, [(True, 1), (False, 2)], (0,), h, "out")
        got = [row for server in cluster.servers for row in server.take("out")]
        assert Counter(got) == Counter([(True,), (False,), (True, 1), (False, 2)])
        assert all(type(row[0]) is bool for row in got)
