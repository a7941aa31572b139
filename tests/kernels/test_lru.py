"""The one LRU (:class:`repro.kernels.memo.LRU`) behind every token-keyed cache.

The partition-plan cache, the view cache and the service's result cache
are all this class, so its contract is pinned once here: bounded,
least-recently-*used* eviction, counted lookups, predicate drops, the
pin-and-identity check of the relation-keyed lookups, and one lock that
keeps all of it consistent under concurrent readers and writers.
"""

import threading

from repro.data.relation import Relation
from repro.kernels import memo
from repro.kernels.memo import LRU
from repro.mpc.stats import MemoStats


def test_capacity_bounds_the_entries_and_counts_evictions():
    cache = LRU(3)
    for i in range(10):
        cache.put(i, str(i))
    assert len(cache) == 3
    assert cache.keys() == [7, 8, 9]
    assert cache.evictions == 7


def test_a_hit_refreshes_recency():
    cache = LRU(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # "b" is now the least recently used
    cache.put("c", 3)
    assert cache.keys() == ["a", "c"]
    assert cache.get("b") is None


def test_replacing_a_key_neither_grows_nor_evicts():
    cache = LRU(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)
    assert cache.keys() == ["b", "a"]
    assert cache.get("a") == 10
    assert cache.evictions == 0


def test_non_positive_capacity_stores_nothing():
    for capacity in (0, -1):
        cache = LRU(capacity)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.counters() == (0, 1, 0, 0, 0)


def test_drop_removes_exactly_the_matching_entries():
    cache = LRU(8)
    for i in range(6):
        cache.put(i, i * i)
    assert cache.drop(lambda key, value: key % 2 == 0 and value > 0) == 2
    assert cache.keys() == [0, 1, 3, 5]
    assert cache.clear() == 4
    assert len(cache) == 0
    assert cache.dropped == 6


def test_every_get_is_a_hit_or_a_miss():
    cache = LRU(2)
    gets = 0
    for i in range(20):
        cache.put(i % 3, i)
        for key in range(4):
            cache.get(key)
            gets += 1
    hits, misses, _evictions, _dropped, size = cache.counters()
    assert hits + misses == gets
    assert hits > 0 and misses > 0 and size == 2


def test_pinned_relation_mismatch_is_a_miss_that_drops_the_entry():
    rel = Relation("R", ["x"], [(1,)])
    other = Relation("R", ["x"], [(1,)])
    token = rel.mutation_token()
    key = (id(rel), token, "view")
    cache = LRU(4)
    cache.put(key, (other, token, "pinned to another relation"))
    assert memo._lookup(cache, key, rel, token) is None
    assert len(cache) == 0
    cache.put(key, (rel, token - 1, "pinned at another token"))
    assert memo._lookup(cache, key, rel, token) is None
    assert len(cache) == 0
    cache.put(key, (rel, token, "current"))
    assert memo._lookup(cache, key, rel, token)[2] == "current"
    assert (cache.hits, cache.misses) == (1, 2)


def test_forget_drops_only_the_entries_pinned_to_the_relation():
    memo.clear_memo()
    kept = Relation("K", ["x", "y"], [(1, 2), (3, 4)])
    gone = Relation("G", ["x", "y"], [(1, 2), (3, 4)])
    for rel in (kept, gone):
        memo.project_view(rel, ("y", "x"))
        memo.distinct_project(rel, ("x",))
    # Per relation: the projection, the keys and the degree view they are read from.
    assert memo.memo_cache_sizes() == (0, 6)
    assert memo.forget(gone) == 3
    assert memo.memo_cache_sizes() == (0, 3)
    stats = MemoStats()
    memo.project_view(kept, ("y", "x"), stats=stats)
    memo.project_view(gone, ("y", "x"), stats=stats)
    assert (stats.view_hits, stats.view_misses) == (1, 1)
    memo.clear_memo()


def test_concurrent_get_put_hammer_keeps_the_invariants():
    cache = LRU(16)
    threads_n, rounds = 8, 400
    errors = []
    start = threading.Barrier(threads_n)

    def worker(seed):
        try:
            start.wait(timeout=10)
            for i in range(rounds):
                key = (seed * 7 + i) % 40
                value = cache.get(key)
                assert value is None or value == key * 2
                cache.put(key, key * 2)
                if i % 50 == 0:
                    cache.drop(lambda k, _v: k % 10 == seed % 10)
        except BaseException as exc:  # noqa: BLE001 - the assertion target
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    hits, misses, _evictions, _dropped, size = cache.counters()
    assert hits + misses == threads_n * rounds
    assert size == len(cache.keys()) <= 16
