"""Regression tests for Engine thread-safety (the alignment-memo races).

Alignments live in the view cache of :mod:`repro.kernels.memo`, a
:class:`~repro.kernels.memo.LRU` whose single lock covers lookup and
recency bump together. When that bookkeeping was an unlocked
``get`` + ``pop`` + re-insert, two threads hitting the same key both
observed the entry, both popped, and the second raised ``KeyError``.
The regression test reproduces the interleaving deterministically with
an ``OrderedDict`` subclass that parks inside the recency bump on a
two-party barrier:

- **unlocked**: both threads reach the bump concurrently, the barrier
  releases them together — two threads inside the critical section;
- **locked**: one thread at a time, its barrier wait times out (broken
  barrier, caught), and both lookups finish cleanly.
"""

import sys
import threading
from collections import OrderedDict

import pytest

from repro.data.relation import Relation
from repro.engine import Engine
from repro.kernels import memo
from repro.planner import optimizer
from repro.query import lp
from repro.query.fractional import psi_star
from repro.query.parser import parse_query

QUERY = "Q(a, b, c) :- R(a, b), S(b, c)"


def make_engine():
    engine = Engine(4)
    engine.register(Relation("R", ["a", "b"], [(i, i % 5) for i in range(30)]))
    engine.register(Relation("S", ["b", "c"], [(i % 5, i) for i in range(20)]))
    return engine


class RendezvousDict(OrderedDict):
    """An OrderedDict whose recency bump parks callers on a barrier.

    With two parties the rendezvous only completes when BOTH threads are
    inside ``move_to_end`` at once — the state the LRU's lock rules out —
    and records that. Under the lock only one thread can reach the bump
    at a time, so its wait times out, the barrier breaks, and every
    later wait returns immediately.
    """

    def __init__(self, *args, barrier=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.barrier = barrier
        self.overlaps = 0

    def move_to_end(self, key, last=True):
        if self.barrier is not None:
            try:
                self.barrier.wait(timeout=0.5)
                self.overlaps += 1
            except threading.BrokenBarrierError:
                pass
        super().move_to_end(key, last)


def test_align_cache_concurrent_hits_do_not_double_pop():
    """Concurrent hits on one cached entry never share the recency bump."""
    cache = memo.LRU(4)
    cache.put("aligned", object())
    cache._entries = RendezvousDict(cache._entries, barrier=threading.Barrier(2))
    errors = []

    def hit():
        try:
            assert cache.get("aligned") is not None
        except BaseException as exc:  # noqa: BLE001 - the assertion target
            errors.append(exc)

    threads = [threading.Thread(target=hit) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, f"concurrent cache hits raised: {errors!r}"
    assert cache._entries.overlaps == 0
    assert (cache.hits, cache.misses) == (2, 0)


def test_align_cache_hits_are_counted_per_query(monkeypatch):
    """A query never reports alignment hits another thread earned.

    The cold query is parked inside planning — after its own (missing)
    alignment lookups — while a warm query runs to completion on the
    main thread. Counting hits as the delta of a shared counter made the
    cold query report the warm one's two hits.
    """
    memo.clear_memo()
    engine = make_engine()
    engine.register(Relation("T", ["c", "d"], [(i, i % 3) for i in range(12)]))
    engine.register(Relation("U", ["d", "w"], [(i % 3, i) for i in range(9)]))
    engine.query(QUERY)                       # warm R and S only

    parked, release = threading.Event(), threading.Event()
    plan_query = optimizer.plan_query

    def gated_plan_query(cq, *args, **kwargs):
        if cq.atoms[0].name == "T":
            parked.set()
            assert release.wait(timeout=10)
        return plan_query(cq, *args, **kwargs)

    monkeypatch.setattr(optimizer, "plan_query", gated_plan_query)
    cold = []
    thread = threading.Thread(
        target=lambda: cold.append(engine.query("T(c, d), U(d, w)"))
    )
    thread.start()
    assert parked.wait(timeout=10)
    warm = engine.query(QUERY)
    release.set()
    thread.join()
    assert warm.align_cache_hits == 2
    assert cold[0].align_cache_hits == 0


def test_concurrent_queries_byte_identical():
    """N threads through one engine produce the serial answer, always."""
    engine = make_engine()
    expected = sorted(engine.query(QUERY).output.rows_readonly())
    outputs = []
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(4)

    def worker():
        try:
            barrier.wait(timeout=10)
            for _ in range(5):
                rows = sorted(engine.query(QUERY).output.rows_readonly())
                with lock:
                    outputs.append(rows)
        except BaseException as exc:  # noqa: BLE001
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(outputs) == 20
    assert all(rows == expected for rows in outputs)


def test_register_during_queries_is_safe():
    """register() clearing the cache mid-query storm never corrupts hits."""
    engine = make_engine()
    errors = []
    stop = threading.Event()

    def querier():
        try:
            while not stop.is_set():
                engine.query(QUERY)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    def registrar():
        try:
            for i in range(50):
                engine.register(
                    Relation("S", ["b", "c"], [(j % 5, j) for j in range(20)])
                )
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            stop.set()

    threads = [threading.Thread(target=querier) for _ in range(2)]
    threads.append(threading.Thread(target=registrar))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_concurrent_psi_star_shares_one_lp_memo(monkeypatch):
    """8 threads hammering ψ* of one query: one value, every lookup counted."""
    query = parse_query("R(x,y), S(y,z), T(z,x)")
    lookups = []  # list.append is atomic: one entry per lp.solve call
    real_solve = lp.solve

    def counted_solve(*program):
        lookups.append(None)
        return real_solve(*program)

    monkeypatch.setattr(lp, "solve", counted_solve)
    lp.clear()
    hits, misses, *_ = lp.counters()
    values = []
    errors = []
    barrier = threading.Barrier(8)

    def worker():
        try:
            barrier.wait(timeout=10)
            for _ in range(10):
                values.append(psi_star(query))
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert values == [2.0] * 80
    after = lp.counters()
    assert (after[0] - hits) + (after[1] - misses) == len(lookups)
    # Racing threads may each solve a program they all missed, but the
    # memo ends up with one entry per distinct residual packing LP.
    distinct = after[4]
    assert distinct <= 7 and after[1] - misses >= distinct
