"""Inline vs process backend: byte-identical observable behavior.

The backends share every task function and all coordinator state, so
outputs, per-round loads, round counts, audit conservation, and fault
replay must be *identical*, not merely equivalent. This suite pins the
contract on real algorithms with small inputs (the full sweep is
``python -m repro selftest --backend both``); tier-1 keeps it fast with
a 2-worker pool that is reused across tests.
"""

import pytest

from repro.data.generators import skewed_relation, uniform_relation
from repro.exec.config import use_backend
from repro.joins.hash_join import parallel_hash_join
from repro.matmul.sql import sql_matmul
from repro.mpc.faults import CrashFault, FaultPlan, StragglerFault, faulty
from repro.multiway.hypercube import hypercube_join
from repro.query.parser import parse_query
from repro.sorting.multiround import multiround_sort
from repro.sorting.psrs import psrs_sort

WORKERS = 2


def both_backends(run):
    with use_backend("inline"):
        inline = run()
    with use_backend("process", workers=WORKERS):
        process = run()
    return inline, process


def assert_same_stats(a, b):
    assert a.max_load == b.max_load
    assert a.num_rounds == b.num_rounds
    assert [r.received for r in a.rounds] == [r.received for r in b.rounds]
    assert (a.audit is None) == (b.audit is None)
    if a.audit is not None:
        assert a.audit.ok == b.audit.ok


def test_hash_join_identical():
    R = uniform_relation("R", ("a", "b"), 400, universe=60, seed=1)
    S = uniform_relation("S", ("b", "c"), 400, universe=60, seed=2)
    runs = both_backends(lambda: parallel_hash_join(R, S, 6))
    inline, process = runs
    assert inline.output == process.output  # order included
    assert_same_stats(inline.stats, process.stats)
    exec_stats = process.stats.exec
    assert exec_stats.backend == "process"
    assert exec_stats.fallbacks == 0
    assert exec_stats.items > 0


def test_triangle_hypercube_identical():
    from repro.data.relation import Relation

    E = skewed_relation("E", ("x", "y"), 300, "x", 40, 0.8, seed=3)
    rows = E.rows()
    relations = {
        "R": Relation("R", ("x", "y"), list(rows)),
        "S": Relation("S", ("y", "z"), list(rows)),
        "T": Relation("T", ("x", "z"), list(rows)),
    }
    query = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(x,z)")
    inline, process = both_backends(lambda: hypercube_join(query, relations, 8))
    assert inline.output == process.output
    assert_same_stats(inline.stats, process.stats)


def test_psrs_sort_identical():
    items = [(i * 2654435761) % 997 for i in range(900)]
    (out_i, st_i), (out_p, st_p) = both_backends(lambda: psrs_sort(items, 5, seed=2))
    assert out_i == out_p == sorted(items)
    assert_same_stats(st_i, st_p)
    assert st_p.exec.fallbacks == 0


def test_multiround_sort_identical():
    items = [(i * 48271) % 4001 for i in range(800)]
    (out_i, st_i), (out_p, st_p) = both_backends(
        lambda: multiround_sort(items, 6, 48, seed=4)
    )
    assert out_i == out_p == sorted(items)
    assert_same_stats(st_i, st_p)


@pytest.mark.parametrize("sort", [
    lambda items, key: psrs_sort(items, 8, key=key),
    lambda items, key: multiround_sort(items, 8, 64, key=key),
], ids=["psrs", "multiround"])
def test_a_lambda_key_stays_on_the_workers(sort):
    # The key runs once, on the coordinator; no task carries it, so an
    # unpicklable key no longer sends the whole sort inline.
    items = [(i * 7919) % 613 for i in range(2000)]
    (out_i, st_i), (out_p, st_p) = both_backends(lambda: sort(items, lambda x: -x))
    assert out_i == out_p == sorted(items, key=lambda x: -x)
    assert_same_stats(st_i, st_p)
    assert st_p.exec.fallbacks == 0 and st_p.exec.queue_messages > 0


def test_matmul_identical():
    import numpy as np

    rng = np.random.default_rng(11)
    A = rng.integers(0, 5, size=(12, 9)).astype(float)
    B = rng.integers(0, 5, size=(9, 10)).astype(float)
    (c_i, st_i), (c_p, st_p) = both_backends(lambda: sql_matmul(A, B, 4))
    assert np.array_equal(c_i, c_p)
    assert np.array_equal(c_i, A @ B)
    assert_same_stats(st_i, st_p)


def test_faults_identical_across_backends():
    """Fault injection and recovery replay are coordinator-side: a crash
    plan produces the same recovery story under both backends, and the
    per-worker attribution reflects pool ownership."""
    R = uniform_relation("R", ("a", "b"), 240, universe=40, seed=5)
    S = uniform_relation("S", ("b", "c"), 240, universe=40, seed=6)
    # parallel_hash_join opens exactly one round (ordinal 0).
    plan = FaultPlan(
        crashes=(CrashFault(0, 2), CrashFault(0, 5)),
        stragglers=(StragglerFault(0, 3, 4),),
    )

    def run():
        with faulty(plan):
            return parallel_hash_join(R, S, 6)

    inline, process = both_backends(run)
    assert inline.output == process.output
    assert_same_stats(inline.stats, process.stats)
    fi, fp = inline.stats.faults, process.stats.faults
    assert fi is not None and fp is not None
    assert fi.clean and fp.clean
    assert fi.injected == fp.injected > 0
    assert fi.rounds_replayed == fp.rounds_replayed
    assert fi.recovery_load == fp.recovery_load
    # Totals agree; only the attribution dimension differs by design.
    assert sum(fi.by_worker.values()) == sum(fp.by_worker.values())
    assert set(fi.by_worker) == {0}
    assert set(fp.by_worker) <= set(range(WORKERS))
    # Servers 2 and 3 sit in worker 0's range, server 5 in worker 1's.
    assert set(fp.by_worker) == {0, 1}


def test_non_integer_rows_ride_pickle_identically():
    """String-keyed rows ride the frame like any other rows — nothing is
    packed, nothing falls back — and the result is identical to inline."""
    from repro.data.relation import Relation

    R = Relation("R", ("a", "b"), [(f"a{i % 50}", f"b{i % 37}") for i in range(600)])
    S = Relation("S", ("b", "c"), [(f"b{i % 41}", f"c{i % 29}") for i in range(600)])
    inline, process = both_backends(lambda: parallel_hash_join(R, S, 6))
    assert inline.output == process.output
    assert_same_stats(inline.stats, process.stats)
    exec_stats = process.stats.exec
    assert exec_stats.shm_bytes_out == 0 and exec_stats.pickle_bytes_out > 0
    assert exec_stats.fallbacks == 0  # counted, not degraded to inline
