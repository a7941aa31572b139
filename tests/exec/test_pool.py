"""Worker pool and process backend: dispatch, errors, fallbacks.

The custom test tasks are registered at module import time, *before*
any pool in this file forks, so fork-started workers inherit them in
their copy of the registry (the same mechanism that makes algorithm
tasks resolvable: both sides import the same modules).
"""

import multiprocessing
import threading
import time

import pytest

from repro.exec import tasks
from repro.exec.base import InlineBackend, ProcessBackend, get_backend
from repro.exec.pool import UnpicklablePayloadError, WorkerError, WorkerPool
from repro.mpc.stats import ExecStats


def _double_chunk(payloads, common):
    return [x * common for x in payloads]


def _boom_chunk(payloads, common):
    raise ValueError("task exploded on purpose")


def _short_chunk(payloads, common):
    return payloads[:-1] if payloads else []


def _callable_chunk(payloads, common):
    return [fn(common) for fn in payloads]


tasks.register("test.double", _double_chunk)
tasks.register("test.boom", _boom_chunk)
tasks.register("test.short", _short_chunk)
tasks.register("test.callable", _callable_chunk)


@pytest.fixture(scope="module")
def pool():
    pool = WorkerPool(2)
    yield pool
    pool.shutdown()


def test_run_merges_in_chunk_order(pool):
    chunks = [(0, [1, 2, 3]), (1, [4, 5])]
    results, dispatch = pool.run("test.double", chunks, 10)
    assert results == [[10, 20, 30], [40, 50]]
    assert dispatch.shm_bytes_out == 0 and dispatch.shm_bytes_in == 0
    assert dispatch.pickle_bytes_out > 0 and dispatch.pickle_bytes_in > 0
    assert dispatch.worker_seconds >= 0.0
    assert dispatch.queue_messages == 2  # one message per participating worker


def test_run_batch_collapses_round_trips(pool):
    calls = [
        ("test.double", [(0, [1, 2]), (1, [3])], 10),
        ("test.double", [(0, [4]), (1, [5, 6])], 100),
    ]
    per_call, dispatch = pool.run_batch(calls)
    assert per_call == [
        [[10, 20], [30]],
        [[400], [500, 600]],
    ]
    # Two calls x two workers collapsed into one message per worker.
    assert dispatch.queue_messages == 2


def test_run_batch_reports_failure_of_any_subjob(pool):
    calls = [
        ("test.double", [(0, [1])], 2),
        ("test.boom", [(1, [1])], None),
    ]
    with pytest.raises(WorkerError, match="task exploded on purpose"):
        pool.run_batch(calls)
    # Pool survives, same as a single-call task failure.
    results, _ = pool.run("test.double", [(0, [7])], 2)
    assert results == [[14]]


def test_worker_error_carries_remote_traceback(pool):
    with pytest.raises(WorkerError, match="task exploded on purpose"):
        pool.run("test.boom", [(0, [1]), (1, [2])], None)
    # The pool survives a task failure and keeps serving.
    results, *_ = pool.run("test.double", [(0, [7])], 2)
    assert results == [[14]]


def test_unknown_task_is_a_worker_error(pool):
    with pytest.raises(WorkerError, match="unknown exec task"):
        pool.run("test.no-such-task", [(0, [1])], None)


def test_unpicklable_payload_raises_synchronously(pool):
    with pytest.raises(UnpicklablePayloadError):
        pool.run("test.double", [(0, [lambda: None])], 1)
    with pytest.raises(UnpicklablePayloadError):
        pool.run("test.double", [(0, [1])], lambda: None)
    # Still alive afterwards: nothing was ever enqueued.
    results, *_ = pool.run("test.double", [(0, [3])], 3)
    assert results == [[9]]


def test_shutdown_is_idempotent():
    pool = WorkerPool(1)
    pool.shutdown()
    pool.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        pool.run("test.double", [(0, [1])], 1)


def test_get_pool_forks_once_under_contention(monkeypatch):
    # Two service threads making their first process dispatch together
    # used to fork a pool each; the loser's workers were orphaned until
    # interpreter exit. Lookup-or-fork is one locked step.
    from repro.exec import pool as pool_module

    pool_module.shutdown_pools()
    children = len(multiprocessing.active_children())
    real_init = WorkerPool.__init__

    def slow_init(self, workers):
        time.sleep(0.05)  # widen the window between lookup and store
        real_init(self, workers)

    monkeypatch.setattr(WorkerPool, "__init__", slow_init)
    barrier = threading.Barrier(8)
    got = []

    def grab():
        barrier.wait(timeout=10)
        got.append(pool_module.get_pool(2))

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    try:
        assert len(got) == 8 and len({id(pool) for pool in got}) == 1
        assert len(multiprocessing.active_children()) == children + 2
    finally:
        pool_module.shutdown_pools()


def test_process_backend_falls_back_inline_on_unpicklable():
    backend = ProcessBackend(2)
    stats = backend.new_stats()
    # Lambda payloads cannot cross the process boundary; the backend
    # reruns the whole map inline with the same task function, so the
    # call still succeeds and the degradation is visible in the stats.
    out = backend.map_payloads(
        "test.callable", [lambda c: c + 1, lambda c: c * 10], 4, stats=stats
    )
    assert out == [5, 40]
    assert stats.fallbacks == 1
    assert stats.backend == "process"


def test_process_backend_counts_traffic():
    backend = ProcessBackend(2)
    stats = backend.new_stats()
    out = backend.map_payloads("test.double", [1, 2, 3], 5, stats=stats)
    assert out == [5, 10, 15]
    assert stats.dispatches == 1
    assert stats.chunks == 2
    assert stats.items == 3


def test_process_backend_rejects_non_elementwise_tasks():
    backend = ProcessBackend(1)
    with pytest.raises(RuntimeError, match="same-length elementwise"):
        backend.map_payloads("test.short", [1, 2, 3], None)


def test_inline_backend_matches_process():
    inline = InlineBackend()
    process = ProcessBackend(2)
    payloads = list(range(17))
    assert inline.map_payloads("test.double", payloads, 3) == \
        process.map_payloads("test.double", payloads, 3)


def test_empty_map_short_circuits():
    backend = ProcessBackend(2)
    assert backend.map_payloads("test.double", [], 1) == []


def test_get_backend_resolution():
    assert get_backend("inline").name == "inline"
    backend = InlineBackend()
    assert get_backend(backend) is backend
    from repro.exec.config import use_backend

    with use_backend("process", workers=2):
        resolved = get_backend(None)
        assert resolved.name == "process"
        assert resolved.workers == 2
        # Same spec → same cached instance (pools are keyed off it).
        assert get_backend(None) is resolved


def test_exec_stats_merge():
    parts = [
        ExecStats(backend="process", workers=2,
                  dispatches=3, chunks=6, items=30, shm_bytes_out=100,
                  shm_bytes_in=50, pickle_bytes_out=6, pickle_bytes_in=3,
                  worker_seconds=0.5, fallbacks=1),
        ExecStats(backend="process", workers=2,
                  dispatches=1, chunks=2, items=10, shm_bytes_out=20,
                  shm_bytes_in=10, pickle_bytes_out=3, pickle_bytes_in=2,
                  worker_seconds=0.25),
    ]
    merged = ExecStats(backend="process", workers=2)
    for part in parts:
        merged.add(part)
    assert merged.backend == "process" and merged.workers == 2
    assert merged.dispatches == 4
    assert merged.chunks == 8
    assert merged.items == 40
    assert merged.shm_bytes_out == 120
    assert merged.shm_bytes_in == 60
    assert merged.pickle_bytes_out == 9
    assert merged.pickle_bytes_in == 5
    assert merged.worker_seconds == pytest.approx(0.75)
    assert merged.fallbacks == 1


def test_bytes_per_message_none_when_no_messages():
    # A mean over zero messages is undefined; the former 0.0 read as
    # "messages were free" in traces and reports.
    stats = ExecStats(backend="process", workers=2)
    assert stats.queue_messages == 0
    assert stats.bytes_per_message is None


def test_bytes_per_message_mean_of_outbound_bytes():
    stats = ExecStats(backend="process", workers=2, queue_messages=4,
                      shm_bytes_out=1000, pickle_bytes_out=200)
    assert stats.bytes_per_message == pytest.approx(300.0)


def test_summary_and_trace_report_na_not_zero():
    from repro.mpc.stats import RoundStats, RunStats
    from repro.mpc.trace import trace

    run = RunStats(2)
    run.rounds.append(RoundStats("r", [1, 1]))
    run.exec = ExecStats(backend="process", workers=2)
    assert "bytes/msg=n/a" in run.summary()
    assert "bytes/msg=n/a" in trace(run)
    run.exec.queue_messages = 2
    run.exec.pickle_bytes_out = 512
    assert "bytes/msg=256" in run.summary()
    assert "bytes/msg=256" in trace(run)
