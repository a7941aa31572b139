"""Shared-memory segment lifecycle under abnormal shutdown.

Every outbound segment is registered on the pool's ledger until the
worker's reply proves it was consumed; result segments are registered
until decoded. These tests kill workers mid-dispatch, tear pools down
on the exception path, and restart after a crash — asserting in each
case that no ``psm_*`` segment outlives the pool and that coordinator
state (fault replay included) is unaffected by the respawn.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.exec import shm, tasks
from repro.exec.config import use_backend
from repro.exec.pool import WorkerError, WorkerPool, get_pool, shutdown_pools


@pytest.fixture(autouse=True)
def low_floor(monkeypatch):
    # This file's 16-32 KB blocks must ride segments for the ledger to
    # have anything to release (outbound placement is the coordinator's).
    monkeypatch.setattr(shm, "_MIN_SEGMENT_BYTES", 1024)
    yield
    # Workers forked meanwhile inherited the lowered floor for their
    # results; the shared pool must not carry it into other tests.
    shutdown_pools()


def _kill_self_chunk(payloads, common):
    os.kill(os.getpid(), signal.SIGKILL)


def _sum_chunk(payloads, common):
    return [int(np.asarray(block).sum()) for block in payloads]


def _echo_chunk(payloads, common):
    return list(payloads)


tasks.register("segments.kill", _kill_self_chunk)
tasks.register("segments.sum", _sum_chunk)
tasks.register("segments.echo", _echo_chunk)


def _frame_for(task, chunk):
    """One worker-0 frame, built as ``run_batch`` builds it."""
    import pickle

    encoded = shm.encode_payload((chunk, None))
    return pickle.dumps([(task, encoded)])


def _psm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux shm mount
        return set()


def _array_chunks():
    return [
        (0, [np.arange(2048, dtype=np.int64)]),
        (1, [np.arange(2048, dtype=np.int64)]),
    ]


def test_worker_crash_mid_dispatch_leaks_no_segments():
    before = _psm_segments()
    pool = WorkerPool(2)
    with pytest.raises(WorkerError, match="died while jobs were pending"):
        pool.run("segments.kill", _array_chunks(), None)
    assert pool._closed  # the pool is unusable after losing workers
    assert _psm_segments() <= before  # nothing new left behind
    with pytest.raises(RuntimeError, match="shut down"):
        pool.run("segments.kill", _array_chunks(), None)


def test_worker_death_surfaces_at_once_and_the_pool_is_replaced():
    # Liveness is the process sentinel in the collect loop's wait, not a
    # poll interval: the crash surfaces in well under the second the old
    # queue poll slept.
    before = _psm_segments()
    with use_backend("process", workers=2):
        doomed = get_pool(2)
        doomed.run("segments.sum", _array_chunks(), None)  # forked, warm
        started = time.perf_counter()
        with pytest.raises(WorkerError, match="died while jobs were pending"):
            doomed.run("segments.kill", _array_chunks(), None)
        assert time.perf_counter() - started < 0.5
        assert doomed._closed
        assert _psm_segments() <= before
        fresh = get_pool(2)
        assert fresh is not doomed and not fresh._closed
        results, _ = fresh.run("segments.sum", _array_chunks(), None)
        assert results == [[int(np.arange(2048).sum())]] * 2


def test_idle_shutdown_is_prompt_and_idempotent():
    pool = WorkerPool(2)
    pool.run("segments.sum", _array_chunks(), None)
    started = time.perf_counter()
    pool.shutdown()
    assert time.perf_counter() - started < 0.5
    assert not any(process.is_alive() for process in pool._processes)
    pool.shutdown()  # second call: nothing left to do, nothing raised


def test_teardown_releases_result_segments_parked_on_a_pipe():
    # A reply the coordinator never collected (interrupted mid-batch)
    # still names result segments; teardown reads each connection dry
    # with poll(0) and unlinks them.
    before = _psm_segments()
    pool = WorkerPool(1)
    big = np.arange(4096, dtype=np.int64)
    frame = _frame_for("segments.echo", [big])
    pool._connections[0].send_bytes(frame)
    deadline = time.monotonic() + 5.0
    while not pool._connections[0].poll(0.05):
        assert time.monotonic() < deadline, "worker never replied"
    assert _psm_segments() - before  # the result is parked in a segment
    pool._emergency_teardown()
    assert _psm_segments() <= before


def test_emergency_teardown_unlinks_registered_segments():
    # The ledger path in isolation: a segment still registered as
    # in-flight (the worker never consumed it) must be unlinked by an
    # emergency teardown, whatever interrupted the collect loop.
    pool = WorkerPool(1)
    encoded = shm.encode_payload(([np.arange(4096, dtype=np.int64)], None))
    assert encoded.segment_name is not None
    assert encoded.segment_name in _psm_segments()
    pool._inflight[99] = [encoded.segment_name]
    pool._emergency_teardown()
    assert encoded.segment_name not in _psm_segments()


def test_shutdown_after_real_work_leaves_no_segments():
    before = _psm_segments()
    pool = WorkerPool(2)
    results, _ = pool.run("segments.sum", _array_chunks(), None)
    assert results == [[int(np.arange(2048).sum())]] * 2
    pool.shutdown()
    assert _psm_segments() <= before


def test_pool_recreated_after_crash_and_faults_replay_once():
    from repro.data.generators import uniform_relation
    from repro.joins.hash_join import parallel_hash_join
    from repro.mpc.faults import CrashFault, FaultPlan, faulty

    R = uniform_relation("R", ("a", "b"), 200, universe=30, seed=11)
    S = uniform_relation("S", ("b", "c"), 200, universe=30, seed=12)
    plan = FaultPlan(crashes=(CrashFault(0, 1), CrashFault(0, 3)))

    with use_backend("inline"):
        with faulty(plan):
            reference = parallel_hash_join(R, S, 6)

    before = _psm_segments()
    with use_backend("process", workers=2):
        # Crash the shared pool mid-dispatch...
        crashed = get_pool(2)
        with pytest.raises(WorkerError):
            crashed.run("segments.kill", _array_chunks(), None)
        assert crashed._closed
        # ...then run a faulty query: get_pool must hand out a fresh
        # pool, and the coordinator-side fault replay must behave as if
        # nothing happened — injected once, replayed once, same output.
        with faulty(plan):
            run = parallel_hash_join(R, S, 6)
        assert get_pool(2) is not crashed
    assert run.output == reference.output
    assert run.stats.max_load == reference.stats.max_load
    fi, fp = reference.stats.faults, run.stats.faults
    assert fp is not None and fi is not None
    assert fp.injected == fi.injected > 0
    assert fp.rounds_replayed == fi.rounds_replayed
    assert fp.recovery_load == fi.recovery_load
    assert fp.clean
    assert _psm_segments() <= before
