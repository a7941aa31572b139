"""Persistent multiprocessing worker pool for the ``process`` backend.

One pool per worker count lives for the rest of the interpreter
session — pools are expensive to start, and the whole point of a
*persistent* pool is that a run of b rounds pays the fork cost once,
not b times. Each worker is reached over one dedicated duplex pipe (so
chunk i deterministically lands on worker i, preserving the "worker
owns a contiguous server range" assignment): the frame goes out with
one ``send_bytes`` and the reply comes back on the same connection, so
arrival order never matters.

Dispatch protocol
-----------------

A frame is a pickled *batch*: a list of subjobs, each
``(task_name, encoded_payload)``. Independent task maps
(:meth:`WorkerPool.run_batch`) collapse into one round-trip per worker
instead of one per map; a single map is just a batch of one. Payload
bytes ride the frame unless a block is worth a segment
(:mod:`repro.exec.shm`). A worker keeps nothing between frames, so every
dispatch is a cold start.

A pipe is unbuffered beyond the kernel's few kilobytes, so a large
frame blocks its writer until the peer reads. Three rules keep that
deadlock-free: a batch is *one frame per worker*; a worker reads its
whole frame before it computes (and so before it writes); the
coordinator writes every frame before it reads any reply. A worker
blocked writing a large reply therefore waits only for a coordinator
that is writing to *other* workers, each of which is reading.

Liveness is the process sentinel, not end-of-file: the collect loop
waits on the pending connections *and* every worker's sentinel, so a
dead worker wakes it at once. (Forked siblings inherit each other's
pipe ends, which would hold an end-of-file back; a worker closes the
ends it does not own.)

Segment lifecycle
-----------------

The coordinator registers every outbound shared-memory segment under
its worker until the worker's reply proves the inputs were consumed
(workers unlink after reading), and registers inbound result segments
until they are decoded. A worker crash, an exception, or a
``KeyboardInterrupt`` mid-dispatch therefore has a complete name list
to unlink — no segment outlives the pool, whatever the exit path.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any

from repro.exec import shm

__all__ = [
    "DispatchStats",
    "UnpicklablePayloadError",
    "WorkerError",
    "WorkerPool",
    "get_pool",
    "shutdown_pools",
]

def _start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _worker_main(worker_index: int, conn: Any, inherited: tuple[Any, ...]) -> None:
    """Worker loop: read a frame, run each task, encode results, reply."""
    # Imports happen here (not at module top) so a spawn-started child
    # pays them once, and so fork-started children re-resolve nothing.
    from repro.exec import config as exec_config
    from repro.exec import tasks as task_registry

    for other in inherited:  # the coordinator's ends a fork handed us
        other.close()
    # A task running inside a worker must never fork its own pool.
    exec_config.set_backend("inline")
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):  # the coordinator is gone
            break
        if not frame:  # the empty frame is the shutdown request
            break
        subjobs = pickle.loads(frame)
        started = time.perf_counter()
        results: list[shm.ShmEncoded] = []
        reply: Any
        ok = True
        index = 0
        try:
            for index, (task_name, encoded) in enumerate(subjobs):
                (chunk, common), segment = shm.decode_for_read(encoded)
                try:
                    result = task_registry.resolve(task_name)(chunk, common)
                    # Before the input goes: a result may be a view of it
                    # (a one-atom residual's eval projects its fragment).
                    results.append(shm.encode_payload(result))
                finally:
                    shm.finish_read(segment)
            reply = results
        except BaseException:
            # Nothing of this batch may leak: release results already
            # encoded and the inputs of the failing + unprocessed
            # subjobs (already-unlinked segments are tolerated).
            for encoded_result in results:
                shm.release_payload(encoded_result)
            for _, encoded in subjobs[index:]:
                shm.release_payload(encoded)
            reply = f"worker {worker_index}: {traceback.format_exc()}"
            ok = False
        conn.send_bytes(
            pickle.dumps(
                (ok, reply, time.perf_counter() - started),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )


class WorkerError(RuntimeError):
    """A task raised inside a worker; carries the remote traceback text."""


class UnpicklablePayloadError(TypeError):
    """A job carried an object that cannot be serialized.

    Raised *before* anything is written (every frame is built in the
    coordinator before the first one goes out), so the workers are exactly
    as they were; the backend falls back to inline execution for the whole
    map call.
    """


@dataclass
class DispatchStats:
    """Transport accounting of one :meth:`WorkerPool.run_batch` call."""

    shm_bytes_out: int = 0  # segment bytes coordinator -> workers
    shm_bytes_in: int = 0  # segment bytes workers -> coordinator
    pickle_bytes_out: int = 0  # frame bytes on the pipes, in-band blocks included
    pickle_bytes_in: int = 0
    worker_seconds: float = 0.0
    queue_messages: int = 0  # frames written (one per participating worker)


class WorkerPool:
    """A fixed-size pool of persistent task-executing processes."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        method = _start_method()
        context = multiprocessing.get_context(method)
        self._connections: list[Any] = []
        self._processes: list[Any] = []
        for index in range(workers):
            ours, theirs = context.Pipe()
            self._connections.append(ours)
            process = context.Process(
                target=_worker_main,
                # A forked child holds every coordinator end made so far.
                args=(index, theirs, tuple(self._connections) if method == "fork" else ()),
                daemon=True,
                name=f"repro-exec-{index}",
            )
            process.start()
            theirs.close()
            self._processes.append(process)
        self._closed = False
        self._dispatch_lock = threading.Lock()
        # Abnormal-shutdown ledger: outbound segment names by worker
        # (dropped when the worker's reply arrives — it unlinks inputs
        # after reading) and inbound result segment names not yet
        # decoded. Everything still listed at teardown is unlinked.
        self._inflight: dict[int, list[str]] = {}
        self._pending_results: set[str] = set()

    # ------------------------------------------------------------ dispatch

    def run(
        self,
        task_name: str,
        chunks: list[tuple[int, list[Any]]],
        common: Any,
    ) -> tuple[list[list[Any]], DispatchStats]:
        """Run one task over ``(worker_index, payload_chunk)`` pairs.

        A batch of one: results arrive in chunk order regardless of
        completion order, which is what makes the merge deterministic.
        """
        results, stats = self.run_batch([(task_name, chunks, common)])
        return results[0], stats

    def run_batch(
        self,
        calls: list[tuple[str, list[tuple[int, list[Any]]], Any]],
    ) -> tuple[list[list[list[Any]]], DispatchStats]:
        """Run several independent task maps in one round-trip per worker.

        ``calls[k] = (task_name, chunks, common)`` with ``chunks`` a list
        of ``(worker_index, payload_chunk)`` pairs. Every worker that
        appears in any call receives exactly one frame carrying all of
        its subjobs in call order, so k dependent-free maps cost one
        dispatch instead of k. Returns per-call, per-chunk results
        (``out[k][i]`` = call k's chunk i) plus the batch's
        :class:`DispatchStats`.
        """
        # One batch at a time: the protocol is one frame per worker per
        # batch, and concurrent callers (service worker threads) would
        # interleave frames and collect each other's replies.
        with self._dispatch_lock:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            stats = DispatchStats()

            # Group subjobs by target worker, preserving call order within
            # each worker (the worker executes them sequentially).
            by_worker: dict[int, list[tuple[int, int, str, list[Any], Any]]] = {}
            for call_index, (task_name, chunks, common) in enumerate(calls):
                for chunk_pos, (worker_index, chunk) in enumerate(chunks):
                    by_worker.setdefault(worker_index % self.workers, []).append(
                        (call_index, chunk_pos, task_name, chunk, common)
                    )

            # Build every frame before writing any of them: a
            # serialization failure (a closure key, an exotic item type)
            # must raise here, where the backend can fall back to inline.
            # worker -> (frame, (call, chunk) per subjob, outbound segments)
            jobs: dict[int, tuple[bytes, list[tuple[int, int]], list[str]]] = {}
            encodeds: list[shm.ShmEncoded] = []
            try:
                for worker_index, subjobs in sorted(by_worker.items()):
                    wire_subjobs = []
                    meta = []
                    segments: list[str] = []
                    for call_index, chunk_pos, task_name, chunk, common in subjobs:
                        encoded = shm.encode_payload((chunk, common))
                        encodeds.append(encoded)
                        stats.shm_bytes_out += encoded.nbytes
                        if encoded.segment_name is not None:
                            segments.append(encoded.segment_name)
                        wire_subjobs.append((task_name, encoded))
                        meta.append((call_index, chunk_pos))
                    frame = pickle.dumps(wire_subjobs, protocol=pickle.HIGHEST_PROTOCOL)
                    stats.pickle_bytes_out += len(frame)
                    jobs[worker_index] = (frame, meta, segments)
            except (pickle.PicklingError, TypeError, AttributeError) as error:
                for encoded in encodeds:
                    shm.release_payload(encoded)
                raise UnpicklablePayloadError(
                    f"batch payload is not picklable: {error}"
                ) from error
            stats.queue_messages = len(jobs)

            try:
                for worker_index, (frame, _, segments) in jobs.items():
                    self._inflight[worker_index] = segments
                    self._connections[worker_index].send_bytes(frame)
                per_call: list[list[Any]] = [
                    [None] * len(chunks) for _, chunks, _ in calls
                ]
                pending = {self._connections[index]: index for index in jobs}
                sentinels = {process.sentinel for process in self._processes}
                failure: str | None = None
                while pending:
                    ready = connection.wait([*pending, *sentinels])
                    if sentinels.intersection(ready):
                        raise EOFError("a worker exited")
                    for conn in ready:
                        worker_index = pending.pop(conn)
                        reply_frame = conn.recv_bytes()
                        stats.pickle_bytes_in += len(reply_frame)
                        ok, reply, elapsed = pickle.loads(reply_frame)
                        stats.worker_seconds += elapsed
                        # The worker consumed (and unlinked) this job's inputs.
                        self._inflight.pop(worker_index, None)
                        if not ok:
                            # Collect the remaining replies before raising so
                            # their shared memory is released, not leaked.
                            if failure is None:
                                failure = reply
                            continue
                        self._pending_results.update(
                            encoded_result.segment_name
                            for encoded_result in reply
                            if encoded_result.segment_name is not None
                        )
                        for (call_index, chunk_pos), encoded_result in zip(
                            jobs[worker_index][1], reply
                        ):
                            if failure is not None:
                                shm.release_payload(encoded_result)
                            else:
                                stats.shm_bytes_in += encoded_result.nbytes
                                per_call[call_index][chunk_pos] = shm.decode_owned(
                                    encoded_result
                                )
                            self._pending_results.discard(encoded_result.segment_name)
                if failure is not None:
                    # A *task* failure is a clean protocol event: the pool
                    # stays alive — every segment was drained above.
                    raise WorkerError(failure)
            except WorkerError:
                raise
            except (EOFError, ConnectionError):
                # A sentinel fired or a pipe broke under us. The pool is
                # unusable: terminate survivors and unlink everything
                # still registered before surfacing the crash.
                dead = [p.name for p in self._processes if not p.is_alive()]
                self._emergency_teardown()
                raise WorkerError(
                    f"worker process(es) died while jobs were pending: {dead}"
                ) from None
            except BaseException:
                # KeyboardInterrupt or any unexpected coordinator-side error
                # mid-collect: in-flight state is indeterminate, so tear the
                # pool down and unlink everything still registered.
                self._emergency_teardown()
                raise
            return per_call, stats

    # ------------------------------------------------------------ teardown

    def _release_segments(self) -> None:
        """Unlink every segment a reply parked on a pipe or the ledger lists."""
        for conn in self._connections:
            try:
                while conn.poll(0):
                    ok, reply, _elapsed = pickle.loads(conn.recv_bytes())
                    if ok:
                        for encoded_result in reply:
                            shm.release_payload(encoded_result)
            except (EOFError, OSError):
                pass  # closed, or a frame its dead writer never finished
            conn.close()
        for segments in self._inflight.values():
            for name in segments:
                shm.unlink_segment(name)
        self._inflight.clear()
        for name in self._pending_results:
            shm.unlink_segment(name)
        self._pending_results.clear()

    def _emergency_teardown(self) -> None:
        """Kill the pool and unlink every registered segment."""
        self._closed = True
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=1.0)
        self._release_segments()

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._connections:
            try:
                conn.send_bytes(b"")
            except OSError:  # pragma: no cover - worker already gone
                pass
        for process in self._processes:
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - stuck task
                process.terminate()
                process.join(timeout=1.0)
        self._release_segments()


_pools: dict[int, WorkerPool] = {}
# Lookup-or-fork is one step: two threads making their first process
# dispatch together must not each fork a pool (the loser's workers would
# be orphaned until interpreter exit).
_pools_lock = threading.Lock()


def get_pool(workers: int) -> WorkerPool:
    """The persistent pool of this size, forking lazily."""
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None or pool._closed:
            pool = _pools[workers] = WorkerPool(workers)
        return pool


@atexit.register
def shutdown_pools() -> None:
    """Stop every live pool (registered atexit; callable from tests)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown()
