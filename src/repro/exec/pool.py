"""Persistent multiprocessing worker pool for the ``process`` backend.

One pool per worker count lives for the rest of the interpreter
session — pools are expensive to start, and the whole point of a
*persistent* pool is that a run of b rounds pays the fork cost once,
not b times. Each worker owns one dedicated task queue (so chunk
i deterministically lands on worker i, preserving the "worker owns a
contiguous server range" assignment) and all workers share one result
queue; the coordinator reassembles results by job id, so arrival order
never matters.

Dispatch protocol
-----------------

A queue message is a *batch*: ``(job_id, epoch, [subjob, ...])`` where
each subjob is ``(task_name, encoded_payload, kernels_flag)``.
Independent task maps (:meth:`WorkerPool.run_batch`) collapse into one
round-trip per worker instead of one per map; a single map is just a
batch of one. ``epoch`` is the resident-state epoch: workers keep a
content-addressed :class:`~repro.exec.shm.BlockCache` of payload blocks
between dispatches, the coordinator mirrors it per worker
(:class:`~repro.exec.shm.MirrorCache`), and bumping the epoch tells the
worker to drop everything — the wholesale invalidation path that keeps
faults, recovery, and explicit resets byte-identical to a cold start.

Segment lifecycle
-----------------

The coordinator registers every outbound shared-memory segment under
its job id until the worker's reply proves the inputs were consumed
(workers unlink after reading), and registers inbound result segments
until they are decoded. A worker crash, an exception, or a
``KeyboardInterrupt`` mid-dispatch therefore has a complete name list
to unlink — no segment outlives the pool, whatever the exit path.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import queue as queue_module
import threading
import time
import traceback
from dataclasses import dataclass
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

# Generous per-poll timeout: only used to interleave liveness checks
# with blocking result reads, never as a job deadline.
_POLL_SECONDS = 1.0

# Budget of one worker's resident block cache (coordinator mirror +
# worker copy). Crossing it bumps the state epoch instead of evicting
# piecemeal: the worker drops its whole cache on the next dispatch and
# blocks are re-shipped as they recur, so there is no distributed LRU
# to drift.
_RESIDENT_BYTES = 128 * 1024 * 1024


def _start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _worker_main(worker_index: int, task_queue: Any, result_queue: Any) -> None:
    """Worker loop: decode batch, run each task, encode results, reply."""
    # Imports happen here (not at module top) so a spawn-started child
    # pays them once, and so fork-started children re-resolve nothing.
    from repro.exec import config as exec_config
    from repro.exec import tasks as task_registry
    from repro.kernels.config import use_kernels

    # A task running inside a worker must never fork its own pool.
    exec_config.set_backend("inline")
    cache = shm.BlockCache()
    while True:
        blob = task_queue.get()
        if blob is None:
            break
        job_id, epoch, subjobs = pickle.loads(blob)
        cache.sync_epoch(epoch)
        started = time.perf_counter()
        results: list[shm.ShmEncoded] = []
        reply: Any
        ok = True
        index = 0
        try:
            for index, (task_name, encoded, kernels_flag) in enumerate(subjobs):
                (chunk, common), segment = shm.decode_for_read(encoded, cache)
                try:
                    fn = task_registry.resolve(task_name)
                    with use_kernels(kernels_flag):
                        result = fn(chunk, common)
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
            for _, encoded, _ in subjobs[index:]:
                shm.release_payload(encoded)
            reply = f"worker {worker_index}: {traceback.format_exc()}"
            ok = False
        # The result rides the queue as an explicit pickle blob (instead
        # of letting the queue pickle the tuple internally) so the
        # coordinator can account the bytes that did NOT make it into
        # shared memory — the pickle_bytes_in half of the transport
        # story the benchmarks compare.
        result_queue.put(
            pickle.dumps(
                (job_id, ok, reply, time.perf_counter() - started),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )


class WorkerError(RuntimeError):
    """A task raised inside a worker; carries the remote traceback text."""


class UnpicklablePayloadError(TypeError):
    """A job carried an object the queue cannot serialize.

    Raised *before* anything is enqueued (jobs are pre-pickled in the
    coordinator precisely so this surfaces synchronously instead of
    dying in the queue's feeder thread and hanging the collect loop);
    the backend falls back to inline execution for the whole map call.
    """


@dataclass
class DispatchStats:
    """Transport accounting of one :meth:`WorkerPool.run_batch` call."""

    shm_bytes_out: int = 0
    shm_bytes_in: int = 0
    pickle_bytes_out: int = 0
    pickle_bytes_in: int = 0
    worker_seconds: float = 0.0
    queue_messages: int = 0  # messages enqueued (one per participating worker)
    snapshot_dispatches: int = 0  # messages that shipped a full snapshot
    resident_hits: int = 0  # blocks that traveled as tokens, not bytes
    resident_misses: int = 0  # cacheable blocks that had to ship
    resident_bytes_saved: int = 0  # bytes the hits did not re-ship
    fallback_rows: int = 0  # pack-eligible rows that rode the pickle stream
    fallback_dispatches: int = 0  # payload encodes with at least one such list


class WorkerPool:
    """A fixed-size pool of persistent task-executing processes."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        context = multiprocessing.get_context(_start_method())
        self._task_queues = [context.Queue() for _ in range(workers)]
        self._result_queue = context.Queue()
        self._processes = [
            context.Process(
                target=_worker_main,
                args=(index, self._task_queues[index], self._result_queue),
                daemon=True,
                name=f"repro-exec-{index}",
            )
            for index in range(workers)
        ]
        for process in self._processes:
            process.start()
        self._closed = False
        self._dispatch_lock = threading.Lock()
        self._mirrors = [shm.MirrorCache(_RESIDENT_BYTES) for _ in range(workers)]
        # Abnormal-shutdown ledger: outbound segment names by job id
        # (dropped when the worker's reply arrives — it unlinks inputs
        # after reading) and inbound result segment names not yet
        # decoded. Everything still listed at teardown is unlinked.
        self._inflight: dict[int, list[str]] = {}
        self._pending_results: set[str] = set()

    # ------------------------------------------------------------ dispatch

    def invalidate_resident(self) -> None:
        """Bump every worker's state epoch on its next dispatch.

        The explicit invalidation path: callers that mutated ambient
        state a cached block may alias (none do today — blocks are
        content-addressed copies) or that want a cold-start measurement
        on a shared pool get a guaranteed empty worker cache.
        """
        for mirror in self._mirrors:
            mirror.invalidate()

    def run(
        self,
        task_name: str,
        chunks: list[tuple[int, list[Any]]],
        common: Any,
        kernels_flag: bool,
    ) -> tuple[list[list[Any]], DispatchStats]:
        """Run one task over ``(worker_index, payload_chunk)`` pairs.

        A batch of one: results arrive in chunk order regardless of
        completion order, which is what makes the merge deterministic.
        """
        results, stats = self.run_batch([(task_name, chunks, common)], kernels_flag)
        return results[0], stats

    def run_batch(
        self,
        calls: list[tuple[str, list[tuple[int, list[Any]]], Any]],
        kernels_flag: bool,
    ) -> tuple[list[list[list[Any]]], DispatchStats]:
        """Run several independent task maps in one round-trip per worker.

        ``calls[k] = (task_name, chunks, common)`` with ``chunks`` a list
        of ``(worker_index, payload_chunk)`` pairs. Every worker that
        appears in any call receives exactly one queue message carrying
        all of its subjobs in call order, so k dependent-free maps cost
        one dispatch instead of k. Returns per-call, per-chunk results
        (``out[k][i]`` = call k's chunk i) plus the batch's
        :class:`DispatchStats`.
        """
        # One batch at a time: job ids restart at 0 per call and every
        # thread reads the one shared result queue, so concurrent callers
        # (service worker threads) would collect each other's replies.
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

            # Encode and pre-pickle every message before enqueueing any of
            # them: a serialization failure (a closure key, an exotic item
            # type) must raise here, where the backend can fall back to
            # inline — a failure inside the queue's feeder thread would
            # silently drop the job and deadlock the collect loop below.
            # Mirror staging is committed only after every blob pickled, so
            # an abort leaves the mirrors exactly as before the call.
            blobs: list[tuple[int, int, bytes]] = []  # (worker, job_id, blob)
            job_meta: dict[int, list[tuple[int, int]]] = {}
            job_segments: dict[int, list[str]] = {}
            encodeds: list[shm.ShmEncoded] = []
            try:
                for job_id, (worker_index, subjobs) in enumerate(
                    sorted(by_worker.items())
                ):
                    mirror = self._mirrors[worker_index]
                    epoch = mirror.begin_message()
                    wire_subjobs = []
                    meta = []
                    segments: list[str] = []
                    message_hits = 0
                    for call_index, chunk_pos, task_name, chunk, common in subjobs:
                        encoded = shm.encode_payload((chunk, common), mirror=mirror)
                        encodeds.append(encoded)
                        stats.shm_bytes_out += encoded.nbytes
                        message_hits += encoded.resident
                        stats.resident_bytes_saved += encoded.resident_bytes
                        stats.resident_misses += sum(
                            1 for token in encoded.tokens if token is not None
                        )
                        stats.fallback_rows += encoded.fallback_rows
                        if encoded.fallback_rows:
                            stats.fallback_dispatches += 1
                        if encoded.segment_name is not None:
                            segments.append(encoded.segment_name)
                        wire_subjobs.append((task_name, encoded, kernels_flag))
                        meta.append((call_index, chunk_pos))
                    blob = pickle.dumps(
                        (job_id, epoch, wire_subjobs),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                    stats.pickle_bytes_out += len(blob)
                    stats.resident_hits += message_hits
                    if message_hits == 0:
                        # Nothing rode the resident cache: this message is a
                        # full payload snapshot.
                        stats.snapshot_dispatches += 1
                    blobs.append((worker_index, job_id, blob))
                    job_meta[job_id] = meta
                    job_segments[job_id] = segments
            except (pickle.PicklingError, TypeError, AttributeError) as error:
                for mirror in self._mirrors:
                    mirror.abort()
                for encoded in encodeds:
                    shm.release_payload(encoded)
                raise UnpicklablePayloadError(
                    f"batch payload is not picklable: {error}"
                ) from error
            for mirror in self._mirrors:
                mirror.commit()
            stats.queue_messages = len(blobs)

            try:
                for worker_index, job_id, blob in blobs:
                    self._inflight[job_id] = job_segments[job_id]
                    self._task_queues[worker_index].put(blob)
                per_call: list[list[Any]] = [
                    [None] * len(chunks) for _, chunks, _ in calls
                ]
                pending = len(blobs)
                failure: str | None = None
                while pending:
                    try:
                        result_blob = self._result_queue.get(timeout=_POLL_SECONDS)
                    except queue_module.Empty:
                        dead = [p.name for p in self._processes if not p.is_alive()]
                        if dead:
                            # The pool is unusable: terminate survivors and
                            # unlink everything still registered before
                            # surfacing the crash.
                            self._emergency_teardown()
                            raise WorkerError(
                                f"worker process(es) died while jobs were "
                                f"pending: {dead}"
                            )
                        continue
                    pending -= 1
                    stats.pickle_bytes_in += len(result_blob)
                    job_id, ok, reply, elapsed = pickle.loads(result_blob)
                    stats.worker_seconds += elapsed
                    # The worker consumed (and unlinked) this job's inputs.
                    self._inflight.pop(job_id, None)
                    if not ok:
                        # Drain remaining jobs before raising so their
                        # shared memory is released rather than leaked.
                        if failure is None:
                            failure = reply
                        continue
                    for encoded_result in reply:
                        if encoded_result.segment_name is not None:
                            self._pending_results.add(encoded_result.segment_name)
                    if failure is not None:
                        for encoded_result in reply:
                            shm.release_payload(encoded_result)
                            self._pending_results.discard(encoded_result.segment_name)
                        continue
                    for (call_index, chunk_pos), encoded_result in zip(
                        job_meta[job_id], reply
                    ):
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
            except BaseException:
                # KeyboardInterrupt or any unexpected coordinator-side error
                # mid-collect: in-flight state is indeterminate, so tear the
                # pool down and unlink everything still registered.
                self._emergency_teardown()
                raise
            return per_call, stats

    # ------------------------------------------------------------ teardown

    def _release_registered_segments(self) -> None:
        """Unlink every segment still on the abnormal-shutdown ledger."""
        for segments in self._inflight.values():
            for name in segments:
                _unlink_segment(name)
        self._inflight.clear()
        for name in self._pending_results:
            _unlink_segment(name)
        self._pending_results.clear()

    def _drain_result_queue(self) -> None:
        """Best-effort release of result segments parked in the queue."""
        while True:
            try:
                result_blob = self._result_queue.get_nowait()
            except (queue_module.Empty, ValueError, OSError):
                return
            try:
                job_id, ok, reply, _elapsed = pickle.loads(result_blob)
            except Exception:  # pragma: no cover - truncated blob
                continue
            self._inflight.pop(job_id, None)
            if ok:
                for encoded_result in reply:
                    shm.release_payload(encoded_result)

    def _emergency_teardown(self) -> None:
        """Kill the pool and unlink every registered segment."""
        self._closed = True
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=1.0)
        self._drain_result_queue()
        self._release_registered_segments()

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except (ValueError, OSError):  # pragma: no cover - interp exit
                pass
        for process in self._processes:
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - stuck task
                process.terminate()
                process.join(timeout=1.0)
        self._drain_result_queue()
        self._release_registered_segments()


def _unlink_segment(name: str) -> None:
    """Unlink one segment by name, tolerating every already-gone state."""
    try:
        segment = shm.attach_segment(name)
    except (FileNotFoundError, OSError):
        return
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - raced with the worker
        pass
    try:
        segment.close()
    except BufferError:  # pragma: no cover - defensive
        pass


_pools: dict[int, WorkerPool] = {}


def get_pool(workers: int) -> WorkerPool:
    """The persistent pool of this size, forking lazily."""
    pool = _pools.get(workers)
    if pool is None or pool._closed:
        pool = WorkerPool(workers)
        _pools[workers] = pool
    return pool


@atexit.register
def shutdown_pools() -> None:
    """Stop every live pool (registered atexit; callable from tests)."""
    for pool in list(_pools.values()):
        pool.shutdown()
    _pools.clear()
