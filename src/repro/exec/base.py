"""Backend objects: who runs a round's per-server local computation.

A *task* is a registered module-level pure function
``fn(payloads: list, common) -> list`` that maps a chunk of per-server
payloads to the same-length list of per-server results, elementwise and
without cross-item state. That contract is what makes the two backends
interchangeable: ``inline`` calls the function once over the whole
payload list, ``process`` splits the list into one contiguous chunk per
worker and concatenates the chunk results in chunk order — for an
elementwise function the two compositions are the same function, so
outputs are byte-identical by construction.

Backends only execute; they own no servers, rounds, faults, or audit
state. All of that stays on the coordinator (see
:mod:`repro.mpc.cluster`), which is why loads, round counts, audit
conservation, and fault replay cannot diverge between backends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.exec import config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repro.mpc pkg)
    from repro.mpc.stats import ExecStats

__all__ = [
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "chunk_bounds",
    "get_backend",
]


def chunk_bounds(count: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous near-even split of ``range(count)`` into ``parts``.

    The first ``count % parts`` chunks get one extra element; empty
    chunks are omitted. Chunk i is worker i's contiguous server range.
    """
    if parts < 1:
        raise ValueError(f"need at least one part, got {parts}")
    base, extra = divmod(count, parts)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        if size:
            bounds.append((start, start + size))
            start += size
    return bounds


def _resolve_task(name: str) -> Callable[[list[Any], Any], list[Any]]:
    # Imported lazily: the task registry pulls in the algorithm modules,
    # which import this module through the cluster's local step
    # (Cluster.compute).
    from repro.exec import tasks

    return tasks.resolve(name)


class ExecutionBackend:
    """Interface both backends implement; also documents the contract."""

    name: str

    def new_stats(self) -> "ExecStats":
        raise NotImplementedError

    def map_payloads(
        self,
        task: str,
        payloads: list[Any],
        common: Any = None,
        stats: ExecStats | None = None,
    ) -> list[Any]:
        """Apply the named task to every payload, in order."""
        raise NotImplementedError

    def map_payload_batch(
        self,
        calls: list[tuple[str, list[Any], Any]],
        stats: ExecStats | None = None,
    ) -> list[list[Any]]:
        """Run several *independent* task maps as one dispatch.

        ``calls[k] = (task, payloads, common)``; the result list is
        call-aligned. The calls must not depend on each other's results
        (the process backend ships them in a single frame per worker).
        The default runs them sequentially — backends override to
        actually collapse the round-trips.
        """
        return [
            self.map_payloads(task, payloads, common, stats=stats)
            for task, payloads, common in calls
        ]


class InlineBackend(ExecutionBackend):
    """The historical single-process path: one chunk, zero transport."""

    name = "inline"

    def new_stats(self) -> "ExecStats":
        from repro.mpc.stats import ExecStats

        return ExecStats(backend=self.name, workers=1)

    def map_payloads(
        self,
        task: str,
        payloads: list[Any],
        common: Any = None,
        stats: ExecStats | None = None,
    ) -> list[Any]:
        if stats is not None:
            stats.dispatches += 1
            stats.chunks += 1
            stats.items += len(payloads)
        return _resolve_task(task)(list(payloads), common)


class ProcessBackend(ExecutionBackend):
    """Persistent worker pool; chunk i goes to worker i, merged in order."""

    name = "process"

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def new_stats(self) -> "ExecStats":
        from repro.mpc.stats import ExecStats

        return ExecStats(backend=self.name, workers=self.workers)

    def _chunked(self, payloads: list[Any]) -> list[tuple[int, list[Any]]]:
        return [
            (index, payloads[start:stop])
            for index, (start, stop) in enumerate(
                chunk_bounds(len(payloads), self.workers)
            )
        ]

    def _merge_elementwise(
        self, task: str, payloads: list[Any], chunk_results: list[list[Any]]
    ) -> list[Any]:
        merged: list[Any] = []
        for chunk_result in chunk_results:
            merged.extend(chunk_result)
        if len(merged) != len(payloads):
            raise RuntimeError(
                f"task {task!r} returned {len(merged)} results for "
                f"{len(payloads)} payloads; chunk results must be "
                "same-length elementwise maps"
            )
        return merged

    def map_payloads(
        self,
        task: str,
        payloads: list[Any],
        common: Any = None,
        stats: ExecStats | None = None,
    ) -> list[Any]:
        return self.map_payload_batch([(task, payloads, common)], stats=stats)[0]

    def map_payload_batch(
        self,
        calls: list[tuple[str, list[Any], Any]],
        stats: ExecStats | None = None,
    ) -> list[list[Any]]:
        """Collapse k independent task maps into one round-trip per worker."""
        calls = [(task, list(payloads), common) for task, payloads, common in calls]
        live = [
            (index, task, payloads, common)
            for index, (task, payloads, common) in enumerate(calls)
            if payloads
        ]
        out: list[list[Any]] = [[] for _ in calls]
        if not live:
            return out
        # The pool forks lazily, on first real work only.
        from repro.exec.pool import UnpicklablePayloadError, get_pool

        pool_calls = [
            (task, self._chunked(payloads), common)
            for _, task, payloads, common in live
        ]
        pool = get_pool(self.workers)
        try:
            results, dispatch = pool.run_batch(pool_calls)
        except UnpicklablePayloadError:
            # One unpicklable payload degrades the whole batch to inline
            # (the batch shares frames, so per-call retry would re-encode
            # everything anyway); counted once per lost call.
            if stats is not None:
                stats.fallbacks += len(live)
            for index, task, payloads, common in live:
                out[index] = _inline.map_payloads(task, payloads, common, stats=stats)
            return out
        if stats is not None:
            stats.dispatches += len(live)
            stats.chunks += sum(len(chunks) for _, chunks, _ in pool_calls)
            stats.items += sum(len(payloads) for _, _, payloads, _ in live)
            # DispatchStats names its transport counters as ExecStats does.
            stats.add(dispatch)
        for (index, task, payloads, _), chunk_results in zip(live, results):
            out[index] = self._merge_elementwise(task, payloads, chunk_results)
        return out


_inline = InlineBackend()
_process_backends: dict[int, ProcessBackend] = {}


def get_backend(spec: "str | ExecutionBackend | None" = None) -> ExecutionBackend:
    """Resolve a backend: an instance passes through, a name or ``None``
    consults :mod:`repro.exec.config` (``None`` = the ambient setting)."""
    if isinstance(spec, ExecutionBackend):
        return spec
    name = config._validated_backend(spec) if spec else config.backend_name()
    if name == "inline":
        return _inline
    workers = config.worker_count()
    backend = _process_backends.get(workers)
    if backend is None:
        backend = _process_backends[workers] = ProcessBackend(workers)
    return backend
