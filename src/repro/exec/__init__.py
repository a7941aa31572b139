"""Pluggable execution backends for per-round local computation.

``inline`` (default) runs server-local work in the coordinating process
exactly as before; ``process`` fans it out over a persistent
multiprocessing worker pool where worker i owns the i-th contiguous
range of the p simulated servers, with payload bytes riding one frame
per worker over a pipe (blocks of 512 KiB and more take a
shared-memory segment). Select with ``REPRO_BACKEND=process`` /
``REPRO_WORKERS=4``, or in code::

    with use_backend("process", workers=4):
        run = parallel_hash_join(r, s, p=64)

Outputs, per-server loads, round counts, audit conservation, and
fault/recovery replay are byte-identical across backends: all cluster
state stays on the coordinator and both backends execute the same
registered pure functions (see :mod:`repro.exec.base`).
"""

from repro.exec.base import (
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    chunk_bounds,
    get_backend,
)
from repro.exec.config import (
    BACKENDS,
    backend_name,
    set_backend,
    use_backend,
    worker_count,
)
from repro.exec.pool import DispatchStats, WorkerError, shutdown_pools

__all__ = [
    "BACKENDS",
    "DispatchStats",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "WorkerError",
    "backend_name",
    "chunk_bounds",
    "get_backend",
    "set_backend",
    "shutdown_pools",
    "use_backend",
    "worker_count",
]
