"""Execution-backend selection.

Three layers, highest priority first, decide which backend runs the
per-server local computation of a round.

1. :func:`use_backend` / :func:`set_backend` — an explicit in-process
   override (the selftest's ``--backend both`` sweep uses it);
2. the environment — ``REPRO_BACKEND`` names the backend (``inline`` or
   ``process``) and ``REPRO_WORKERS`` the process-pool size;
3. the defaults: ``inline`` (the single-process simulator, and what the
   test tier runs under) and ``min(4, cpu_count)`` workers.

This module is import-light on purpose (stdlib only): resolving a
*name* must not fork a worker pool — pools are created lazily by
:func:`repro.exec.base.get_backend` the first time a ``process`` cluster
actually maps work.

The overrides live in :class:`contextvars.ContextVar` slots so
concurrent threads (the :mod:`repro.service` workers) each see their own
forcing; a thread that never forces anything falls through to the
environment defaults.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

BACKENDS = ("inline", "process")

_forced_backend: ContextVar[str | None] = ContextVar(
    "repro_backend_forced", default=None
)
_forced_workers: ContextVar[int | None] = ContextVar(
    "repro_workers_forced", default=None
)


def _validated_backend(name: str) -> str:
    name = name.strip().lower()
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; have {BACKENDS}")
    return name


def _validated_workers(value: int | str, source: str) -> int:
    try:
        workers = int(value)
    except (TypeError, ValueError):
        workers = 0
    if workers < 1:
        raise ValueError(f"invalid {source} {value!r}; need an integer of at least 1")
    return workers


def backend_name() -> str:
    """The backend clusters created right now inherit."""
    forced = _forced_backend.get()
    if forced is not None:
        return forced
    raw = os.environ.get("REPRO_BACKEND", "").strip().lower()
    return _validated_backend(raw) if raw else "inline"


def worker_count() -> int:
    """Process-pool size for the ``process`` backend (≥ 1)."""
    forced = _forced_workers.get()
    if forced is not None:
        return forced
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if raw:
        return _validated_workers(raw, "REPRO_WORKERS")
    return min(4, max(1, os.cpu_count() or 1))


def set_backend(name: str | None, workers: int | None = None) -> None:
    """Force the backend for this context (``None`` restores the env default).

    The forcing is scoped to the current :mod:`contextvars` context —
    process-wide for plain single-threaded programs, per-thread once
    threads are involved.
    """
    name = _validated_backend(name) if name is not None else None
    if workers is not None:
        workers = _validated_workers(workers, "workers")
    _forced_backend.set(name)
    _forced_workers.set(workers)


@contextmanager
def use_backend(name: str | None, workers: int | None = None) -> Iterator[None]:
    """Scoped override: run the block under the named backend.

    ``name=None`` is a no-op (keep the ambient setting) so callers can
    thread an optional flag straight through. ``workers`` only takes
    effect together with an explicit ``name``.
    """
    if name is None:
        yield
        return
    name = _validated_backend(name)
    if workers is not None:
        workers = _validated_workers(workers, "workers")
    backend_token = _forced_backend.set(name)
    worker_token = _forced_workers.set(workers) if workers is not None else None
    try:
        yield
    finally:
        if worker_token is not None:
            _forced_workers.reset(worker_token)
        _forced_backend.reset(backend_token)
