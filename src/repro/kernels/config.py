"""The kernel-rung reference hook.

The vectorized columnar kernels produce byte-identical results to the
pure-Python tuple loops, and which of the two runs is decided by the
input: every kernel site falls to the scalar rung when it observes a
column that is not integer-typed (``columns() is None``). Nothing a
user sets selects the rung.

:func:`use_kernels` is the one in-process hook that forces the scalar
rung on inputs the kernels *would* take: the equivalence suites and
``python -m repro selftest --kernels on|off|both`` use it to run the
tuple loops as the reference the kernels are compared against, and the
process backend ships the coordinator's value to its workers.

This module is import-light on purpose (stdlib only): the data layer
consults :func:`kernels_enabled` without pulling in numpy.

The forcing lives in a :class:`contextvars.ContextVar`, not a module
global: concurrent threads each see their own, and :mod:`repro.service`
propagates the submitter's context into its worker threads, so a forced
block still crosses the queue boundary.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

_enabled: ContextVar[bool] = ContextVar("repro_kernels_enabled", default=True)


def kernels_enabled() -> bool:
    """Whether the vectorized fast paths should be used right now."""
    return _enabled.get()


@contextmanager
def use_kernels(enabled: bool | None) -> Iterator[None]:
    """Scoped override: force kernels on/off inside the ``with`` block.

    ``None`` is a no-op (keep the ambient setting) so callers can thread
    an optional tri-state flag straight through.
    """
    if enabled is None:
        yield
        return
    token = _enabled.set(enabled)
    try:
        yield
    finally:
        _enabled.reset(token)
