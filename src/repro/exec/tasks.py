"""The task registry: names workers use to find per-chunk functions.

A task is a module-level pure function ``fn(payloads, common) ->
results`` (elementwise over ``payloads``; see :mod:`repro.exec.base` for
the contract). Registering by *name* instead of shipping code objects
keeps messages tiny and spawn-safe: a worker resolves the name against
its own imported modules, so both sides are guaranteed to run the exact
same function — which is the whole byte-identity argument.

The cluster's local steps (:meth:`repro.mpc.cluster.Cluster.compute`)
are written per chunk, ``fn(tables, common) -> (columns, bounds)``, and
registered mapped over the chunks a backend hands them (:func:`_each`).

Population is lazy because the algorithm modules import the cluster,
which imports the backend layer; resolving at first use breaks the
cycle for free.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

TaskFn = Callable[[list[Any], Any], list[Any]]

_REGISTRY: dict[str, TaskFn] = {}


def _each(fn: Callable[[Any, Any], Any], chunks: list[Any], common: Any) -> list[Any]:
    """``fn`` over every chunk: a per-chunk local step as a task."""
    return [fn(chunk, common) for chunk in chunks]


def _populate() -> None:
    from repro.joins import base as joins_base
    from repro.matmul import sql as matmul_sql
    from repro.multiway import base as multiway_base
    from repro.multiway import hypercube
    from repro.sorting import psrs

    _REGISTRY.update(
        {
            name: partial(_each, fn)
            for name, fn in (
                ("join.fragments", joins_base.join_fragment_chunk),
                ("semijoin.filter", multiway_base.semijoin_filter_chunk),
                ("hypercube.eval", hypercube.hypercube_eval_chunk),
                ("matmul.partials", matmul_sql.matmul_partials_chunk),
                ("matmul.sums", matmul_sql.matmul_sums_chunk),
                ("psrs.sort", psrs.psrs_sort_chunk),
            )
        }
    )


def resolve(name: str) -> TaskFn:
    """The registered chunk function for ``name`` (raises KeyError style)."""
    if not _REGISTRY:
        _populate()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise LookupError(
            f"unknown exec task {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def register(name: str, fn: TaskFn) -> None:
    """Add a task (tests and future algorithms; must be importable in
    workers, i.e. a module-level function, for the process backend)."""
    if not _REGISTRY:
        _populate()
    _REGISTRY[name] = fn
