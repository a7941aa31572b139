"""The one linear-program entry point, memoized by value.

Every LP of the tutorial — the edge packing / cover programs behind τ*,
ρ* and ψ* (:mod:`repro.query.fractional`) and the HyperCube share
program (:mod:`repro.query.shares`) — is a function of the query's
hypergraph (plus, for shares, the relation sizes and ``p``) and of
nothing else. :func:`solve` is the only ``linprog`` call site of the
library and remembers each program it has solved under a key that *is*
the whole input, so there is nothing to invalidate: no token, no
relation, no staleness. HiGHS is deterministic for identical input, so
a hit returns exactly the floats a fresh solve would.

Beside the programs, :func:`derived` keeps whole the quantities that are
functions of the atoms (and ``p``) alone: ψ* (one program per residual),
the query's shape record (:func:`repro.query.shape.shape`: τ*, ρ*,
acyclicity, connectivity, the GYO join tree and the width-1 GHD) and
HyperCube's grid tables (:func:`repro.query.shares.optimal_shares`). A
repeat reads them without building — or looking up — any program, and a
plan looks up none at all: the share program, whose right-hand side
holds the relation sizes, is solved only when a caller reads the
fractional optimum.

This is not relation-derived state:
:func:`repro.kernels.memo.clear_memo` and ``forget`` do not touch it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy.optimize import linprog

from repro.errors import OptimizationError
from repro.kernels.memo import LRU

_solved = LRU(1024)
# Quantities that are a function of the atoms and p alone (ψ*, the shape
# record, the share grid tables), by whatever names the atom tuple.
_derived: dict = {}


def solve(c: Sequence[float], a_ub: Sequence[Sequence[float]],
          b_ub: Sequence[float],
          bounds: Sequence[tuple[float | None, float | None]],
          ) -> tuple[float, tuple[float, ...]]:
    """``min c·x  s.t.  a_ub·x ≤ b_ub``, ``lo ≤ x ≤ hi`` → ``(fun, x)``.

    The result is immutable and shared between callers. An infeasible or
    unbounded program raises :class:`~repro.errors.OptimizationError` on
    every call and is never stored. Two threads that miss the same key
    both solve and store the same value — the cache's lock is never held
    across a solve.
    """
    c = np.ascontiguousarray(c, dtype=np.float64)
    a_ub = np.ascontiguousarray(a_ub, dtype=np.float64)
    b_ub = np.ascontiguousarray(b_ub, dtype=np.float64)
    bounds = tuple(map(tuple, bounds))
    key = (c.tobytes(), a_ub.shape, a_ub.tobytes(), b_ub.tobytes(), bounds)
    solved = _solved.get(key)
    if solved is None:
        result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=list(bounds),
                         method="highs")
        if not result.success:
            raise OptimizationError(f"LP failed: {result.message}")
        solved = (float(result.fun), tuple(float(v) for v in result.x))
        _solved.put(key, solved)
    return solved


def derived(key, compute):
    """``compute()`` under ``key``, once: the programs it solves still go
    through :func:`solve`, a repeat builds none of them. ``key`` is the
    whole input, as for :func:`solve`; racing threads both compute and
    store the same value."""
    value = _derived.get(key)
    if value is None:
        if len(_derived) >= _solved.capacity:
            _derived.clear()
        value = _derived[key] = compute()
    return value


def counters() -> tuple[int, int, int, int, int]:
    """``(hits, misses, evictions, dropped, size)`` of the LP memo.

    ``misses`` is the number of programs actually handed to HiGHS
    (failed solves included).
    """
    return _solved.counters()


def clear() -> None:
    """Forget every solved program and derived quantity (test isolation)."""
    _solved.clear()
    _derived.clear()
