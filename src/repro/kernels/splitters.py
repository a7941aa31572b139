"""Vectorized splitter search for range partitioning (PSRS).

``bucket_of`` is ``bisect_left``: the bucket of a key is the number of
splitters strictly below it. For integer keys that is one
``np.searchsorted``; for the (key, tie-break) integer pairs the sort
algorithms use, a short loop over the ``p - 1`` splitters evaluates the
lexicographic comparison vectorized over all n items — O(n·p) numpy ops,
which beats n Python-level bisects for the p ≪ n regime PSRS targets.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.kernels.columnar import comparable_int64


def _as_int64_column(values: Sequence[Any]) -> np.ndarray | None:
    """The values as comparable ``int64``, or ``None`` when numpy cannot hold
    them as integers. A splitter search only compares values, so a ``bool``
    may widen here (``np.asarray`` sniffs the type in C; the one column
    rule's exact type scan would double the cost)."""
    values = list(values)
    if not values:
        return np.empty(0, dtype=np.int64)
    try:
        column = np.asarray(values)
    except (ValueError, OverflowError):
        return None
    if column.ndim != 1 or column.dtype.kind not in "biu":
        return None
    return comparable_int64(column)


def searchsorted_buckets(
    keys: Sequence[Any], splitters: Sequence[Any]
) -> np.ndarray | None:
    """``bisect_left(splitters, k)`` for scalar integer keys, vectorized."""
    key_col = _as_int64_column(keys)
    splitter_col = _as_int64_column(splitters)
    if key_col is None or splitter_col is None:
        return None
    return np.searchsorted(splitter_col, key_col, side="left")


def lexicographic_buckets(
    key_columns: Sequence[np.ndarray], splitters: Sequence[tuple]
) -> np.ndarray:
    """``bisect_left`` over tuple keys given as parallel ``int64`` columns.

    ``bucket[i] = |{s in splitters : s < key_i lexicographically}|``.
    """
    n = len(key_columns[0])
    buckets = np.zeros(n, dtype=np.int64)
    for splitter in splitters:
        below = np.zeros(n, dtype=bool)
        prefix_equal = np.ones(n, dtype=bool)
        for column, splitter_value in zip(key_columns, splitter):
            value = np.int64(splitter_value)
            below |= prefix_equal & (value < column)
            prefix_equal &= column == value
        buckets += below
    return buckets


def tuple_buckets(
    keys: Sequence[tuple], splitters: Sequence[tuple]
) -> np.ndarray | None:
    """``bisect_left(splitters, k)`` for integer-tuple keys, vectorized.

    ``None`` when keys/splitters are not uniform integer tuples (mixed
    arity or non-integer elements force the scalar bisect fallback).
    """
    if not keys:
        return np.empty(0, dtype=np.int64)
    arity = len(keys[0]) if isinstance(keys[0], tuple) else 0
    if arity == 0:
        return None
    if any(not isinstance(s, tuple) or len(s) != arity for s in splitters):
        return None
    columns = []
    for c in range(arity):
        column = _as_int64_column([k[c] for k in keys])
        if column is None:
            return None
        columns.append(column)
    for splitter in splitters:
        if any(isinstance(v, bool) or not isinstance(v, int) for v in splitter):
            return None
    return lexicographic_buckets(columns, splitters)
