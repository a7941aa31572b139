"""Row-list ⇄ column-array conversion with strict type gating.

The vectorized paths only apply when a column is *losslessly*
representable as a 64-bit integer array. Anything else — floats (numpy
would silently truncate), strings, ``None``, nested tuples, ints outside
64-bit range — stays a plain value list, which the kernels code through
one dict over its distinct values (:func:`value_codes`). Booleans are
accepted and widened, mirroring the scalar hash spec's canonical form
(and Python's ``True == 1`` key semantics in dict-based joins).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from typing import Any

import numpy as np

Row = tuple[Any, ...]

_INT64_MAX = np.iinfo(np.int64).max


def column_array(values: Sequence[Any]) -> np.ndarray | None:
    """The values as a 1-D integer array, or ``None`` if types forbid it.

    ``np.asarray`` does the C-speed type sniffing: a list with any
    non-integer member comes back with a non-integer dtype (or raises on
    ragged input) and is rejected.
    """
    if not isinstance(values, list):
        values = list(values)
    if not values:
        return np.empty(0, dtype=np.int64)
    try:
        arr = np.asarray(values)
    except (ValueError, OverflowError):
        return None
    if arr.ndim != 1 or arr.dtype.kind not in "biu":
        return None
    return arr


def key_column(values: Any) -> "np.ndarray | list":
    """One key column as the kernels take it: an integer array as is, a
    value list as the exact integer array numpy makes of it, else as is."""
    if isinstance(values, np.ndarray):
        return values
    column = column_array(values)
    return values if column is None else column


def key_columns(rows: Sequence[Row], key_idx: Sequence[int]) -> list:
    """One :func:`key_column` per key position of ``rows``."""
    return [key_column([row[i] for row in rows]) for i in key_idx]


def exact(columns: Sequence[Any]) -> bool:
    """Whether every column is an integer array (else: some value list)."""
    return all(isinstance(column, np.ndarray) for column in columns)


def exact_columns(rows: Sequence[Row], key_idx: Sequence[int]) -> list[np.ndarray] | None:
    """:func:`key_columns` as integer arrays, refused unless every value of
    ``rows`` is a built-in ``int``: only then does ``tolist()`` rebuild the
    very tuples (a widened ``bool`` or a numpy scalar would come back as a
    plain int), so only such columns may stand in for the rows."""
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        columns = key_columns(rows, key_idx)
        if exact(columns):
            return columns
    return None


def held_columns(relation: Any) -> list:
    """One sequence per attribute of ``relation``: its exact integer arrays,
    else plain value lists (the form of every relation holding a
    non-integer). Index arithmetic reads either through :func:`take` and
    :func:`zip_rows`."""
    columns = relation.columns()
    if columns is None:
        columns = [relation.column(a) for a in relation.schema.attributes]
    return columns


def value_codes(keys: Sequence[Any]) -> tuple[np.ndarray, list]:
    """``(codes, distinct)``: per key the index in ``distinct`` — the keys
    in first-seen order — of the one equal to it. One dict over the keys,
    so equal means Python ``==`` (``1``, ``1.0`` and ``True`` share a code)."""
    index: dict = {}
    codes = np.fromiter(
        (index.setdefault(key, len(index)) for key in keys), dtype=np.int64, count=len(keys)
    )
    return codes, list(index)


def take(column: Any, indices: np.ndarray) -> Any:
    """``column`` at ``indices``: an array by fancy index, a list value by value."""
    if isinstance(column, np.ndarray):
        return column[indices]
    return [column[i] for i in indices.tolist()]


def zip_rows(columns: Sequence[Any]) -> list[Row]:
    """The tuples whose columns these are (arrays yield built-in ints)."""
    return list(zip(*(
        c.tolist() if isinstance(c, np.ndarray) else c for c in columns
    )))


def comparable_int64(column: np.ndarray) -> np.ndarray | None:
    """The column as ``int64`` preserving value-comparison semantics.

    Used by the join/semijoin/splitter kernels, which compare key values
    rather than hash them: ``uint64`` values above ``int64`` range cannot
    be represented and force the fallback (reinterpreting them would
    collide with negative keys).
    """
    if column.dtype.kind == "u":
        if len(column) and int(column.max()) > _INT64_MAX:
            return None
        return column.astype(np.int64)
    return column.astype(np.int64, copy=False)


def _dense_codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Order-preserving dense codes of ``values`` and how many there are."""
    _, inv = np.unique(values, return_inverse=True)
    inv = inv.reshape(-1).astype(np.int64, copy=False)
    return inv, int(inv.max()) + 1


def pack_columns(columns: Sequence[np.ndarray], dense: bool = False) -> np.ndarray | None:
    """One ``int64`` code per row that compares — equal, less — exactly as the
    rows' value tuples do: mixed radix over each ``int64`` column's
    ``value - min``, no sort. Where the spans' product would leave 62 bits:
    ``None``, or with ``dense`` that column — then the prefix — is replaced
    by its dense codes (one ``np.unique`` each) and the packing goes on."""
    if not len(columns[0]):
        return np.empty(0, dtype=np.int64)
    codes, limit = None, 1
    for column in columns:
        lo = int(column.min())
        span = int(column.max()) - lo + 1
        if limit * span <= 1 << 62:
            digit = column - lo if lo else column
        elif not dense:
            return None
        else:
            digit, span = _dense_codes(column)
            if limit * span > 1 << 62:  # re-densify the prefix before radix overflow
                codes, limit = _dense_codes(codes)
        codes = digit if codes is None else codes * span + digit
        limit *= span
    return codes


def take_rows(rows: Sequence[Row], indices: np.ndarray) -> list[Row]:
    """The subset of rows at ``indices``, in index order."""
    return [rows[i] for i in indices.tolist()]
