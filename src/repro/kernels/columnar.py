"""The one column rule, and the index arithmetic over its columns.

A relation, a fragment and a key are held as one 1-D numpy array per
attribute, made by :func:`column_of`: ``int64`` when every value is a
built-in ``int`` the type holds, ``uint64`` when such values go above the
signed range, and ``object`` otherwise — floats, strings, ``None``,
tuples, ``bool``, numpy scalars, ints outside 64 bits. An ``object``
column holds the very values it was given, so ``tolist()`` hands them
back as themselves; the kernels code it through one dict over its
distinct values (:func:`value_codes`), which is Python ``==`` (``1``,
``1.0`` and ``True`` share a code). :func:`is_object` is the one test of
which kind a column is.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

Row = tuple[Any, ...]

_INT64_MAX = np.iinfo(np.int64).max


def column_of(values: Sequence[Any]) -> np.ndarray:
    """The values as one column, by the one rule (see the module doc).

    The ``object`` column is built element by element, never by
    ``np.asarray``, which would turn tuples into a second dimension.
    """
    if set(map(type, values)) <= {int}:
        for dtype in (np.int64, np.uint64):
            try:
                return np.array(values, dtype=dtype)
            except OverflowError:
                continue
    return np.fromiter(values, dtype=object, count=len(values))


def columns_of(rows: Sequence[Row], arity: int) -> list[np.ndarray]:
    """The ``arity`` columns of ``rows``, each by :func:`column_of`."""
    if not len(rows):
        return [np.empty(0, dtype=np.int64) for _ in range(arity)]
    return [column_of(values) for values in zip(*rows)]


def key_columns(rows: Sequence[Row], key_idx: Sequence[int]) -> list[np.ndarray]:
    """One column per key position of ``rows``."""
    return [column_of([row[i] for row in rows]) for i in key_idx]


def is_object(column: np.ndarray) -> bool:
    """Whether ``column`` holds values rather than exact integers."""
    return column.dtype.kind == "O"


def exact(columns: Sequence[np.ndarray]) -> bool:
    """Whether every column holds exact integers (no ``object`` column)."""
    return not any(map(is_object, columns))


def concatenated(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """One column from its ordered blocks; a lone block is itself.

    An ``object`` block makes the column ``object``, each value kept. numpy
    would widen ``int64`` meeting ``uint64`` to ``float64``, rounding the
    integers: those meet as ``object`` too — unless only empty blocks
    differ, which hold no value.
    """
    if len(blocks) == 1:
        return blocks[0]
    column = np.concatenate(blocks) if len(blocks) else np.empty(0, dtype=np.int64)
    if column.dtype.kind != "f":  # only int64 meeting uint64 makes a float
        return column
    full = [block for block in blocks if len(block)]
    if len({block.dtype for block in full}) == 1:
        return np.concatenate(full)
    return np.concatenate([block.astype(object) for block in full])


def value_codes(keys: Sequence[Any]) -> tuple[np.ndarray, list]:
    """``(codes, distinct)``: per key the index in ``distinct`` — the keys
    in first-seen order — of the one equal to it. One dict over the keys,
    so equal means Python ``==`` (``1``, ``1.0`` and ``True`` share a code)."""
    index: dict = {}
    codes = np.fromiter(
        (index.setdefault(key, len(index)) for key in keys), dtype=np.int64, count=len(keys)
    )
    return codes, list(index)


def zip_rows(columns: Sequence[np.ndarray]) -> list[Row]:
    """The tuples whose columns these are (integer columns yield built-in ints)."""
    return list(zip(*(column.tolist() for column in columns)))


def comparable_int64(column: np.ndarray) -> np.ndarray | None:
    """An integer column as ``int64`` preserving value-comparison semantics.

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
