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
    differ, which hold no value (all empty: the first block's dtype).
    """
    if len(blocks) == 1:
        return blocks[0]
    column = np.concatenate(blocks) if len(blocks) else np.empty(0, dtype=np.int64)
    if column.dtype.kind != "f":  # a float is float blocks, or int64 meeting uint64
        return column
    full = [block for block in blocks if len(block)] or blocks[:1]
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

    Used by the join/semijoin kernels, which compare key values
    rather than hash them: ``uint64`` values above ``int64`` range cannot
    be represented and force the fallback (reinterpreting them would
    collide with negative keys).
    """
    if column.dtype.kind == "u":
        if len(column) and int(column.max()) > _INT64_MAX:
            return None
        return column.astype(np.int64)
    return column.astype(np.int64, copy=False)


def shrink(values: np.ndarray, upper: int) -> np.ndarray:
    """Narrow an array of values in ``[0, upper)`` so a stable argsort scans
    2 or 4 bytes per element instead of 8 (below 2¹⁶, numpy's radix sort)."""
    if upper <= 1 << 16:
        return values.astype(np.uint16)
    if upper <= 1 << 32:
        return values.astype(np.uint32)
    return values


def dense_codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Order-preserving dense codes of the non-empty ``values`` — each
    value's rank among the distinct ones — and how many there are:
    ``np.unique``'s inverse, without its fixed cost."""
    by_value = values.argsort()
    ordered = values[by_value]
    step = np.zeros(len(values), dtype=np.int64)
    np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
    rank = step.cumsum()
    codes = np.empty_like(rank)
    codes[by_value] = rank
    return codes, int(rank[-1]) + 1


def pack_columns(columns: Sequence[np.ndarray], dense: bool = False) -> tuple | None:
    """``(codes, span, radix)``: one ``int64`` code per row in ``[0, span)``
    that compares — equal, less — exactly as the rows' value tuples do: mixed
    radix over each ``int64`` column's ``value - lo``, no sort, each digit's
    ``(lo, span)`` in ``radix``. Where the spans' product would leave 62 bits:
    ``None``, or with ``dense`` that column — then the prefix — is replaced
    by its dense codes (one sort each; a digit of ranks) and the packing goes on."""
    if not len(columns[0]):
        return np.empty(0, dtype=np.int64), 0, []
    codes, limit, radix = None, 1, []
    for column in columns:
        lo = int(column.min())
        span = int(column.max()) - lo + 1
        if limit * span <= 1 << 62:
            digit = column - lo if lo else column
        elif not dense:
            return None
        else:
            (digit, span), lo = dense_codes(column), 0
            if limit * span > 1 << 62:  # re-densify the prefix before radix overflow
                codes, limit = dense_codes(codes)
                radix = [(0, limit)]
        codes = digit if codes is None else codes * span + digit
        limit *= span
        radix.append((lo, span))
    return codes, limit, radix
