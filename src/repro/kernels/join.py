"""Columnar local hash join and semijoin.

Both kernels factorize key tuples into integer codes — exact equality,
no hash collisions — for every key. Exact integer keys are coded without
Python: single-column keys use their values directly; multi-column keys
are mixed radix over each column's ``value - min`` (no sort;
:func:`~repro.kernels.columnar.pack_columns`), with dense codes only
where the radix product would overflow. Any other key position — an
``object`` column, or a ``uint64`` column above the signed range — is
coded by one dict over its distinct values
(:func:`~repro.kernels.columnar.value_codes`), which is Python ``==``:
``1`` meets ``1.0``. A chunk of servers is one pass with the server as a
leading key column (:func:`repro.mpc.cluster.server_column`). The
codes feed fully vectorized match-index computation (join) or
membership masks (semijoin). A join or a lookup probes its codes
through one table over their slots (:func:`slots`, :func:`runs`) and
never searches them, so results are byte-identical to the
dict/set reference (:mod:`repro.testing.scalar_reference`), including
row order: left rows in input order, matches per left row in the right
side's insertion order.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.kernels.columnar import (
    comparable_int64,
    dense_codes,
    exact,
    key_columns,
    pack_columns,
    shrink,
    value_codes,
)

Row = tuple[Any, ...]

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def code_key_columns(
    left_cols: Sequence[np.ndarray],
    right_cols: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Joint key codes from key columns, of any dtypes.

    Codes are injective over key tuples (equal code ⇔ equal key) but not
    necessarily dense — :func:`join_indices` only needs them sortable.
    Each key position is coded on its own — exact integers as their
    values, anything else by one dict over both sides' values — and the
    positions are packed into one code: tuples are equal exactly when
    every position is.
    """
    codes, n_left = joint_codes(left_cols, right_cols)[0], len(left_cols[0])
    return codes[:n_left], codes[n_left:]


def joint_codes(left_cols: Sequence[np.ndarray], right_cols: Sequence[np.ndarray]) -> tuple:
    """``(codes, span)``: both sides' :func:`code_key_columns` codes, left rows first, and the
    ``[0, span)`` they were packed into (``None`` for one key position: its values)."""
    stacked = [_joint_column(left, right) for left, right in zip(left_cols, right_cols)]
    if len(stacked) == 1:
        return stacked[0], None
    return pack_columns(stacked, dense=True)[:2]


def narrow_codes(keys: Sequence[np.ndarray]) -> tuple | None:
    """:func:`~repro.kernels.columnar.pack_columns` of ``int64`` key columns whose
    span is :func:`narrow` over their rows (a table counts them), else ``None``."""
    if not keys or not len(keys[0]) or any(key.dtype != np.int64 for key in keys):
        return None
    packed = pack_columns(keys)
    return packed if packed is not None and narrow(packed[1], len(keys[0])) else None


def narrow(span: int, rows: int) -> bool:
    """Whether ``span`` slots may table ``rows`` codes: ``np.isin``'s bound, ``6 · rows``."""
    return span <= 6 * rows + 1


def _joint_column(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Both sides of one key position as comparable ``int64`` codes."""
    if exact((left, right)):
        ints = [comparable_int64(left), comparable_int64(right)]
        if all(c is not None for c in ints):
            return np.concatenate(ints)
    return value_codes(left.tolist() + right.tolist())[0]


def lookup_codes(key_cols: Sequence[np.ndarray], keys: Sequence[Row]) -> np.ndarray:
    """Per row, the index in ``keys`` of its key tuple, ``-1`` when absent."""
    return locate(key_cols, key_columns(keys, range(len(key_cols))))


def locate(key_cols: Sequence[np.ndarray], table: Sequence[np.ndarray]) -> np.ndarray:
    """Per row of ``key_cols``, the index of the equal row of ``table`` (its
    rows distinct), ``-1`` when absent: coded jointly, then read from a
    table over the codes' slots (:func:`slots`) that holds each slot's row."""
    if not len(table[0]) or not len(key_cols[0]):
        return np.full(len(key_cols[0]), -1, dtype=np.int64)
    row_codes, key_codes = code_key_columns(key_cols, table)
    held, at, size = slots(key_codes, row_codes)
    row = np.full(size, -1, dtype=np.int64)
    row[held] = np.arange(len(key_codes))
    return row[at]


def slots(codes: np.ndarray, probes: np.ndarray, span: int | None = None) -> tuple:
    """``(code slots, probe slots, size)``: the non-empty ``int64`` ``codes``
    and the probes as indices into a table of ``size`` slots. Equal values
    share a slot and order is kept, so a probe equal to no code lands on a
    slot that no code holds.

    A :func:`narrow` span from ``lo`` to ``hi`` (``[0, span)`` for packed codes,
    :func:`joint_codes`; else their min and max) is the slots themselves,
    shifted, with an empty slot below ``lo`` and one above ``hi``; the probes
    are clipped into them, so an absent probe needs no mask. A wider span is
    first ranked over both sides (:func:`~repro.kernels.columnar.dense_codes`).
    """
    n = len(codes)
    lo, hi = (0, span - 1) if span else (int(codes.min()), int(codes.max()))
    if narrow(hi - lo + 1, n + len(probes)):
        lower, upper = max(lo - 1, _INT64_MIN), min(hi + 1, _INT64_MAX)
        at = np.minimum(np.maximum(probes, lower), upper) - lower
        return codes - lower, at, upper - lower + 1
    ranks, size = dense_codes(np.concatenate((codes, probes)))
    return ranks[:n], ranks[n:], size


def runs(codes: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, start, count)``: ``order`` sorts the non-empty ``int64``
    ``codes`` stably, and probe ``i``'s run of equal codes in
    ``codes[order]`` begins at ``start[i]`` — the number of codes smaller
    than it — and is ``count[i]`` long: what two binary searches return,
    read from one prefix-count table over the :func:`slots` instead. The
    sort is numpy's radix sort when there are at most 2¹⁶ slots.
    """
    held, at, size = slots(codes, probes)
    table = np.bincount(held, minlength=size)
    count = table[at]
    # in place: a wide table is the kernel's largest array
    start = table.cumsum(out=table)[at] - count
    return shrink(held, size).argsort(kind="stable"), start, count


def match_counts(left_codes: np.ndarray, right_codes: np.ndarray) -> np.ndarray:
    """Per left row, how many right rows share its code: :func:`runs`' counts,
    read off the :func:`slots` table with no sort and no prefix table. A join
    whose right side adds no attribute repeats each left row that often."""
    if not len(left_codes) or not len(right_codes):
        return np.zeros(len(left_codes), dtype=np.int64)
    held, at, size = slots(right_codes, left_codes)
    return np.bincount(held, minlength=size)[at]


def join_indices(
    left_codes: np.ndarray, right_codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Match pairs ``(left_pos, right_pos)`` in nested-loop output order.

    For each left row (in order), the positions of all right rows with
    an equal key, in right-row order — exactly the emission order of the
    dict-index tuple join.
    """
    total = 0
    if len(left_codes) and len(right_codes):
        order, starts, counts = runs(right_codes, left_codes)
        total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left_pos = np.arange(len(left_codes)).repeat(counts)
    # Within each left row's block, walk the matching right run start..end.
    block_starts = starts.repeat(counts)
    block_offsets = np.arange(total) - (counts.cumsum() - counts).repeat(counts)
    right_pos = order[block_starts + block_offsets]
    return left_pos, right_pos


# No relational task calls this since fragments became columns only; it
# stays importable as a span perfbench/tracing.py:TARGETS names.
def join_rows_columnar(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    left_idx: Sequence[int],
    right_idx: Sequence[int],
    right_payload: Sequence[int],
) -> list[Row]:
    """Columnar hash join of two row lists, any key types.

    Output rows are ``left_row + tuple(right_row[i] for i in
    right_payload)`` in the same order as the tuple-path join.
    """
    if not left_rows or not right_rows:
        return []
    left_pos, right_pos = join_indices(*code_key_columns(
        key_columns(left_rows, left_idx), key_columns(right_rows, right_idx)))
    if not len(left_pos):
        return []
    # Build payload tuples only for matched right rows (matches can be a
    # small fraction of the fragment when the join is selective).
    right_payload = list(right_payload)
    if len(right_payload) == 1:
        j = right_payload[0]
        payloads = [(right_rows[i][j],) for i in right_pos.tolist()]
    else:
        payloads = [
            tuple(right_rows[i][j] for j in right_payload)
            for i in right_pos.tolist()
        ]
    return [
        left_rows[i] + payload
        for i, payload in zip(left_pos.tolist(), payloads)
    ]


# Like join_rows_columnar: kept as a span perfbench/tracing.py:TARGETS names.
def semijoin_mask(
    rows: Sequence[Row],
    key_idx: Sequence[int],
    member_keys: Sequence[Row],
) -> np.ndarray:
    """Boolean mask of rows whose key tuple appears in ``member_keys``.

    ``member_keys`` are full key tuples (arity ``len(key_idx)``).
    """
    if not rows:
        return np.empty(0, dtype=bool)
    if not member_keys:
        return np.zeros(len(rows), dtype=bool)
    return np.isin(*code_key_columns(
        key_columns(rows, key_idx), key_columns(member_keys, range(len(key_idx)))))
