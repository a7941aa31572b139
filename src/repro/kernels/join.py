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
leading key column (:func:`stack_tagged`, :func:`cut_at_tags`). The
codes feed fully vectorized match-index computation (join) or
membership masks (semijoin), so results are byte-identical to the
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
    concatenated,
    exact,
    key_columns,
    pack_columns,
    value_codes,
)

Row = tuple[Any, ...]


def _code_columns(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    left_idx: Sequence[int],
    right_idx: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Joint key codes ``(left_codes, right_codes)`` of two row lists."""
    return code_key_columns(key_columns(left_rows, left_idx), key_columns(right_rows, right_idx))


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
    n_left = len(left_cols[0])
    stacked = [_joint_column(left, right) for left, right in zip(left_cols, right_cols)]
    # values are their own (sparse) codes
    codes = stacked[0] if len(stacked) == 1 else pack_columns(stacked, dense=True)
    return codes[:n_left], codes[n_left:]


def _joint_column(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Both sides of one key position as comparable ``int64`` codes."""
    if exact((left, right)):
        ints = [comparable_int64(left), comparable_int64(right)]
        if all(c is not None for c in ints):
            return np.concatenate(ints)
    return value_codes(left.tolist() + right.tolist())[0]


# Leading attribute of a chunk's stacked fragments: the index, in the chunk,
# of the server a row sits on. No parsed or user-given name is NUL-led.
TAG = "\0server"


def stack_tagged(fragments: Sequence[Sequence[np.ndarray]]) -> list[np.ndarray]:
    """A chunk's per-server column lists as one, server-major, behind a
    :data:`TAG` column: as a leading key column it keeps one kernel pass from
    pairing rows of two servers. A chunk of one is its own columns, untagged.
    A column whose blocks differ in dtype stacks as ``object``."""
    if len(fragments) == 1:
        return list(fragments[0])
    tag = np.repeat(np.arange(len(fragments)), [len(f[0]) for f in fragments])
    return [tag] + [concatenated(blocks) for blocks in zip(*fragments)]


def cut_at_tags(columns: Sequence[np.ndarray], servers: int) -> list[tuple]:
    """A pass's output — still server-major — cut back into one tuple of
    column slices (views) per server, at the tag column's boundaries."""
    if servers == 1:
        return [tuple(columns)]
    ends = np.cumsum(np.bincount(columns[0], minlength=servers)).tolist()
    return [tuple(c[a:b] for c in columns[1:]) for a, b in zip([0] + ends, ends)]


def lookup_codes(key_cols: Sequence[np.ndarray], keys: Sequence[Row]) -> np.ndarray:
    """Per row, the index in ``keys`` of its key tuple, ``-1`` when absent.

    ``key_cols`` holds one column per key position; the (distinct)
    ``keys`` are coded jointly with them and found by one binary search.
    """
    if not len(keys):
        return np.full(len(key_cols[0]), -1, dtype=np.int64)
    row_codes, key_codes = code_key_columns(key_cols, key_columns(keys, range(len(key_cols))))
    rank = np.argsort(key_codes)
    ranked = key_codes[rank]
    at = np.minimum(np.searchsorted(ranked, row_codes), len(rank) - 1)
    return np.where(ranked[at] == row_codes, rank[at], -1)


def join_indices(
    left_codes: np.ndarray, right_codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Match pairs ``(left_pos, right_pos)`` in nested-loop output order.

    For each left row (in order), the positions of all right rows with
    an equal key, in right-row order — exactly the emission order of the
    dict-index tuple join.
    """
    order = np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    starts = np.searchsorted(sorted_codes, left_codes, side="left")
    ends = np.searchsorted(sorted_codes, left_codes, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left_pos = np.repeat(np.arange(len(left_codes)), counts)
    # Within each left row's block, walk the matching right run start..end.
    block_starts = np.repeat(starts, counts)
    block_offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
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
    left_pos, right_pos = join_indices(*_code_columns(left_rows, right_rows, left_idx, right_idx))
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
    return np.isin(*_code_columns(rows, member_keys, key_idx, range(len(key_idx))))
