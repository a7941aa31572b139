"""The per-row key operations — the reference the kernels meet.

Every key operation runs through one of six kernels —
:func:`~repro.kernels.partition.try_route`,
:func:`~repro.kernels.partition.try_route_grid`,
:func:`~repro.kernels.join.code_key_columns`,
:func:`~repro.kernels.join.join_rows_columnar`,
:func:`~repro.kernels.join.semijoin_mask` and
:func:`~repro.kernels.join.lookup_codes` — and each takes every value. The
per-row bodies they replaced live on here: a one-row send per row
(:func:`send_row`: ``memo.route``, ``hypercube_join``, the skew-aware
semijoin's light rows), a dict index per join and a set per semijoin
(``Relation.join``, ``Relation.semijoin``). Each function has the
signature of what it stands for.
``tests/kernels/test_equivalence.py`` holds the kernels to these on every
value type, and ``tests/holdings.py`` substitutes them for the kernels to
run whole algorithms on the scalar rung.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.kernels.columnar import column_of, columns_of, zip_rows
from repro.mpc.hashing import HashFunction
from repro.mpc.server import ChunkedColumns
from repro.mpc.topology import Grid

Row = tuple[Any, ...]


def send_row(rnd: Any, dest: int, fragment: str, row: Row, units: int = 1) -> None:
    """Send one tuple to server ``dest``: a one-row block, each value its own
    column by the one rule (:meth:`~repro.mpc.cluster.RoundContext.send_columns`)."""
    rnd.send_columns(dest, fragment, [column_of([value]) for value in row], units)


def try_route(
    rnd: Any, data: Sequence, key_idx: Sequence[int], h: HashFunction, fragment: str,
) -> None:
    """``try_route``: one send per row, to ``h`` of its key tuple."""
    for row in zip_rows(data):
        send_row(rnd, h(tuple(row[i] for i in key_idx)), fragment, row)


def try_route_grid(
    rnd: Any, data: Sequence, column_dims: Sequence[int], salts: Sequence[int],
    extents: Sequence[int], strides: Sequence[int], fragment: str,
) -> None:
    """``try_route_grid``: one send per row and grid cell it matches
    (``strides`` are ``Grid(extents)``'s, as every caller passes them)."""
    grid = Grid(extents)
    hash_functions = [HashFunction(extent, salt) for extent, salt in zip(extents, salts)]
    for row in zip_rows(data):
        partial: list[int | None] = [None] * len(extents)
        for value, dim in zip(row, column_dims):
            partial[dim] = hash_functions[dim](value)
        for dest in grid.matching(partial):
            send_row(rnd, dest, fragment, row)


def route_light(
    rnd: Any, columns: Sequence[np.ndarray], t_idx: tuple[int, ...], heavy: list[Row], h: Any,
) -> ChunkedColumns:
    """``multiway.base._route_light``: route light rows, keep heavy ones."""
    heavy = set(heavy)
    stay = []
    for row in zip_rows(columns):
        key = tuple(row[i] for i in t_idx)
        if key in heavy:
            stay.append(row)  # no communication: stays in place
        else:
            send_row(rnd, h(key), "T@j", row)
    return ChunkedColumns([[column] for column in columns_of(stay, len(columns))])


def code_key_columns(
    left_cols: Sequence[Any], right_cols: Sequence[Any],
) -> tuple[np.ndarray, np.ndarray]:
    """``code_key_columns``: one dict over both sides' key tuples."""
    index: dict[Row, int] = {}
    left, right = (
        np.array([index.setdefault(key, len(index)) for key in zip_rows(cols)], dtype=np.int64)
        for cols in (left_cols, right_cols)
    )
    return left, right


def join_rows_columnar(
    left_rows: Sequence[Row], right_rows: Sequence[Row], left_idx: Sequence[int],
    right_idx: Sequence[int], right_payload: Sequence[int],
) -> list[Row]:
    """``join_rows_columnar`` (and ``Relation.join``): a dict index over the
    right side, probed per left row."""
    index: dict[Row, list[Row]] = {}
    for row in right_rows:
        index.setdefault(tuple(row[i] for i in right_idx), []).append(row)
    out = []
    for row in left_rows:
        for match in index.get(tuple(row[i] for i in left_idx), ()):
            out.append(row + tuple(match[i] for i in right_payload))
    return out


def semijoin_mask(
    rows: Sequence[Row], key_idx: Sequence[int], member_keys: Sequence[Row],
) -> np.ndarray:
    """``semijoin_mask`` (and ``Relation.semijoin``): a set of the member keys."""
    members = set(member_keys)
    return np.array([tuple(row[i] for i in key_idx) in members for row in rows], dtype=bool)


def lookup_codes(key_cols: Sequence[Any], keys: Sequence[Row]) -> np.ndarray:
    """``lookup_codes``: a dict probe per key tuple."""
    index = {key: k for k, key in enumerate(keys)}
    return np.array([index.get(key, -1) for key in zip_rows(key_cols)], dtype=np.int64)
