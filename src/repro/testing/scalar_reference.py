"""The per-row key operations — the reference the kernels meet.

Every key operation runs through one of six kernels —
:func:`~repro.kernels.partition.try_route`,
:func:`~repro.kernels.partition.try_route_grid`,
:func:`~repro.kernels.join.code_key_columns`,
:func:`~repro.kernels.join.join_rows_columnar`,
:func:`~repro.kernels.join.semijoin_mask` and
:func:`~repro.kernels.join.lookup_codes` — and each takes every value. The
per-row bodies they replaced live on here, moved and not rewritten: a
``send`` per row (``memo.route``, ``hypercube_join``, the skew-aware
semijoin's light rows), a dict index per join and a set per semijoin
(``Relation.join``, ``Relation.semijoin``, the multi-semijoin filter).
Each function has the signature of what it stands for.
``tests/kernels/test_equivalence.py`` holds the kernels to these on every
value type, and ``tests/holdings.py`` substitutes them for the kernels to
run whole algorithms on the scalar rung.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.kernels.columnar import zip_rows
from repro.mpc.hashing import HashFunction
from repro.mpc.topology import Grid

Row = tuple[Any, ...]


def _rows(data: Sequence) -> list[Row]:
    """Held data — whole columns or a row list — as its rows."""
    return zip_rows(data) if len(data) and isinstance(data[0], np.ndarray) else list(data)


def try_route(
    rnd: Any, data: Sequence, key_idx: Sequence[int], h: HashFunction, fragment: str,
) -> None:
    """``try_route``: one ``send`` per row, to ``h`` of its key tuple."""
    for row in _rows(data):
        rnd.send(h(tuple(row[i] for i in key_idx)), fragment, row)


def try_route_grid(
    rnd: Any, data: Sequence, column_dims: Sequence[int], salts: Sequence[int],
    extents: Sequence[int], strides: Sequence[int], fragment: str,
) -> None:
    """``try_route_grid``: one ``send`` per row and grid cell it matches
    (``strides`` are ``Grid(extents)``'s, as every caller passes them)."""
    grid = Grid(extents)
    hash_functions = [HashFunction(extent, salt) for extent, salt in zip(extents, salts)]
    for row in _rows(data):
        partial: list[int | None] = [None] * len(extents)
        for value, dim in zip(row, column_dims):
            partial[dim] = hash_functions[dim](value)
        for dest in grid.matching(partial):
            rnd.send(dest, fragment, row)


def route_light(
    rnd: Any, rows: list[Row], t_idx: tuple[int, ...], heavy: set[Row], h: Any,
) -> list[Row]:
    """``multiway.base._route_light``: route light rows, keep heavy ones."""
    stay = []
    for row in rows:
        key = tuple(row[i] for i in t_idx)
        if key in heavy:
            stay.append(row)  # no communication: stays in place
        else:
            rnd.send(h(key), "T@j", row)
    return stay


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


def filter_members(
    rows: list[Row], t_idx: tuple[int, ...], key_lists: list[list[Row]],
) -> list[Row]:
    """``multiway.base._filter_members``: rows whose key is in every key set."""
    key_sets = [set(keys) for keys in key_lists]
    return [
        row
        for row in rows
        if all(tuple(row[i] for i in t_idx) in ks for ks in key_sets)
    ]


def lookup_codes(key_cols: Sequence[Any], keys: Sequence[Row]) -> np.ndarray:
    """``lookup_codes``: a dict probe per key tuple."""
    index = {key: k for k, key in enumerate(keys)}
    return np.array([index.get(key, -1) for key in zip_rows(key_cols)], dtype=np.int64)
