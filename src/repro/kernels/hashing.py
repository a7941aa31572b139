"""Vectorized splitmix64 hashing over integer columns.

Bit-for-bit twins of the scalar spec in :mod:`repro.mpc.hashing`:

- :func:`splitmix64_array` ≡ ``splitmix64`` applied elementwise;
- :func:`hash_value_column` ≡ the scalar-integer path of ``_hash_value``;
- :func:`hash_tuple_columns` ≡ :func:`repro.mpc.hashing.hash_int_tuple`
  applied to every row of a set of key columns.

All arithmetic runs on ``uint64`` with wraparound, matching the
``& _MASK64`` masking of the Python reference — the golden tests in
``tests/kernels/test_hash_golden.py`` pin this equivalence on a fixed
probe set so a numpy overflow-semantics change cannot slip through.
Any other key has no vectorized hash (the blake2b branch is scalar): the
bucket functions hash each *distinct* value or key tuple once through
the scalar spec and gather by code — byte-identical by construction,
O(distinct) Python calls instead of O(n).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.kernels.columnar import exact, value_codes, zip_rows
from repro.mpc.hashing import _MASK64, _TUPLE_TAG, HashFunction, splitmix64

_ADD = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)


def as_uint64(column: np.ndarray) -> np.ndarray:
    """An integer column reinterpreted as ``v & _MASK64`` (two's complement)."""
    if column.dtype == np.uint64:
        return column
    if column.dtype.kind == "i":
        return column.astype(np.int64, copy=False).view(np.uint64)
    # bool / smaller unsigned types widen without reinterpretation.
    return column.astype(np.uint64)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Elementwise splitmix64 of a ``uint64`` array (wraparound semantics)."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += _ADD
        x ^= x >> _SHIFT30
        x *= _MUL1
        x ^= x >> _SHIFT27
        x *= _MUL2
        x ^= x >> _SHIFT31
    return x


def hash_value_column(column: np.ndarray, salt: int) -> np.ndarray:
    """Vectorized scalar-integer hash: ``splitmix64((v & M) ^ splitmix64(salt))``."""
    salted = np.uint64(splitmix64(salt))
    return splitmix64_array(as_uint64(column) ^ salted)


def hash_tuple_columns(columns: Sequence[np.ndarray], salt: int) -> np.ndarray:
    """Vectorized tuple chain over parallel key columns.

    ``columns[c][i]`` is element ``c`` of row ``i``'s key tuple; the
    result row-hashes match ``hash_int_tuple(tuple(row), salt)``.
    """
    if not columns:
        raise ValueError("hash_tuple_columns needs at least one column")
    n = len(columns[0])
    seed = splitmix64((salt ^ _TUPLE_TAG ^ len(columns)) & _MASK64)
    acc = np.full(n, seed, dtype=np.uint64)
    for column in columns:
        acc = splitmix64_array(as_uint64(column) ^ acc)
    return acc


def bucket_tuple_columns(columns: Sequence, salt: int, buckets: int) -> np.ndarray:
    """Per-row destination buckets of hashed key tuples (``int64``).

    Key columns that are not all integer arrays (a value list among them)
    hash once per distinct key tuple through the scalar spec.
    """
    if not exact(columns):
        return _per_distinct(zip_rows(columns), salt, buckets)
    return (hash_tuple_columns(columns, salt) % np.uint64(buckets)).astype(np.int64)


def bucket_value_column(column: "np.ndarray | list", salt: int, buckets: int) -> np.ndarray:
    """Per-row destination buckets of hashed scalar values (``int64``).

    A plain value list (no exact integer column behind it) takes the
    scalar spec itself, once per distinct value: equal values share an
    entry, and hash equal (:func:`repro.mpc.hashing.canonical`).
    """
    if not isinstance(column, np.ndarray):
        return _per_distinct(column, salt, buckets)
    return (hash_value_column(column, salt) % np.uint64(buckets)).astype(np.int64)


def _per_distinct(keys: Sequence, salt: int, buckets: int) -> np.ndarray:
    """``[h(key) for key in keys]``, one scalar hash per distinct key."""
    codes, distinct = value_codes(keys)
    h = HashFunction(buckets, salt)
    return np.array([h(key) for key in distinct], dtype=np.int64)[codes]
