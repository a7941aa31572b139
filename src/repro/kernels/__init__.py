"""Vectorized columnar kernels for the simulator's hot paths.

Numpy-backed kernels for every key operation: splitmix64 hashing over
integer columns, one-pass radix/hash partitioning, columnar local
join/semijoin, and vectorized splitter search for PSRS. Every kernel is
*exactly* equivalent to the per-row reference it replaced
(:mod:`repro.testing.scalar_reference`) — same rows, same order, same
measured loads — and takes every value: a key that is not an exact
integer column is coded once per distinct value instead of falling back.

Submodules import lazily (PEP 562) so ``repro.data.relation`` can depend
on :mod:`repro.kernels.columnar` without a cycle through ``repro.mpc``.
"""

from __future__ import annotations

__all__ = [
    "bucket_tuple_columns",
    "bucket_value_column",
    "column_of",
    "hash_tuple_columns",
    "hash_value_column",
    "join_indices",
    "join_rows_columnar",
    "key_columns",
    "lexicographic_buckets",
    "partition_indices",
    "searchsorted_buckets",
    "semijoin_mask",
    "splitmix64_array",
    "take_rows",
    "try_route",
    "try_route_grid",
    "tuple_buckets",
]

_LAZY = {
    "bucket_tuple_columns": "repro.kernels.hashing",
    "bucket_value_column": "repro.kernels.hashing",
    "column_of": "repro.kernels.columnar",
    "hash_tuple_columns": "repro.kernels.hashing",
    "hash_value_column": "repro.kernels.hashing",
    "join_indices": "repro.kernels.join",
    "join_rows_columnar": "repro.kernels.join",
    "key_columns": "repro.kernels.columnar",
    "lexicographic_buckets": "repro.kernels.splitters",
    "partition_indices": "repro.kernels.partition",
    "searchsorted_buckets": "repro.kernels.splitters",
    "semijoin_mask": "repro.kernels.join",
    "splitmix64_array": "repro.kernels.hashing",
    "take_rows": "repro.kernels.columnar",
    "try_route": "repro.kernels.partition",
    "try_route_grid": "repro.kernels.partition",
    "tuple_buckets": "repro.kernels.splitters",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
