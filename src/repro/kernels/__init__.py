"""Vectorized columnar kernels for the simulator's hot paths.

Numpy-backed twins of the pure-Python tuple code: splitmix64 hashing
over integer columns, one-pass radix/hash partitioning, columnar local
join/semijoin, and vectorized splitter search for PSRS. Every kernel is
*exactly* equivalent to the tuple path it replaces — same rows, same
order, same measured loads — and every dispatch site falls back to the
tuple code when a column is not integer-typed, or inside the
reference hook :func:`use_kernels` ``(False)``.

Submodules import lazily (PEP 562) so ``repro.data.relation`` can depend
on :mod:`repro.kernels.config` without a cycle through ``repro.mpc``.
"""

from __future__ import annotations

from repro.kernels.config import kernels_enabled, use_kernels

__all__ = [
    "bucket_tuple_columns",
    "bucket_value_column",
    "column_array",
    "hash_destinations",
    "hash_tuple_columns",
    "hash_value_column",
    "join_indices",
    "join_rows_columnar",
    "kernels_enabled",
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
    "use_kernels",
]

_LAZY = {
    "bucket_tuple_columns": "repro.kernels.hashing",
    "bucket_value_column": "repro.kernels.hashing",
    "column_array": "repro.kernels.columnar",
    "hash_destinations": "repro.kernels.partition",
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
