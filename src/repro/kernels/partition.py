"""Radix/hash partitioning: per-destination row-index arrays in one pass.

The shuffle rounds of every algorithm reduce to the same shape — compute
a destination for each row, then move rows to per-destination buffers.
These kernels compute all destinations vectorized and hand each
destination one *batched* ``send_rows`` instead of a Python-level
``send`` per tuple. Per-destination row order matches the tuple path
exactly (stable partitioning of rows iterated in order), so fragments,
loads, and downstream outputs are byte-identical with kernels on or off.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import product
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.kernels.columnar import exact_columns, key_columns
from repro.kernels.config import kernels_enabled
from repro.kernels.hashing import bucket_tuple_columns, bucket_value_column
from repro.kernels.memo import count_hash_ops

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mpc.cluster import RoundContext
    from repro.mpc.hashing import HashFunction

Row = tuple[Any, ...]


def _shrink(destinations: np.ndarray, upper: int) -> np.ndarray:
    """Narrow a small-valued index array so the stable (radix) argsort
    scans 2 or 4 bytes per element instead of 8."""
    if upper <= 1 << 16:
        return destinations.astype(np.uint16)
    if upper <= 1 << 32:
        return destinations.astype(np.uint32)
    return destinations


def partition_indices(destinations: np.ndarray, buckets: int) -> list[np.ndarray]:
    """Row indices grouped by destination, preserving row order per group.

    One stable argsort + split; ``result[d]`` lists the positions of the
    rows bound for bucket ``d`` in their original order.
    """
    order = np.argsort(destinations, kind="stable")
    counts = np.bincount(destinations, minlength=buckets)
    return np.split(order, np.cumsum(counts[:-1]))


def stable_groups(codes: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """``(order, starts)``: rows sorted by their code tuple (``codes[0]``
    primary), original order kept within a tuple, and where in ``order``
    each distinct tuple's run begins."""
    order = np.lexsort(codes[::-1])
    changed = np.zeros(len(order), dtype=bool)
    changed[:1] = True
    for column in codes:
        ordered = column[order]
        changed[1:] |= ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(changed).tolist()


def hash_destinations(
    rows: Sequence[Row], key_idx: Sequence[int], h: "HashFunction"
) -> np.ndarray | None:
    """Vectorized ``[h(tuple(row[i] for i in key_idx)) for row in rows]``.

    ``None`` when any key column is not integer-typed (the caller then
    hashes tuple-at-a-time through the identical scalar spec).
    """
    columns = key_columns(rows, key_idx)
    if columns is None:
        return None
    return bucket_tuple_columns(columns, h.salt, h.buckets)


def partition_groups(
    codes: np.ndarray,
    buckets: int,
    rows: Sequence[Row],
    columns: Sequence[np.ndarray],
) -> list[tuple[int, list[Row], list[np.ndarray]]]:
    """Stable partition: ``(code, its rows, its column slices)`` per non-empty code.

    ``codes[i]`` in ``[0, buckets)`` is row ``i``'s bucket and ``columns``
    are arrays aligned with ``rows``. Groups come out in ascending code
    order with the rows of each group in their original order — one
    stable argsort + bincount, the core of every per-server batched
    route (a whole-relation plan brings its own order, below).
    """
    return groups_in_order(np.argsort(codes, kind="stable"), codes, buckets, rows, columns)


def groups_in_order(
    order: np.ndarray, codes: np.ndarray, buckets: int,
    rows: Sequence[Row], columns: Sequence[np.ndarray],
) -> list[tuple[int, list[Row], list[np.ndarray]]]:
    """:func:`partition_groups` under a given ``order``: any permutation that
    sorts ``codes`` (a whole-relation plan breaks ties by source server)."""
    counts = np.bincount(codes, minlength=buckets)
    reordered = [rows[i] for i in order.tolist()]
    sorted_cols = [c[order] for c in columns]
    groups = []
    start = 0
    for code, count in enumerate(counts.tolist()):
        if count:
            end = start + count
            groups.append((code, reordered[start:end], [c[start:end] for c in sorted_cols]))
            start = end
    return groups


def hash_codes(columns: Sequence[np.ndarray], h: "HashFunction") -> np.ndarray:
    """Per-row ``h(key)`` over the key columns, narrowed for the argsort."""
    return _shrink(bucket_tuple_columns(columns, h.salt, h.buckets), h.buckets)


def grid_codes(
    n: int,
    columns: Sequence[np.ndarray],
    column_dims: Sequence[int],
    salts: Sequence[int],
    extents: Sequence[int],
    strides: Sequence[int],
) -> tuple[np.ndarray, int, list[int], int]:
    """HyperCube destinations: ``(base cell per row, grid size, offsets, dims hashed)``.

    ``column_dims[c]`` is the grid dimension bound by row column ``c``
    (columns are hashed left to right, later columns overwriting earlier
    ones on a repeated dimension, as the scalar loop does); dimensions
    bound by no column are wildcards, and a row goes to ``base + offset``
    for every offset enumerating their full extent.
    """
    dim_buckets: dict[int, np.ndarray] = {}
    for column, dim in zip(columns, column_dims):
        dim_buckets[dim] = bucket_value_column(column, salts[dim], extents[dim])
    base = np.zeros(n, dtype=np.int64)
    for dim, buckets in dim_buckets.items():
        base += buckets * strides[dim]
    free_dims = [d for d in range(len(extents)) if d not in dim_buckets]
    offsets = [
        sum(c * strides[d] for c, d in zip(combo, free_dims))
        for combo in product(*(range(extents[d]) for d in free_dims))
    ]
    grid_size = math.prod(int(e) for e in extents)
    return _shrink(base, grid_size), grid_size, offsets, len(dim_buckets)


def _columns_for(
    rows: Sequence[Row],
    positions: Sequence[int],
    columns: Sequence[np.ndarray] | None,
) -> list[np.ndarray] | None:
    """The supplied side-car when it covers ``rows``, else extracted columns
    (exact ones when they span the row: the receiver may then drop the rows)."""
    if columns is not None and all(len(c) == len(rows) for c in columns):
        return list(columns)
    extract = exact_columns if len(positions) >= len(rows[0]) else key_columns
    return extract(rows, positions)


def try_route(
    rnd: "RoundContext",
    rows: Sequence[Row],
    key_idx: Sequence[int],
    h: "HashFunction",
    fragment: str,
    columns: Sequence[np.ndarray] | None = None,
) -> bool:
    """Route every row to ``h(key)`` in batched sends; ``False`` = fall back.

    Equivalent to ``rnd.send(h(tuple(row[i] for i in key_idx)), fragment,
    row)`` per row — same destinations, same per-destination order, same
    charged units. ``columns`` optionally supplies the precomputed key
    columns (e.g. a scatter side-car); the partitioned key columns are
    forwarded with each batch so receivers inherit the side-car.
    """
    if not kernels_enabled() or not rows:
        return not rows
    key_idx = tuple(key_idx)
    cols = _columns_for(rows, key_idx, columns)
    if cols is None:
        return False
    route_columns(rnd, rows, cols, h, fragment, key_idx, cols)
    return True


def route_columns(
    rnd: "RoundContext", rows: Sequence[Row], keys: Sequence[np.ndarray],
    h: "HashFunction", fragment: str, sent_idx: tuple[int, ...],
    sent: Sequence[np.ndarray],
) -> None:
    """Batched sends of ``rows`` to ``h(keys)``, the ``sent`` columns (row
    positions ``sent_idx``) riding along as the receivers' side-car."""
    count_hash_ops(rnd, len(rows))
    for dest, group, chunks in partition_groups(
        hash_codes(keys, h), h.buckets, rows, sent
    ):
        rnd.send_rows(dest, fragment, group, sent_idx, chunks)


def try_route_grid(
    rnd: "RoundContext",
    rows: Sequence[Row],
    column_dims: Sequence[int],
    salts: Sequence[int],
    extents: Sequence[int],
    strides: Sequence[int],
    fragment: str,
    columns: Sequence[np.ndarray] | None = None,
) -> bool:
    """HyperCube replication: route rows to every grid cell they match.

    Equivalent to the per-row ``grid.matching(partial)`` loop; see
    :func:`grid_codes` for how columns bind grid dimensions.
    """
    if not kernels_enabled() or not rows:
        return not rows
    key_idx = tuple(range(len(column_dims)))
    cols = _columns_for(rows, key_idx, columns)
    if cols is None:
        return False
    base, grid_size, offsets, hashed = grid_codes(
        len(rows), cols, column_dims, salts, extents, strides
    )
    count_hash_ops(rnd, len(rows) * hashed)
    for dest_base, group, chunks in partition_groups(base, grid_size, rows, cols):
        for offset in offsets:
            rnd.send_rows(dest_base + offset, fragment, group, key_idx, chunks)
    return True
