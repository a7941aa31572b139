"""Radix/hash partitioning: per-destination row-index arrays in one pass.

The shuffle rounds of every algorithm reduce to the same shape — compute
a destination for each row, then move rows to per-destination buffers.
These kernels compute all destinations vectorized and hand each
destination one *batched* ``send_columns`` of column slices instead of a
one-row send per tuple. Per-destination
row order matches a per-row send loop exactly (stable partitioning of rows
iterated in order), so fragments, loads, and downstream outputs are
byte-identical to the per-row reference
(:mod:`repro.testing.scalar_reference`). Every key routes here: exact
integer key columns hash vectorized, an ``object`` key once per distinct
value (:mod:`repro.kernels.hashing`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate, product
from typing import TYPE_CHECKING

import numpy as np

from repro.kernels.columnar import shrink
from repro.kernels.hashing import bucket_tuple_columns, bucket_value_column
from repro.kernels.memo import count_hash_ops

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mpc.cluster import RoundContext
    from repro.mpc.hashing import HashFunction


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


def source_major_order(codes: np.ndarray, buckets: int, p: int) -> np.ndarray:
    """The permutation that sorts rows by (code, source server, position),
    where position ``i`` sits on server ``i % p``: one stable radix sort of
    one narrow key, ``code * p + i % p``."""
    key = codes.astype(np.int64) * p + np.arange(len(codes)) % p
    return np.argsort(shrink(key, buckets * p), kind="stable")


def partition_groups(
    codes: np.ndarray, buckets: int, data: Sequence[np.ndarray], sources: int = 1
) -> list[tuple[int, list]]:
    """Stable partition: ``(code, its part of data)`` per non-empty code.

    ``codes[i]`` in ``[0, buckets)`` is row ``i``'s bucket; ``data`` is
    the rows' columns, and each part is read-only slices of one permuted
    copy of them (a plan delivers its parts again and again). Groups come out in
    ascending code order with the rows of each group in (source server,
    position) order, position ``i`` sitting on server ``i % sources`` —
    one stable argsort + bincount, the core of every batched route. One
    bucket from one source is the identity: its part is ``data`` itself,
    uncopied and unsorted.
    """
    if buckets == sources == 1:
        return [(0, list(data))] if len(codes) else []
    order = (np.argsort(codes, kind="stable") if sources == 1
             else source_major_order(codes, buckets, sources))
    counts = np.bincount(codes, minlength=buckets).tolist()
    bounds = [(code, end - count, end) for code, count, end in
              zip(range(buckets), counts, accumulate(counts)) if count]
    ordered = [column[order] for column in data]
    for column in ordered:
        column.flags.writeable = False
    return [(code, [c[lo:hi] for c in ordered]) for code, lo, hi in bounds]


def hash_codes(
    n: int, columns: Sequence[np.ndarray], h: "HashFunction"
) -> tuple[np.ndarray, int]:
    """``(per-row h(key), rows hashed)`` over the ``n`` rows' key columns,
    the codes narrowed for the argsort. A route with one possible
    destination hashes no row: one bucket puts every row at 0, and no key
    column is the key ``()``, every row at ``h(())``."""
    if h.buckets == 1:
        return np.zeros(n, dtype=np.uint8), 0
    if not columns:
        return shrink(np.full(n, h(()), dtype=np.int64), h.buckets), 0
    return shrink(bucket_tuple_columns(columns, h.salt, h.buckets), h.buckets), n


def grid_codes(
    n: int,
    columns: Sequence[np.ndarray],
    column_dims: Sequence[int],
    salts: Sequence[int],
    extents: Sequence[int],
    strides: Sequence[int],
) -> tuple[np.ndarray, int, list[int], list[np.ndarray]]:
    """HyperCube destinations: ``(base cell per row, grid size, offsets, hashed columns)``.

    ``columns`` are the rows' columns (:func:`bucket_value_column`);
    ``column_dims[c]`` is the grid dimension bound by row column ``c``
    (the last column bound to a dimension decides it, as the scalar loop
    does); dimensions bound by no column are wildcards, and a row goes to
    ``base + offset`` for every offset enumerating their full extent. A
    dimension of extent 1 hashes nothing: every row is in its bucket 0, so
    a one-cell grid hashes nothing at all.
    """
    grid_size = math.prod(int(e) for e in extents)
    if grid_size == 1:
        return np.zeros(n, dtype=np.uint8), 1, [0], []
    hashed = {dim: column for column, dim in zip(columns, column_dims) if extents[dim] > 1}
    base = np.zeros(n, dtype=np.int64)
    for dim, column in hashed.items():
        base += bucket_value_column(column, salts[dim], extents[dim]) * strides[dim]
    free_dims = [d for d in range(len(extents)) if d not in hashed]
    offsets = [
        sum(c * strides[d] for c, d in zip(combo, free_dims))
        for combo in product(*(range(extents[d]) for d in free_dims))
    ]
    return shrink(base, grid_size), grid_size, offsets, list(hashed.values())


def slice_sizes(keys: np.ndarray, counts: np.ndarray, salt: int, extent: int) -> np.ndarray:
    """Per grid coordinate, the rows a degree view's ``keys`` (each held
    ``counts`` times) hash to with ``salt`` over ``extent`` buckets: a
    planner's look at one dimension of a HyperCube route, whose rows are
    not counted in any cluster's ``hash_ops``."""
    return np.bincount(bucket_value_column(keys, salt, extent), counts, minlength=extent)


def try_route(
    rnd: "RoundContext", data: Sequence[np.ndarray], key_idx: Sequence[int],
    h: "HashFunction", fragment: str,
) -> None:
    """Route every row to ``h(key)`` in batched sends.

    Equivalent to sending each row alone to ``h(tuple(row[i] for i in
    key_idx))`` — same destinations, same per-destination order, same
    charged units. ``data`` is a fragment's columns
    (:func:`repro.mpc.server.held`), partitioned and sent as blocks.
    """
    n = len(data[0])
    if n:
        codes, hashed = hash_codes(n, [data[i] for i in key_idx], h)
        count_hash_ops(rnd, hashed)
        for dest, part in partition_groups(codes, h.buckets, data):
            rnd.send_columns(dest, fragment, part)


def try_route_grid(
    rnd: "RoundContext", data: Sequence[np.ndarray], column_dims: Sequence[int],
    salts: Sequence[int], extents: Sequence[int], strides: Sequence[int], fragment: str,
) -> None:
    """HyperCube replication: route rows to every grid cell they match.

    Equivalent to the per-row ``grid.matching(partial)`` loop; see
    :func:`grid_codes` for how columns bind grid dimensions.
    """
    n = len(data[0])
    if not n:
        return
    base, grid_size, offsets, hashed = grid_codes(n, data, column_dims, salts, extents, strides)
    count_hash_ops(rnd, n * len(hashed))
    for dest_base, part in partition_groups(base, grid_size, data):
        for offset in offsets:
            rnd.send_columns(dest_base + offset, fragment, part)
