"""Vectorized splitter search for range partitioning (the sorts).

A sort orders (key, position) pairs, so a splitter is such a pair and the
bucket of an item is ``bisect_left(splitters, (key, position))``: the
number of splitters strictly below it. :func:`splitter_buckets` computes
that for a whole key column at once, whatever its dtype (numpy compares an
``object`` column with Python ``<`` and ``==``): one ``np.searchsorted``
of the keys among the splitter keys and, for the items whose key equals a
splitter's, one more over (key rank, position) codes — O(n log p), no
Python loop over items.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np


def splitter_buckets(
    keys: np.ndarray, positions: np.ndarray, splitters: Sequence[tuple[Any, int]]
) -> np.ndarray:
    """``bisect_left(splitters, (k, i))`` for every pair ``(k, i)`` of the columns.

    ``splitters`` are sorted (key, position) pairs whose keys ``keys``'s
    dtype holds; positions are non-negative integers.
    """
    count = len(splitters)
    if not count or not len(keys):
        return np.zeros(len(keys), dtype=np.int64)
    split_keys = np.fromiter((s[0] for s in splitters), dtype=keys.dtype, count=count)
    split_positions = np.fromiter((s[1] for s in splitters), dtype=np.int64, count=count)
    buckets = np.searchsorted(split_keys, keys, side="left")
    tied = np.flatnonzero(buckets < count)
    tied = tied[split_keys[buckets[tied]] == keys[tied]]
    if len(tied):
        # The splitters of one key are contiguous and ordered by position:
        # code each as (dense key rank, position) and search the tied items.
        rank = np.concatenate(([0], np.cumsum(split_keys[1:] != split_keys[:-1])))
        span = int(max(positions.max(), split_positions.max())) + 1
        codes = rank * span + split_positions
        buckets[tied] = np.searchsorted(codes, rank[buckets[tied]] * span + positions[tied])
    return buckets
