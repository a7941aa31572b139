"""Splitter selection for range-partitioned parallel sorting (slides 100–101).

Splitters ``y_1 < … < y_{b-1}`` cut the key space into ``b`` intervals;
a partition round then routes every item to its interval's owner. PSRS
derives splitters from *regular samples* — each server contributes the
items at regular positions of its locally sorted data — which bounds the
final imbalance; modern implementations use random samples instead
(slide 102), which is cheaper but probabilistic. Both are provided.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from typing import Any

import numpy as np


def regular_sample(sorted_items: Sequence[Any], count: int) -> list[Any]:
    """``count`` items at regular positions of a locally *sorted* list.

    Positions follow PSRS: item ``i·len/(count+1)`` for i = 1..count.
    Fewer items than requested samples yields all items.
    """
    n = len(sorted_items)
    if count <= 0 or n == 0:
        return []
    if n <= count:
        return list(sorted_items)
    return [sorted_items[(i * n) // (count + 1)] for i in range(1, count + 1)]


def random_sample(items: Sequence[Any], count: int, seed: int = 0) -> list[Any]:
    """``count`` random items (without replacement when possible)."""
    n = len(items)
    if count <= 0 or n == 0:
        return []
    rng = np.random.default_rng(seed)
    if n <= count:
        return list(items)
    positions = rng.choice(n, size=count, replace=False)
    return [items[i] for i in sorted(positions.tolist())]


def choose_splitters(samples: Sequence[Any], buckets: int) -> list[Any]:
    """The ``buckets - 1`` final splitters from the pooled samples.

    PSRS's rule: sort the pooled samples, take every ``len/buckets``-th.
    """
    if buckets <= 1:
        return []
    pool = sorted(samples)
    if not pool:
        return []
    splitters = []
    for i in range(1, buckets):
        pos = min((i * len(pool)) // buckets, len(pool) - 1)
        splitters.append(pool[pos])
    return splitters


def bucket_of(value: Any, splitters: Sequence[Any]) -> int:
    """Index of the interval ``value`` falls in (0 … len(splitters)).

    Interval ``i`` is ``(splitters[i-1], splitters[i]]``-style with the
    convention that values equal to a splitter go left, so splitters made
    of duplicated keys still spread data.
    """
    return bisect.bisect_left(splitters, value)

