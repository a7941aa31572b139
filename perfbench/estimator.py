"""The estimator: per-slot minimum over replays, statistics across slots.

``samples`` is a replays x slots matrix of one measured quantity
(``nan`` where the op failed). Interference from a neighbour on the VM
only ever adds time, so a slot's minimum over replays is the program's
own cost; every reported figure is a function of those minima. Quantiles
are taken *across slots* — they describe the heterogeneity of the query
mix, not the noise of one query.

The minimum cannot help when the whole machine is slow for longer than a
run (a neighbour that stays busy for minutes): then no replay of a slot
is clean. :func:`speed_factors` turns the speed probe taken after every
slot into one divisor per replay for that case — a low quantile of the
replay's probe times over the probe's reference time. On a quiet machine
the factor is 1; when everything is slow it is how much slower, and
dividing by it reports the time the op would have taken at the reference
speed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np


def slot_minimum(samples: Sequence[Sequence[float]]) -> np.ndarray:
    """Per-slot minimum over replays; ``inf`` if the op ever failed."""
    matrix = np.asarray(samples, dtype=float)
    if matrix.ndim != 2 or 0 in matrix.shape:
        raise ValueError(f"need a replays x slots matrix, got shape {matrix.shape}")
    failed = np.isnan(matrix).any(axis=0)
    return np.where(failed, np.inf, np.min(np.where(np.isnan(matrix), np.inf, matrix), axis=0))


# What the probe's per-replay tenth percentile reads at the quietest the VM
# of the baseline gets. It defines the speed that "ms" and "s" refer to: on
# another machine or toolchain the factor has another level, the same for
# every commit measured there.
PROBE_REFERENCE_NS = 870_000
PROBE_QUANTILE = 0.1           # steadier than the floor, still below every burst


def speed_factors(probes: Sequence[Sequence[float]],
                  reference: float = PROBE_REFERENCE_NS) -> np.ndarray:
    """One slowdown factor per replay from its per-slot probe times."""
    matrix = np.asarray(probes, dtype=float)
    return np.quantile(matrix, PROBE_QUANTILE, axis=1) / reference


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile that stays defined with ``inf`` values."""
    ordered = sorted(float(v) for v in values)
    if not ordered or not 0.0 <= q <= 1.0:
        raise ValueError("quantile needs values and 0 <= q <= 1")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    weight = position - low
    if weight == 0.0:
        return ordered[low]
    if math.isinf(ordered[low + 1]):
        return math.inf
    return ordered[low] + weight * (ordered[low + 1] - ordered[low])


def slots_beyond(count: int, q: float) -> int:
    """How many of ``count`` slots lie strictly beyond the q-quantile.

    The reporting rule: a percentile needs ten slots past it.
    """
    return count - 1 - math.ceil(q * (count - 1))


def throughput(minima: Sequence[float], clients: Sequence[int]) -> float:
    """Ops per second of a closed loop: slots / the busiest client's time.

    ``clients[i]`` names the client that issues slot ``i``; clients run
    concurrently, each waiting for its own replies.
    """
    busy: dict[int, float] = {}
    for value, client in zip(minima, clients):
        busy[client] = busy.get(client, 0.0) + float(value)
    longest = max(busy.values())
    if math.isinf(longest):
        return 0.0
    return len(minima) / longest


def interference_ratio(samples: Sequence[Sequence[float]]) -> float:
    """Sum of all raw samples over (replays x sum of slot minima)."""
    matrix = np.asarray(samples, dtype=float)
    minima = slot_minimum(matrix)
    good = np.isfinite(minima)
    if not good.any():
        return math.nan
    return float(np.nansum(matrix[:, good]) / (matrix.shape[0] * minima[good].sum()))
