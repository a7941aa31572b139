"""Benchmark inputs: a fixed multiset per op, a seeded order.

Every op's input *values* — which rows join with which, every degree
sequence, hence every output size, every hash bucket's load and the
planner's choice — come from a generator seeded by the op's (class, size,
variant) only, so they are the same in every run. The run's ``--seed``
draws the order of the rows inside each relation (and, in
:mod:`perfbench.workloads`, the order of the slots in the script).
Different seeds therefore feed the engine different sequences, but no
seed changes how much work an op is or what L it measures: a difference
between two runs is the program or the machine, never the luck of a Zipf
sample, and ``mpc_load_sum`` / ``mpc_rounds_sum`` are the same number
under every seed.

Plain numpy only — nothing here imports ``repro``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# name -> (attribute names, one int64 column per attribute)
Columns = dict[str, tuple[tuple[str, ...], list[np.ndarray]]]

ENGINE_CLASSES = ("hash", "skew", "tri", "skewtri", "path4")
DIRECT_CLASSES = ("semijoin", "psrs", "matmul")
CLASSES = ENGINE_CLASSES + DIRECT_CLASSES

QUERIES = {
    "hash": (("R", "xy"), ("S", "yz")),
    "skew": (("R", "xy"), ("S", "yz")),
    "tri": (("R", "xy"), ("S", "yz"), ("T", "zx")),
    "skewtri": (("R", "xy"), ("S", "yz"), ("T", "zx")),
    "path4": (("R", "xy"), ("S", "yz"), ("T", "zw"), ("U", "wv")),
}


@dataclass
class OpData:
    """The raw inputs of one distinct op (numpy / plain Python only)."""

    klass: str
    n: int
    variant: int
    relations: Columns = field(default_factory=dict)
    items: list[int] | None = None                 # psrs
    matrices: tuple[np.ndarray, np.ndarray] | None = None   # matmul
    block: int = 0                                 # matmul block size


def _zipf_degrees(n: int, keys: int, s: float) -> np.ndarray:
    """A degree sequence summing to ``n`` that follows k^-s exactly."""
    weights = np.arange(1, keys + 1, dtype=float) ** -s
    degrees = np.floor(weights / weights.sum() * n).astype(np.int64)
    degrees[0] += n - int(degrees.sum())
    return degrees


def _pairs(rng: np.random.Generator, n: int, left: int, right: int) -> list[np.ndarray]:
    return [rng.integers(0, left, size=n), rng.integers(0, right, size=n)]


def _structure(klass: str, n: int, rng: np.random.Generator) -> dict[str, list[np.ndarray]]:
    """The fixed columns of every relation of one op."""
    serial = np.arange(n, dtype=np.int64)
    if klass == "hash":
        keys = np.repeat(np.arange(n // 2, dtype=np.int64), 2)
        return {"R": [serial, keys], "S": [keys, serial]}
    if klass == "skew":
        heavy = np.repeat(
            np.arange(max(n // 10, 8), dtype=np.int64),
            _zipf_degrees(n, max(n // 10, 8), 1.5),
        )
        light = np.repeat(np.arange(n // 2, dtype=np.int64), 2)
        return {"R": [serial, heavy], "S": [light, serial]}
    if klass in ("tri", "skewtri"):
        domain = int(3 * math.sqrt(n))
        if klass == "tri":
            a, b = _pairs(rng, n, domain, domain)
        else:
            domain *= 2
            weights = np.arange(1, domain + 1, dtype=float) ** -1.4
            a = rng.choice(domain, size=n, p=weights / weights.sum())
            b = rng.integers(0, domain, size=n)
        edges = np.unique(np.stack([a, b], axis=1), axis=0)
        cols = [edges[:, 0].copy(), edges[:, 1].copy()]
        return {"R": cols, "S": cols, "T": cols}
    if klass == "path4":
        domain = 2 * n // 3
        return {name: _pairs(rng, n, domain, domain) for name in "RSTU"}
    if klass == "semijoin":
        return {name: _pairs(rng, n, n, n) for name in ("T", "R0", "R1", "R2")}
    raise ValueError(f"no relational structure for op class {klass!r}")


def make_op(klass: str, n: int, variant: int, rng: np.random.Generator) -> OpData:
    """One op's inputs: values from (class, n, variant), row order from ``rng``."""
    fixed = np.random.default_rng([CLASSES.index(klass), n, variant])
    op = OpData(klass, n, variant)
    if klass == "psrs":
        op.items = rng.permutation(fixed.integers(0, n, size=2 * n)).tolist()
        return op
    if klass == "matmul":
        side = 16 * round(math.sqrt(n) / 4)
        op.matrices = (
            fixed.integers(0, 10, size=(side, side)).astype(float),
            fixed.integers(0, 10, size=(side, side)).astype(float),
        )
        op.block = side // 4
        return op
    if klass == "semijoin":
        schemas = {"T": ("x", "y"), "R0": ("y", "q"), "R1": ("y", "q"), "R2": ("y", "q")}
    else:
        schemas = {name: tuple(attrs) for name, attrs in QUERIES[klass]}
    for name, cols in _structure(klass, n, fixed).items():
        order = rng.permutation(len(cols[0]))
        op.relations[name] = (schemas[name], [col[order] for col in cols])
    return op


def query_text(klass: str, suffix: str = "") -> str:
    """The conjunctive query of an engine class, relation names suffixed."""
    return ", ".join(
        f"{name}{suffix}({', '.join(attrs)})" for name, attrs in QUERIES[klass]
    )
