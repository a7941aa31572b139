"""Distributed grouping and aggregation (the slide-52 workload).

The tutorial motivates multi-round processing with

    SELECT cKey, month, sum(price) FROM Orders, Customers
    GROUP BY cKey, month

Two strategies for the GROUP BY stage:

- :func:`group_by` — one-phase: shuffle every tuple by its group key and
  fold locally. Load ≈ IN/p, but a heavy group concentrates on one
  server (the same skew problem as the hash join).
- :func:`two_phase_group_by` — pre-aggregate locally (free compute),
  then shuffle only the *partial aggregates*: at most one tuple per
  (server, group), so the shuffle moves ≤ p·G tuples and each server
  receives ≤ G — immune to value skew for algebraic aggregates.

Aggregates are algebraic: ``fold(values) -> partial`` and
``merge(partials) -> result`` (sum/count/min/max style).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.kernels.columnar import column_of
from repro.kernels.join import code_key_columns
from repro.kernels.memo import route
from repro.kernels.partition import stable_groups, try_route
from repro.mpc.cluster import Cluster
from repro.mpc.server import held
from repro.mpc.stats import RunStats

Row = tuple[Any, ...]


def group_by(
    relation: Relation,
    keys: Sequence[str],
    value: str,
    fold: Callable[[list[Any]], Any],
    p: int,
    seed: int = 0,
) -> tuple[Relation, RunStats]:
    """One-phase hash GROUP BY: route rows by key, fold each group locally."""
    key_idx = relation.schema.indices(keys)
    value_idx = relation.schema.index(value)

    cluster = Cluster(p, seed=seed)
    cluster.scatter(relation, "G@in")
    h = cluster.hash_function(0)
    with cluster.round("groupby-shuffle") as rnd:
        route(cluster, rnd, "G@in", key_idx, h, "G@j", relation)
    arity = relation.schema.arity
    return _gathered(cluster, "G@j", arity, key_idx, value_idx, keys, value, fold), cluster.stats


def two_phase_group_by(
    relation: Relation,
    keys: Sequence[str],
    value: str,
    fold: Callable[[list[Any]], Any],
    merge: Callable[[list[Any]], Any],
    p: int,
    seed: int = 0,
) -> tuple[Relation, RunStats]:
    """Combiner-based GROUP BY: local partials, then shuffle one row per
    (server, group). ``merge`` combines the partial ``fold`` results.
    """
    key_idx = relation.schema.indices(keys)
    value_idx = relation.schema.index(value)
    arity = relation.schema.arity

    cluster = Cluster(p, seed=seed)
    cluster.scatter(relation, "G@in")
    h = cluster.hash_function(0)
    with cluster.round("groupby-partials") as rnd:
        for server in cluster.servers:
            columns = held(server.take("G@in"), arity)
            if len(columns[0]):
                key_cols, partials = _fold_groups(columns, key_idx, value_idx, fold)
                # h(key) of the key *tuple*, one block per destination
                try_route(rnd, key_cols + [column_of(partials)], range(len(keys)), h,
                          "G@partial")

    last = len(keys)  # a partial row is the key, then the partial
    merged = _gathered(cluster, "G@partial", last + 1, range(last), last, keys, value, merge)
    return merged, cluster.stats


def _fold_groups(
    columns: Sequence[np.ndarray], key_idx: Sequence[int], value_idx: int,
    fold: Callable[[list[Any]], Any],
) -> tuple[list[np.ndarray], list[Any]]:
    """``(key columns, partials)``: one row per group of equal keys, groups
    in first-arrival order, each key as it first arrived, and ``fold`` of
    the group's values in arrival order — what a dict of key tuples gives
    (equal is Python ``==``), in one coding pass and one call per group."""
    n = len(columns[value_idx])
    key_cols = [columns[i] for i in key_idx]
    if key_cols:
        codes = code_key_columns(key_cols, [column[:0] for column in key_cols])[0]
    else:
        codes = np.zeros(n, dtype=np.int64)
    order, starts = stable_groups([codes])  # groups by code, arrival order within
    values = columns[value_idx][order].tolist()
    runs = [values[lo:hi] for lo, hi in zip(starts, starts[1:] + [n])]
    first = order[starts]  # where each group's first row arrived
    by_arrival = np.argsort(first)
    return (
        [column[first[by_arrival]] for column in key_cols],
        [fold(runs[g]) for g in by_arrival.tolist()],
    )


def _gathered(
    cluster: Cluster, fragment: str, arity: int, key_idx: Sequence[int], value_idx: int,
    keys: Sequence[str], value: str, fold: Callable[[list[Any]], Any],
) -> Relation:
    """Every server's groups of ``fragment``, folded, in server order."""
    key_blocks: list[list[np.ndarray]] = [[] for _ in keys]
    folded: list[Any] = []
    for server in cluster.servers:
        columns = held(server.take(fragment), arity)
        if len(columns[0]):
            key_cols, partials = _fold_groups(columns, key_idx, value_idx, fold)
            for blocks, column in zip(key_blocks, key_cols):
                blocks.append(column)
            folded.extend(partials)
    schema = Schema(list(keys) + [f"{value}_agg"])
    return Relation.from_chunks("AGG", schema, key_blocks + [[column_of(folded)]])


def reference_group_by(
    relation: Relation,
    keys: Sequence[str],
    value: str,
    fold: Callable[[list[Any]], Any],
) -> Relation:
    """Sequential ground truth for the distributed variants."""
    key_idx = relation.schema.indices(keys)
    value_idx = relation.schema.index(value)
    groups: dict[Row, list[Any]] = {}
    for row in relation:
        groups.setdefault(tuple(row[i] for i in key_idx), []).append(row[value_idx])
    schema = Schema(list(keys) + [f"{value}_agg"])
    return Relation(
        "AGG", schema, [key + (fold(values),) for key, values in groups.items()]
    )
