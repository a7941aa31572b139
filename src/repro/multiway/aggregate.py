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

from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.kernels.memo import route
from repro.mpc.cluster import Cluster
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

    out_rows: list[Row] = []
    for server in cluster.servers:
        groups: dict[Row, list[Any]] = {}
        for row in server.take("G@j"):
            groups.setdefault(tuple(row[i] for i in key_idx), []).append(row[value_idx])
        for key, values in groups.items():
            out_rows.append(key + (fold(values),))

    schema = Schema(list(keys) + [f"{value}_agg"])
    return Relation("AGG", schema, out_rows), cluster.stats


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

    cluster = Cluster(p, seed=seed)
    cluster.scatter(relation, "G@in")
    h = cluster.hash_function(0)
    with cluster.round("groupby-partials") as rnd:
        for server in cluster.servers:
            local: dict[Row, list[Any]] = {}
            for row in server.take("G@in"):
                local.setdefault(tuple(row[i] for i in key_idx), []).append(
                    row[value_idx]
                )
            for key, values in local.items():
                rnd.send(h(key), "G@partial", key + (fold(values),))

    out_rows: list[Row] = []
    for server in cluster.servers:
        partials: dict[Row, list[Any]] = {}
        for row in server.take("G@partial"):
            partials.setdefault(row[:-1], []).append(row[-1])
        for key, parts in partials.items():
            out_rows.append(key + (merge(parts),))

    schema = Schema(list(keys) + [f"{value}_agg"])
    return Relation("AGG", schema, out_rows), cluster.stats


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
