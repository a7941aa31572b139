"""Shared result type and charged communication primitives for multiway plans.

Multi-round algorithms compose three charged one-round primitives:

- :func:`shuffle_join` — hash-partition two relations by their shared key
  and join locally (the step of an iterative binary plan;
  :func:`join_step` falls back to the grid product when the two sides
  share no attribute);
- :func:`shuffle_semijoin` — reduce a target relation by a reducer's
  distinct keys (one Yannakakis/GYM semijoin);
- :func:`shuffle_multi_semijoin` — reduce a target by several reducers
  sharing the same key attributes in a single round (optimized GYM).

Each primitive runs on a fresh cluster of ``p`` servers: inputs are
scattered (free, per the model's initial-placement grant), the shuffle is
charged, locals are computed, and the result is returned with the round's
:class:`RunStats`. Plans stitch phases together with
:func:`~repro.mpc.cluster.combine_sequential` (same servers, consecutive
rounds) and :func:`~repro.mpc.cluster.combine_parallel` (disjoint
servers, simultaneous rounds). Charging every phase's full shuffle is
slightly conservative — a real engine reuses co-partitioning — but keeps
the accounting identical across algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Any

import numpy as np

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.joins.cartesian import cartesian_product
from repro.joins.base import as_rows, chunk_step
from repro.joins.hash_join import one_round_hash_join
from repro.kernels.columnar import zip_rows
from repro.kernels.join import code_key_columns, cut_at_tags, semijoin_mask, stack_tagged
from repro.kernels.memo import distinct_project, key_degrees, route
from repro.kernels.partition import try_route
from repro.mpc.cluster import Cluster
from repro.mpc.server import ChunkedColumns
from repro.mpc.stats import RunStats

Row = tuple[Any, ...]


@dataclass
class MultiwayRun:
    """Output and cost of one distributed multiway-join execution."""

    output: Relation
    stats: RunStats
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def load(self) -> int:
        return self.stats.max_load

    @property
    def rounds(self) -> int:
        return self.stats.num_rounds


def shuffle_join(
    r: Relation,
    s: Relation,
    p: int,
    seed: int = 0,
    label: str = "join",
) -> tuple[Relation, RunStats]:
    """One-round hash join; returns the (gathered) result ``J`` and its cost."""
    return one_round_hash_join(r, s, p, seed, label, "J")


def join_step(
    left: Relation,
    right: Relation,
    p: int,
    seed: int = 0,
    label: str = "join",
) -> tuple[Relation, RunStats]:
    """One step of a binary plan: hash join on the shared key, else grid product."""
    if left.schema.common(right.schema):
        return shuffle_join(left, right, p, seed=seed, label=label)
    run = cartesian_product(left, right, p, seed=seed)
    return run.output, run.stats


def shuffle_semijoin(
    target: Relation,
    reducer: Relation,
    p: int,
    seed: int = 0,
    label: str = "semijoin",
) -> tuple[Relation, RunStats]:
    """One-round distributed semijoin ``target ⋉ reducer``."""
    return shuffle_multi_semijoin(target, [reducer], p, seed=seed, label=label)


def shuffle_multi_semijoin(
    target: Relation,
    reducers: list[Relation],
    p: int,
    seed: int = 0,
    label: str = "semijoin",
) -> tuple[Relation, RunStats]:
    """Reduce ``target`` by several reducers in a single round, skew-aware.

    All reducers must share the *same* key attributes with the target (a
    GYM parent whose children attach through one variable set — slide 90's
    simultaneous upward semijoins). A target tuple survives iff its key
    appears in every reducer.

    Light keys (degree < IN/p in the target) are hash-partitioned together
    with the reducers' distinct keys. Heavy keys would overload a single
    hash bucket, so their target tuples *stay in place* and only the
    membership verdicts of the ≤ p heavy keys are broadcast — this is
    what keeps a semijoin at L = O(IN/p) under arbitrary skew (slide 58).
    """
    if not reducers:
        raise QueryError("shuffle_multi_semijoin needs at least one reducer")
    keys = [target.schema.common(red.schema) for red in reducers]
    if any(not k for k in keys):
        raise QueryError(f"a reducer shares no attributes with {target.name}")
    if len(set(keys)) != 1:
        raise QueryError(
            f"simultaneous semijoins need one key; got {sorted(set(keys))}"
        )
    shared = keys[0]
    t_idx = target.schema.indices(shared)
    cluster = Cluster(p, seed=seed)

    # Heavy keys by target degree (statistics assumed known, as in the
    # tutorial's skew algorithms; a real engine samples them). The degree
    # map is memoized per mutation token — GYM recomputes it every round
    # on the same relations.
    degrees = key_degrees(target, t_idx, stats=cluster.stats.memo)
    in_size = len(target) + sum(len(r) for r in reducers)
    threshold = max(in_size / p, 2.0)
    heavy = {k for k, c in degrees.items() if c >= threshold}

    t_frag = cluster.scatter(target, "T@in")
    reducer_frags = []
    reducer_lights: list[Relation] = []
    reducer_keys: list[Relation] = []
    for i, red in enumerate(reducers):
        distinct_keys = distinct_project(red, shared, stats=cluster.stats.memo)
        reducer_keys.append(distinct_keys)
        # Without heavy keys the memoized distinct relation is scattered
        # directly, keeping a stable identity for the partition cache.
        light_keys = (
            distinct_keys
            if not heavy
            else distinct_keys.select(lambda row: row not in heavy)
        )
        reducer_lights.append(light_keys)
        reducer_frags.append(cluster.scatter(light_keys, f"K{i}@in"))

    # Heavy keys surviving every reducer get their verdict broadcast (no
    # heavy key: no key set is built).
    key_sets = [set(keys.rows_readonly()) for keys in reducer_keys] if heavy else []
    heavy_alive = sorted(k for k in heavy if all(k in ks for ks in key_sets))

    h = cluster.hash_function(0)
    key_arity = tuple(range(len(shared)))
    with cluster.round(label) as rnd:
        if heavy:
            for server in cluster.servers:
                stay = _route_light(rnd, as_rows(server.take(t_frag)), t_idx, heavy, h)
                server.put("T@stay", stay)
        else:
            route(cluster, rnd, t_frag, t_idx, h, "T@j", target)
            for server in cluster.servers:
                server.put("T@stay", [])
        for i, frag in enumerate(reducer_frags):
            route(cluster, rnd, frag, key_arity, h, f"K{i}@j", reducer_lights[i])
        for key in heavy_alive:
            rnd.broadcast("H@alive", key)

    payloads = []
    memo = cluster.stats.memo
    no_keys = [np.empty(0, dtype=np.int64)] * len(shared)
    for server in cluster.servers:
        server.take("H@alive")  # consumed: contents mirror `heavy_alive`
        keys = [server.take(f"K{i}@j") for i in range(len(reducers))]
        routed, stay = server.take("T@j"), server.take("T@stay")
        if isinstance(routed, ChunkedColumns) and not stay and all(
            isinstance(part, ChunkedColumns) or not part for part in keys
        ):
            memo.fused_payloads += 1
            payloads.append(
                ([part.arrays() if part else no_keys for part in keys], tuple(routed.arrays()), [])
            )
        elif not (len(routed) or stay):  # nothing to filter: decode no key
            payloads.append(([[] for _part in keys], [], []))
        else:
            memo.row_payloads += 1
            payloads.append(([as_rows(part) for part in keys], as_rows(routed), stay))
    results = cluster.map_servers(
        "semijoin.filter", payloads, (tuple(t_idx), tuple(heavy_alive))
    )
    for server, survivors in zip(cluster.servers, results):
        server.append_result("out", survivors)
    result = cluster.gather_relation("out", target.name, target.schema.attributes)
    return result, cluster.stats


def _route_light(
    rnd: Any,
    rows: list[Row],
    t_idx: tuple[int, ...],
    heavy: set[Row],
    h: Any,
) -> list[Row]:
    """Route light rows to ``h(key)``; return the heavy rows (they stay).

    One membership mask splits heavy from light; the light rows route in
    batched sends, the heavy ones cost no communication.
    """
    is_heavy = semijoin_mask(rows, t_idx, list(heavy))
    try_route(rnd, list(compress(rows, (~is_heavy).tolist())), t_idx, h, "T@j")
    return list(compress(rows, is_heavy.tolist()))


def semijoin_filter_chunk(payloads: list, common) -> list:
    """Exec task ``semijoin.filter``: the local phase of the multi-semijoin.

    Each payload is ``(per-reducer key row lists, routed target rows,
    heavy stay-in-place rows)``; the survivors are the light rows whose
    key appears in every reducer plus the heavy rows whose key survived
    globally (``heavy_alive``, broadcast by the coordinator). Pure over
    its inputs, so inline and worker execution agree byte-for-byte. A
    columns-only payload holds the keys' and the target's columns (a
    tuple) instead; a chunk's columns-only payloads are filtered in one pass:
    one ``np.isin`` per reducer over ``(server, key)`` codes (masks are elementwise).
    """
    t_idx, heavy_alive = common

    def one_pass(chunk: list) -> list | None:
        target = stack_tagged([t_cols for _keys, t_cols, _stay in chunk])
        reducers = [stack_tagged(list(parts)) for parts in zip(*(keys for keys, _t, _stay in chunk))]
        if target is None or None in reducers:
            return None
        lead = 1 if len(chunk) > 1 else 0  # the tag leads the key as it leads the columns
        t_keys = target[:lead] + [target[i + lead] for i in t_idx]
        # Every mask over the whole target, as the row path does.
        masks = [np.isin(*code_key_columns(t_keys, keys)) for keys in reducers]
        keep = np.logical_and.reduce(masks)
        return cut_at_tags([column[keep] for column in target], len(chunk))

    def by_rows(payload: tuple) -> list:
        key_rows, t_rows, stay_rows = payload
        if isinstance(t_rows, tuple):
            t_rows = zip_rows(t_rows)
            key_rows = [zip_rows(cols) for cols in key_rows]
        return _filter_members(t_rows, t_idx, key_rows) + _filter_members(
            stay_rows, t_idx, [heavy_alive]
        )

    return chunk_step(payloads, lambda payload: isinstance(payload[1], tuple), one_pass, by_rows)


def _filter_members(
    rows: list[Row], t_idx: tuple[int, ...], key_lists: list[list[Row]]
) -> list[Row]:
    """Rows whose key tuple appears in *every* key list (order preserved;
    no key list: every row)."""
    keep = np.ones(len(rows), dtype=bool)
    for keys in key_lists:
        keep &= semijoin_mask(rows, t_idx, keys)
    return list(compress(rows, keep.tolist()))


def shuffle_aggregate(
    rows: list[Row],
    key_positions: tuple[int, ...],
    combine: Any,
    p: int,
    seed: int = 0,
    label: str = "aggregate",
) -> tuple[list[Row], RunStats]:
    """One-round hash aggregation: route rows by key, fold groups locally.

    ``combine(key, group_rows) -> row`` produces one output row per group.
    Used by the SQL-on-MPC matrix multiplication's GROUP BY stage.
    """
    cluster = Cluster(p, seed=seed)
    cluster.scatter_rows(rows, "A@in")
    h = cluster.hash_function(0)
    with cluster.round(label) as rnd:
        route(cluster, rnd, "A@in", key_positions, h, "A@j")
    # An unpicklable ``combine`` (a closure) transparently degrades the
    # process backend to inline execution for this call.
    payloads = [server.take("A@j") for server in cluster.servers]
    results = cluster.map_servers(
        "aggregate.groups", payloads, (tuple(key_positions), combine)
    )
    out: list[Row] = [row for rows in results for row in rows]
    return out, cluster.stats


def aggregate_groups_chunk(payloads: list, common) -> list:
    """Exec task ``aggregate.groups``: fold each server's groups locally.

    Group order follows first-arrival order of each key (dict insertion
    order), identical across backends because the routed rows arrive in
    the same order either way.
    """
    key_positions, combine = common
    out = []
    for rows in payloads:
        groups: dict[Row, list[Row]] = {}
        for row in rows:
            groups.setdefault(tuple(row[i] for i in key_positions), []).append(row)
        out.append([combine(key, group) for key, group in groups.items()])
    return out
