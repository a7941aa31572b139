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
from typing import Any

import numpy as np

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.joins.cartesian import cartesian_product
from repro.joins.hash_join import one_round_hash_join
from repro.kernels.columnar import concatenated, key_columns
from repro.kernels.join import code_key_columns, cut_at_tags, lookup_codes, stack_tagged
from repro.kernels.memo import distinct_project, key_degrees, route
from repro.kernels.partition import try_route
from repro.mpc.cluster import Cluster
from repro.mpc.server import ChunkedColumns, held
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

    # Heavy keys found in every reducer get their verdict broadcast (no
    # heavy key: no reducer is searched).
    heavy_keys = list(heavy)
    found = [set(lookup_codes(keys.columns(), heavy_keys).tolist())
             for keys in reducer_keys] if heavy else []
    heavy_alive = sorted(key for i, key in enumerate(heavy_keys) if all(i in f for f in found))

    h = cluster.hash_function(0)
    key_arity = tuple(range(len(shared)))
    with cluster.round(label) as rnd:
        if heavy:
            for server in cluster.servers:
                t_cols = held(server.take(t_frag), target.schema.arity)
                server.put("T@stay", _route_light(rnd, t_cols, t_idx, heavy_keys, h))
        else:
            route(cluster, rnd, t_frag, t_idx, h, "T@j", target)
        for i, frag in enumerate(reducer_frags):
            route(cluster, rnd, frag, key_arity, h, f"K{i}@j", reducer_lights[i])
        if heavy_alive:
            alive = key_columns(heavy_alive, range(len(shared)))
            for dest in range(p):
                rnd.send_columns(dest, "H@alive", alive)

    payloads = []
    arity = target.schema.arity
    for server in cluster.servers:
        server.take("H@alive")  # consumed: contents mirror `heavy_alive`
        payloads.append((
            [held(server.take(f"K{i}@j"), len(shared)) for i in range(len(reducers))],
            held(server.take("T@j"), arity),
            held(server.take("T@stay"), arity),
        ))
    results = cluster.map_servers(
        "semijoin.filter", payloads, (tuple(t_idx), tuple(heavy_alive))
    )
    for server, survivors in zip(cluster.servers, results):
        server.append_result("out", survivors)
    result = cluster.gather_relation("out", target.name, target.schema.attributes)
    return result, cluster.stats


def _route_light(
    rnd: Any,
    columns: list[np.ndarray],
    t_idx: tuple[int, ...],
    heavy: list[Row],
    h: Any,
) -> ChunkedColumns:
    """Route light rows to ``h(key)``; return the heavy rows (they stay).

    One key lookup splits heavy from light; the light rows route in
    batched sends, the heavy ones cost no communication.
    """
    is_heavy = lookup_codes([columns[i] for i in t_idx], heavy) >= 0
    try_route(rnd, [column[~is_heavy] for column in columns], t_idx, h, "T@j")
    return ChunkedColumns([[column[is_heavy]] for column in columns])


def semijoin_filter_chunk(payloads: list, common) -> list:
    """Exec task ``semijoin.filter``: the local phase of the multi-semijoin.

    Each payload is ``(per-reducer key columns, routed target columns,
    heavy stay-in-place columns)``; a server's survivors are its routed
    rows whose key appears in every reducer, then its heavy rows whose key
    survived globally (``heavy_alive``, broadcast by the coordinator). The
    chunk is filtered in one pass: one ``np.isin`` per reducer over
    ``(server, key)`` codes (masks are elementwise), and one for the heavy
    rows. Pure over its inputs, so inline and worker execution agree
    byte-for-byte.
    """
    t_idx, heavy_alive = common
    servers = len(payloads)
    lead = 1 if servers > 1 else 0  # the tag leads the key as it leads the columns

    def kept(columns: list, keep: np.ndarray) -> list[tuple]:
        return cut_at_tags([column[keep] for column in columns], servers)

    def member(keys: list, members: list) -> np.ndarray:
        return np.isin(*code_key_columns(keys, members))

    target = stack_tagged([t_cols for _keys, t_cols, _stay in payloads])
    reducers = [stack_tagged(list(parts)) for parts in zip(*(keys for keys, _t, _stay in payloads))]
    t_keys = target[:lead] + [target[i + lead] for i in t_idx]
    # Every mask over the whole target, as the per-server filter does.
    routed = kept(target, np.logical_and.reduce([member(t_keys, keys) for keys in reducers]))
    if not heavy_alive:
        return routed
    stay = stack_tagged([s_cols for _keys, _t, s_cols in payloads])
    alive = member([stay[i + lead] for i in t_idx], key_columns(heavy_alive, range(len(t_idx))))
    return [
        tuple(map(concatenated, zip(light, heavy)))
        for light, heavy in zip(routed, kept(stay, alive))
    ]
