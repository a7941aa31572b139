"""Shared result type and the charged one-round steps of multiway plans.

A plan builds one cluster for its query and composes two steps on it:

- :func:`join_step` — hash-partition two relations by their shared key
  and join locally, or the grid product when they share no attribute
  (the step of an iterative binary plan);
- :func:`semijoin_step` — reduce a target by several reducers sharing
  the same key attributes in one round, skew-aware (one Yannakakis/GYM
  semijoin, or optimized GYM's simultaneous ones).

Inputs are scattered (free, per the model's initial-placement grant),
the shuffle is charged, locals are computed and the result is gathered.
Steps follow one another on the same servers
(:meth:`~repro.mpc.cluster.Cluster.step`) or run side by side on pools,
server ranges whose k-th rounds are one round of the cluster
(:func:`on_pools` — the one place that decides how parallel steps share
the servers). :func:`shuffle_join`, :func:`shuffle_semijoin` and
:func:`shuffle_multi_semijoin` are one step on a cluster of their own.
Charging every phase's full shuffle is slightly conservative — a real
engine reuses co-partitioning — but keeps the accounting identical
across algorithms.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import accumulate, pairwise
from typing import Any

import numpy as np

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.joins.base import JoinRun
from repro.joins.cartesian import cartesian_on_cluster
from repro.joins.hash_join import one_round_hash_join
from repro.joins.heavy import allocate_servers
from repro.kernels.columnar import concatenated, key_columns, zip_rows
from repro.kernels.join import joint_codes, locate, slots
from repro.kernels.memo import cached_view, degree_view, distinct_project, ordered, route
from repro.kernels.partition import try_route
from repro.mpc.cluster import Cluster, row_bounds, server_column
from repro.mpc.server import ChunkedColumns, held
from repro.mpc.stats import RunStats


MultiwayRun = JoinRun  # a multiway plan's run is a join's, with its details


def on_pools(cluster: Cluster, ops: Sequence, weights: Sequence[float], seed: int,
             run: Callable[[Any, Cluster], Any]) -> list:
    """Run independent steps side by side on pools of ``cluster``.

    Pools are sized in proportion to the weights
    (:func:`~repro.joins.heavy.allocate_servers` of ``cluster.p``: at
    least one server per op, so more ops than servers oversubscribe),
    ``run(op, pool)`` runs each op on its pool, hashing with the
    functions of ``seed``, and the k-th rounds of the pools are one round
    (:meth:`~repro.mpc.cluster.Cluster.side_by_side`); one op is a step on
    all the servers. Returns the results in op order.
    """
    sizes = allocate_servers([max(weight, 1) for weight in weights], cluster.p)
    return cluster.side_by_side(sizes, seed, lambda i, pool: run(ops[i], pool))


def interned(cluster: Cluster, kind: str, inputs: tuple, output: Relation, routed: bool) -> Relation:
    """``output`` of the ``kind`` step over ``inputs`` on ``cluster`` — or, if a later
    step ``routed`` it, the equal one the step gave before over these unchanged inputs,
    servers and seed, so its routes and views replay. Never an answer (the cache would
    pin it), an output larger than its inputs, or one under faults that recovery does
    not undo byte for byte (off, or checkpoints sparser than every round)."""
    recovery = cluster.fault_controller and cluster.fault_controller.plan.recovery
    if not routed or len(output) > sum(map(len, inputs)) or recovery and (
            not recovery.enabled or recovery.checkpoint_interval > 1):
        return output
    key = ("step", kind, cluster.p, cluster._hash_family.seed)
    return cached_view(inputs, key, lambda: output, cluster.stats.memo)


def shuffle_join(
    r: Relation,
    s: Relation,
    p: int,
    seed: int = 0,
    label: str = "join",
) -> tuple[Relation, RunStats]:
    """One-round hash join; returns the (gathered) result ``J`` and its cost."""
    cluster = Cluster(p, seed=seed)
    return one_round_hash_join(cluster, r, s, label, "J"), cluster.stats


def join_step(cluster: Cluster, left: Relation, right: Relation, label: str = "join",
              routed: bool = False) -> Relation:
    """One step of a binary plan on ``cluster``: hash join on the shared
    key (gathered as ``J``), else grid product (gathered as ``OUT``);
    :func:`interned` when a later step ``routed`` it."""
    if left.schema.common(right.schema):
        output = one_round_hash_join(cluster, left, right, label, "J")
    else:
        output = cartesian_on_cluster(cluster, left, right)
    return interned(cluster, "join", (left, right), output, routed)


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
    """Reduce ``target`` by several reducers in a single round, skew-aware:
    :func:`semijoin_step` on a cluster of its own."""
    cluster = Cluster(p, seed=seed)
    return semijoin_step(cluster, target, reducers, label), cluster.stats


def semijoin_step(cluster: Cluster, target: Relation, reducers: list[Relation],
                  label: str = "semijoin", routed: bool = False) -> Relation:
    """Reduce ``target`` by several reducers in one round on ``cluster``, skew-aware;
    :func:`interned` when a later step ``routed`` it.

    All reducers must share the *same* key attributes with the target (a
    GYM parent whose children attach through one variable set — slide 90's
    simultaneous upward semijoins). A target tuple survives iff its key
    appears in every reducer.

    A key is heavy at degree ≥ max(IN/p, 2) in the target, IN counting the
    target and every reducer. Light keys are hash-partitioned together with
    the reducers' distinct keys (each reducer's degree-view keys). Heavy
    keys would overload a single hash bucket, so their target tuples *stay
    in place* and only the membership verdicts of the ≤ p heavy keys are
    broadcast — this is what keeps a semijoin at L = O(IN/p) under
    arbitrary skew (slide 58).
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
    p = cluster.p

    # Heavy keys by target degree (statistics assumed known, as in the
    # tutorial's skew algorithms; a real engine samples them), as columns
    # of the memoized degree view GYM reads every round.
    t_keys, counts = degree_view(target, t_idx, stats=cluster.stats.memo)
    in_size = len(target) + sum(len(r) for r in reducers)
    heavy = [k[counts >= max(in_size / p, 2.0)] for k in t_keys]
    is_heavy = bool(len(heavy[0]))

    t_frag = cluster.scatter(target, "T@in")
    reducer_lights: list[Relation] = []
    found = np.full(len(heavy[0]), True)
    for i, red in enumerate(reducers):
        # Without heavy keys the memoized distinct relation is scattered
        # directly, keeping a stable identity for the partition cache.
        light_keys = distinct_project(red, shared, stats=cluster.stats.memo)
        if is_heavy:
            columns = light_keys.columns()
            light = locate(columns, heavy) < 0
            light_keys = Relation.from_columns(red.name, shared, [c[light] for c in columns])
            # Heavy keys found in every reducer get their verdict broadcast.
            found &= locate(heavy, columns) >= 0
        reducer_lights.append(light_keys)
        cluster.scatter(light_keys, f"K{i}@in")
    heavy_alive = ordered(zip_rows([k[found] for k in heavy]))

    h = cluster.hash_function(0)
    key_arity = tuple(range(len(shared)))
    with cluster.round(label) as rnd:
        if is_heavy:
            for server in cluster.servers:
                t_cols = held(server.take(t_frag), target.schema.arity)
                server.put("T@stay", _route_light(rnd, t_cols, t_idx, heavy, h))
        else:
            route(cluster, rnd, t_frag, t_idx, h, "T@j", target)
        for i, light_keys in enumerate(reducer_lights):
            route(cluster, rnd, f"K{i}@in", key_arity, h, f"K{i}@j", light_keys)
        if heavy_alive:
            alive = key_columns(heavy_alive, range(len(shared)))
            for dest in range(p):
                rnd.send_columns(dest, "H@alive", alive)

    cluster.drop("H@alive")  # consumed: contents mirror `heavy_alive`
    arity = target.schema.arity
    columns, _bounds = cluster.compute(
        "semijoin.filter",
        [*((f"K{i}@j", len(shared)) for i in range(len(reducers))), ("T@j", arity),
         # Read only for heavy_alive; without heavy keys nothing stays.
         ("T@stay", arity if is_heavy else 0)],
        (tuple(t_idx), tuple(heavy_alive)),
    )
    output = Relation.from_columns(target.name, target.schema, columns)
    return interned(cluster, "semijoin", (target, *reducers), output, routed)


def _route_light(
    rnd: Any,
    columns: list[np.ndarray],
    t_idx: tuple[int, ...],
    heavy: list[np.ndarray],
    h: Any,
) -> ChunkedColumns:
    """Route light rows to ``h(key)``; return the heavy rows (they stay).

    One key lookup in the ``heavy`` key columns splits heavy from light;
    the light rows route in batched sends, the heavy ones cost no
    communication.
    """
    is_heavy = locate([columns[i] for i in t_idx], heavy) >= 0
    try_route(rnd, [column[~is_heavy] for column in columns], t_idx, h, "T@j")
    return ChunkedColumns([[column[is_heavy]] for column in columns])


def _member(keys: list, members: list[list]) -> np.ndarray:
    """Per row of ``keys``, whether its key is a row of every one of ``members``:
    the rows' codes are placed once in a slot table (:func:`~repro.kernels.join.slots`)
    over the span they were packed into with every member's
    (:func:`~repro.kernels.join.joint_codes`), which each member then marks."""
    both, span = joint_codes(keys, [concatenated(c) for c in zip(*members)])
    rows, codes = both[:len(keys[0])], both[len(keys[0]):]
    keep = np.full(len(rows), bool(len(codes)))
    if not len(codes):
        return keep
    code_slots, row_slots, size = slots(codes, rows, span)
    for start, end in pairwise([0, *accumulate(len(m[0]) for m in members)]):
        marked = np.zeros(size, dtype=bool)
        marked[code_slots[start:end]] = True
        keep &= marked[row_slots]
    return keep


def semijoin_filter_chunk(chunk: list, common) -> tuple:
    """Exec task ``semijoin.filter``: the local phase of the multi-semijoin.

    The chunk is every reducer's key table, the routed target's and the
    heavy stay-in-place rows'; a server's survivors are its routed rows
    whose key is in every reducer (one pass over ``(server, key)`` codes),
    then its heavy rows whose key survived globally (``heavy_alive``,
    broadcast by the coordinator): a stable order on the server puts them
    after the routed ones. Pure, so inline and workers agree byte-for-byte.
    """
    t_idx, heavy_alive = common
    *reducers, (target, bounds), (stay, stay_bounds) = chunk
    servers = server_column(bounds)
    keep = _member([servers, *(target[i] for i in t_idx)],
                   [[server_column(k_bounds), *keys] for keys, k_bounds in reducers])
    if not heavy_alive:
        return [column[keep] for column in target], row_bounds(servers[keep], len(bounds) - 1)
    alive = _member([stay[i] for i in t_idx], [key_columns(heavy_alive, range(len(t_idx)))])
    both = np.concatenate((servers[keep], server_column(stay_bounds)[alive]))
    order = np.argsort(both, kind="stable")
    survivors = [concatenated([t[keep], s[alive]])[order] for t, s in zip(target, stay)]
    return survivors, row_bounds(both[order], len(bounds) - 1)
