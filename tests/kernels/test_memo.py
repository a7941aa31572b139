"""The intra-query memoization layer (:mod:`repro.kernels.memo`).

Three contracts under test:

- **engagement**: the layer needs no configuration, and a route that
  cannot replay (the scalar rung) leaves the caches untouched;
- the **partition cache**: replaying a cached routing plan is
  byte-identical to the scalar rung (:func:`tests.holdings.scalar_rung`)
  routing a fresh copy of the same rows, hits/misses are counted, any
  mutation of the relation invalidates, and an edit of a list ``rows()``
  handed out is never seen — proven both on directed cases and under
  hypothesis-driven mutate/route interleavings on both rungs,
  mirroring the PR 6 coherency suite; the plan's one-send-per-
  destination layout delivers, byte for byte, what the per-server
  kernel loop delivers;
- the **view cache**: derived views are shared on hit and rebuilt after
  mutation, and multi-round entry points actually engage the layer.
"""

import math
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.kernels.memo import (
    clear_memo,
    degree_view,
    distinct_project,
    memo_cache_sizes,
    project_view,
    route,
    route_scattered,
    route_scattered_grid,
)
from repro.kernels.partition import try_route, try_route_grid
from repro.mpc.cluster import Cluster, RoundContext
from repro.mpc.faults import ChannelFault, CrashFault, FaultPlan, faulty
from repro.mpc.server import ChunkedColumns, held
from repro.mpc.stats import MemoStats
from repro.mpc.topology import Grid
from tests.holdings import degree_counter, fragment_of, observe, scalar_rung

ARITY = 2

values = st.integers(min_value=-(2**40), max_value=2**40)
rows_st = st.tuples(*[values] * ARITY)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _relation(n=40, stride=3):
    return Relation("R", ["x", "y"], [(i * stride, i) for i in range(n)])


def _route(rel, p=4, seed=0):
    """Scatter ``rel`` into a fresh cluster and hash-route it on column 0.

    Mirrors the shuffle loops in ``joins``/``multiway``: memo replay
    first, then ``try_route`` per server. Returns (per-server deliveries,
    stats).
    """
    cluster = Cluster(p, seed=seed)
    frag = cluster.scatter(rel, "R@in")
    h = cluster.hash_function(0)
    with cluster.round("route") as rnd:
        if not route_scattered(cluster, rnd, rel, frag, (0,), h, "out"):
            for server in cluster.servers:
                try_route(rnd, held(server.take(frag), ARITY), (0,), h, "out")
    deliveries = [list(server.get("out")) for server in cluster.servers]
    return deliveries, cluster.stats


def _reference_route(rows, p=4, seed=0):
    """The scalar rung routing a fresh relation of ``rows``: no kernels, no
    replay, nothing cached — the reference every memoized route must match."""
    with scalar_rung():
        return _route(Relation("R", ["x", "y"], list(rows)), p=p, seed=seed)


# ------------------------------------------------------------- engagement


def test_memo_off_caches_nothing():
    # The layer is off exactly when it cannot prove a replay: on the scalar
    # rung nothing is built, counted or cached.
    rel = _relation()
    with scalar_rung():
        _, first = _route(rel)
        _, again = _route(rel)
    assert memo_cache_sizes() == (0, 0)
    assert not first.memo.any_activity and not again.memo.any_activity


# -------------------------------------------------------- partition cache


def test_replay_is_byte_identical_and_counted():
    rel = _relation()
    reference, ref_stats = _reference_route(rel.rows_readonly())
    first, first_stats = _route(rel)
    again, again_stats = _route(rel)
    assert first == reference
    assert again == reference
    assert first_stats.max_load == ref_stats.max_load
    assert again_stats.max_load == ref_stats.max_load
    assert first_stats.memo.partition_misses == 1
    assert first_stats.memo.partition_hits == 0
    assert again_stats.memo.partition_hits == 1
    assert again_stats.memo.hash_ops_saved > 0
    assert again_stats.memo.bytes_saved > 0
    assert memo_cache_sizes()[0] == 1


def test_mutation_invalidates_the_plan():
    rel = _relation()
    _route(rel)
    rel.add((999_983, -1))
    got, stats = _route(rel)
    want, _ = _reference_route(rel.rows_readonly())
    assert got == want
    assert stats.memo.partition_hits == 0
    assert stats.memo.partition_misses == 1


def test_borrowed_relation_is_never_served():
    # "Borrowed": rows() handed out and the list edited. The list is the
    # caller's copy, so the relation is unchanged and its plan still replays.
    rel = _relation()
    before = rel.rows_readonly()[:]
    _route(rel)
    live = rel.rows()
    live[0] = (123_456_789, 0)
    got, stats = _route(rel)
    want, _ = _reference_route(before)
    assert got == want
    assert stats.memo.partition_hits == 1
    assert rel.rows_readonly() == before and rel.mutation_token() == 0


def test_kernels_off_falls_back_identically():
    rel = _relation()
    reference, _ = _route(rel)  # kernels: built, cached, replay-ready
    with scalar_rung():
        got, stats = _route(rel)
    assert got == reference
    assert stats.memo.partition_hits + stats.memo.partition_misses == 0


def test_tampered_fragment_falls_back():
    # A fragment that no longer matches its scatter provenance must not
    # replay a stale plan.
    rel = _relation()
    _route(rel)  # prime the cache
    cluster = Cluster(4, seed=0)
    frag = cluster.scatter(rel, "R@in")
    cluster.servers[0].append(frag, fragment_of([(7, 7)], 2))
    h = cluster.hash_function(0)
    with cluster.round("route") as rnd:
        assert not route_scattered(cluster, rnd, rel, frag, (0,), h, "out")


# ------------------------------- per-destination replay == per-server loop


def _hash_shuffle(key_idx):
    """``shuffle(cluster, rnd, rel, frag)``: the hash ladder of ``memo.route``."""
    def shuffle(cluster, rnd, rel, frag):
        route(cluster, rnd, frag, key_idx, cluster.hash_function(0), "out", rel=rel)
        return key_idx
    return shuffle


def _grid_extents(p):
    """A three-dimensional grid on at most ``p`` servers, last extent > 1 if it fits."""
    return {1: (1, 1, 1), 3: (1, 1, 3), 8: (2, 2, 2), 13: (2, 2, 3)}[p]


def _grid_shuffle(column_dims):
    """HyperCube's ladder (replay, else the per-server grid kernel) for a
    two-column relation whose columns bind ``column_dims`` of the grid;
    ``rel=None`` names no relation to replay from."""
    def shuffle(cluster, rnd, rel, frag):
        extents = _grid_extents(cluster.p)
        strides, salts = Grid(extents).strides, (11, 22, 33)
        key_idx = tuple(range(len(column_dims)))
        if rel is None or not route_scattered_grid(
            cluster, rnd, rel, frag, column_dims, salts, extents, strides, "out"
        ):
            for server in cluster.servers:
                try_route_grid(
                    rnd, held(server.take(frag), ARITY), column_dims, salts, extents, strides, "out"
                )
        return key_idx
    return shuffle


def _observed(part):
    """A taken fragment as a consumer can see it: the rows it iterates to
    and, when it is held as column blocks, its whole columns."""
    return list(part), part.arrays() if isinstance(part, ChunkedColumns) else None


def _delivered(rel, p, shuffle, replay=True):
    """One audited round of ``shuffle`` over a fresh scatter of ``rel``
    (``replay=False``: the shuffle is not told the relation, so the
    per-server kernel loop routes it).

    Returns everything a consumer can observe: per server the delivered
    fragment (:func:`_observed`), the round's loads, C, and the memo
    counters.
    """
    cluster = Cluster(p, seed=5, audit=True)
    frag = cluster.scatter(rel, "R@in")
    with cluster.round("route") as rnd:
        shuffle(cluster, rnd, rel if replay else None, frag)
    assert cluster.stats.audit.ok and cluster.stats.audit.rounds_audited == 1
    assert all(not server.get(frag) for server in cluster.servers)  # consumed
    servers = [_observed(server.take("out")) for server in cluster.servers]
    return servers, cluster.stats


def _assert_replay_equals(got, want):
    (got_servers, got_stats), (want_servers, want_stats) = got, want
    for (got_rows, got_cols), (want_rows, want_cols) in zip(got_servers, want_servers):
        assert got_rows == want_rows
        assert (got_cols is None) == (want_cols is None)
        for got_col, want_col in zip(got_cols or (), want_cols or ()):
            assert got_col.dtype == want_col.dtype
            assert got_col.tolist() == want_col.tolist()
            # A replayed fragment is the cached block itself: frozen.
            assert not got_col.flags.writeable
    assert got_stats.rounds[-1].received == want_stats.rounds[-1].received
    assert got_stats.total_communication == want_stats.total_communication


@pytest.mark.parametrize("p", [1, 3, 8, 13])
@pytest.mark.parametrize("shuffle, hashed_columns", [
    # Key columns hashed, per p: a route to one destination and a grid
    # dimension of extent 1 (both bound ones at p = 3) hash nothing.
    (_hash_shuffle((0,)), {1: 0, 3: 1, 8: 1, 13: 1}),
    (_hash_shuffle((1, 0)), {1: 0, 3: 2, 8: 2, 13: 2}),
    # third dimension free: one send per offset
    (_grid_shuffle((0, 1)), {1: 0, 3: 0, 8: 2, 13: 2}),
    # repeated dimension: the later column wins, and only it is hashed
    (_grid_shuffle((0, 0)), {1: 0, 3: 0, 8: 1, 13: 1}),
], ids=["hash-1col", "hash-2col", "grid-free-dim", "grid-repeated-dim"])
def test_per_destination_replay_equals_the_per_server_kernel_loop(p, shuffle, hashed_columns):
    for n in sorted({0, 1, p - 1, 257}):
        clear_memo()
        rows = [((i * 7919) % 31 - 9, i % 5) for i in range(n)]
        rel = Relation("R", ["x", "y"], rows)
        want = _delivered(Relation("R", ["x", "y"], rows), p, shuffle, replay=False)
        want_memo = want[1].memo
        assert want_memo.partition_hits + want_memo.partition_misses == 0

        miss = _delivered(rel, p, shuffle)
        _assert_replay_equals(miss, want)
        assert (miss[1].memo.partition_misses, miss[1].memo.partition_hits) == (1, 0)
        assert miss[1].memo.hash_ops == want_memo.hash_ops
        assert miss[1].memo.hash_ops_saved == miss[1].memo.bytes_saved == 0

        hit = _delivered(rel, p, shuffle)
        _assert_replay_equals(hit, want)
        assert (hit[1].memo.partition_misses, hit[1].memo.partition_hits) == (0, 1)
        assert hit[1].memo.hash_ops == 0
        assert hit[1].memo.hash_ops_saved == want_memo.hash_ops
        # The plan's hashed key-column chunks: every int64 key value once.
        assert hit[1].memo.bytes_saved == n * hashed_columns[p] * 8


def test_two_routes_into_one_fragment_keep_route_order():
    # Both relations land in "out": every destination must hold the first
    # route's rows before the second's, whichever rung delivered them.
    rows_r = [(i % 11, i) for i in range(90)]
    rows_s = [(i % 7, -i) for i in range(60)]

    def both(r, s, replay=True):
        cluster = Cluster(4, seed=3, audit=True)
        h = cluster.hash_function(0)
        frags = [cluster.scatter(r, "R@in"), cluster.scatter(s, "S@in")]
        with cluster.round("route") as rnd:
            for rel, frag in zip((r, s), frags):
                route(cluster, rnd, frag, (0,), h, "out", rel=rel if replay else None)
        assert cluster.stats.audit.ok
        return [_observed(server.take("out")) for server in cluster.servers]

    r, s = Relation("R", ["x", "y"], rows_r), Relation("S", ["x", "y"], rows_s)
    want = both(r, s, replay=False)
    for _attempt in ("miss", "hit"):
        got = both(r, s)
        for (got_rows, got_cols), (want_rows, want_cols) in zip(got, want):
            assert got_rows == want_rows
            assert got_rows[: sum(row[1] >= 0 for row in got_rows)] == [
                row for row in got_rows if row[1] >= 0
            ]
            assert [c.tolist() for c in got_cols] == [c.tolist() for c in want_cols]


@pytest.mark.parametrize("shuffle, cells", [
    (_hash_shuffle((0,)), 8),  # buckets = p, one offset
    (_grid_shuffle((0, 1)), math.prod(_grid_extents(8))),  # 4 bound cells x 2 offsets
], ids=["hash", "grid"])
def test_a_replayed_route_sends_at_most_once_per_destination(monkeypatch, shuffle, cells):
    # The plan holds one group per destination, so a replay is at most
    # buckets x len(offsets) sends however many servers hold the fragment
    # (the per-server layout needed p times as many).
    p = 8
    rel = Relation("R", ["x", "y"], [(i * 13 % 101, i) for i in range(400)])
    _delivered(rel, p, shuffle)  # build the plan
    sends = []
    original = RoundContext.send_columns  # an int relation travels as blocks

    def counting(self, dest, *args, **kwargs):
        sends.append(dest)
        return original(self, dest, *args, **kwargs)

    monkeypatch.setattr(RoundContext, "send_columns", counting)
    _servers, stats = _delivered(rel, p, shuffle)
    assert stats.memo.partition_hits == 1
    assert 0 < len(sends) <= cells
    assert len(sends) == len(set(sends))  # no destination is sent to twice


operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), rows_st),
        st.tuples(st.just("extend"), st.lists(rows_st, max_size=3)),
        st.tuples(st.just("set_inplace"), st.integers(0, 7), rows_st),
        st.tuples(st.just("route"), st.integers(min_value=2, max_value=4)),
        st.tuples(st.just("route_twice"), st.integers(min_value=2, max_value=4)),
    ),
    max_size=10,
)


@pytest.mark.parametrize("kernels", [True, False])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(initial=st.lists(rows_st, max_size=8), ops=operations)
def test_partition_cache_coherent_under_interleavings(kernels, initial, ops):
    """Mirror of the PR 6 coherency suite for the partition cache.

    Whatever interleaving of mutations, edits of a handed-out ``rows()``
    copy (which change nothing) and routes the relation suffers, the
    memoized route must deliver exactly what the scalar rung delivers for
    a fresh copy of the same state — and an immediate re-route (the hit
    path) must too. ``kernels=False`` runs it all on the scalar rung.
    """
    clear_memo()
    with nullcontext() if kernels else scalar_rung():
        memoized = Relation("R", ["x", "y"], initial)
        shadow = list(initial)
        for op in ops:
            tag = op[0]
            if tag == "add":
                memoized.add(op[1])
                shadow.append(op[1])
            elif tag == "extend":
                memoized.extend(op[1])
                shadow.extend(op[1])
            elif tag == "set_inplace":
                live = memoized.rows()  # the caller's copy: the edit is not seen
                if live:
                    live[op[1] % len(live)] = op[2]
                assert memoized.rows_readonly() == shadow
            else:
                p = op[1]
                want, want_stats = _reference_route(shadow, p=p)
                got, got_stats = _route(memoized, p=p)
                assert got == want
                assert got_stats.max_load == want_stats.max_load
                if tag == "route_twice":
                    again, _ = _route(memoized, p=p)
                    assert again == want
    clear_memo()


# ------------------------------------------------------------- view cache


def test_project_view_shares_on_hit_and_rebuilds_on_mutation():
    rel = _relation()
    stats = MemoStats()
    first = project_view(rel, ("x",), stats=stats)
    second = project_view(rel, ("x",), stats=stats)
    assert second is first
    assert (stats.view_hits, stats.view_misses) == (1, 1)
    rel.add((-5, -5))
    third = project_view(rel, ("x",), stats=stats)
    assert third is not first
    assert third.rows_readonly() == rel.project(["x"]).rows_readonly()


def test_distinct_and_degrees_match_reference():
    rel = Relation("R", ["x", "y"], [(1, 2), (1, 3), (2, 2), (1, 2)])
    assert sorted(distinct_project(rel, ("x",)).rows_readonly()) == \
        [(1,), (2,)]
    assert degree_counter(degree_view(rel, (0,))) == Counter({(1,): 3, (2,): 1})
    # Every row carries the empty key — on the columnar path too.
    assert degree_counter(degree_view(rel, ())) == Counter({(): 4})
    # The cached view is shared between calls.
    assert degree_view(rel, (0,)) is degree_view(rel, (0,))


def test_view_cache_bypassed_for_borrowed_relations():
    # Nothing is bypassed any more: an edited rows() copy is not the
    # relation, so the view is cached and serves the unchanged rows.
    rel = _relation()
    want = rel.project(["x"]).rows_readonly()
    rel.rows().clear()
    first = project_view(rel, ("x",))
    rel.rows().append((1, 2))
    second = project_view(rel, ("x",))
    assert first is second and second.rows_readonly() == want
    assert memo_cache_sizes() == (0, 1)


# ------------------------------------------- multi-round engagement + stats


def test_multiround_entry_point_hits_the_cache():
    # A cold GYM run populates the caches; repeating the query on the
    # same unchanged relations (every round of a service loop, every
    # branch of the splitter) must replay instead of re-hashing — and
    # stay byte-identical to the scalar rung throughout.
    from repro.multiway.gym import gym
    from repro.query.parser import parse_query

    query = parse_query("Q(a, b, c) :- R(a, b), S(b, c)")
    relations = {
        "R": Relation("R", ["a", "b"], [(i % 7, i % 5) for i in range(60)]),
        "S": Relation("S", ["b", "c"], [(i % 5, i % 3) for i in range(60)]),
    }
    cold = gym(query, relations, p=4, seed=0)
    warm = gym(query, relations, p=4, seed=0)
    with scalar_rung():
        reference = gym(query, relations, p=4, seed=0)
    for run in (cold, warm):
        assert run.output.rows_readonly() == reference.output.rows_readonly()
        assert run.stats.max_load == reference.stats.max_load
    assert cold.stats.memo.partition_misses > 0
    assert warm.stats.memo.partition_hits > 0
    assert warm.stats.memo.view_hits > 0



def _faulted_repeat_algorithms():
    """``{name: run(p) -> (output, stats)}`` over fixed inputs, built once."""
    from repro.joins.hash_join import parallel_hash_join
    from repro.multiway.base import shuffle_multi_semijoin
    from repro.multiway.gym import gym
    from repro.multiway.hypercube import hypercube_join
    from repro.query.cq import path_query, triangle_query

    def pairs(n, a, b, left=13, right=11):
        return [((i * a) % left, (i * b + i // 7) % right) for i in range(n)]

    r = Relation("R", ["x", "y"], pairs(90, 5, 3))
    s = Relation("S", ["y", "z"], pairs(80, 3, 7, 11, 9))
    t = Relation("T", ["z", "x"], pairs(70, 7, 2, 9, 13))
    path = {f"R{i}": Relation(f"R{i}", [f"A{i - 1}", f"A{i}"], pairs(60 + 5 * i, i + 2, 3))
            for i in range(1, 5)}
    target = Relation("T", ["x", "w"], [(i % 9, i) for i in range(80)])  # no heavy key
    reducers = [Relation("K1", ["x", "u"], pairs(30, 1, 2, 7, 5)),
                Relation("K2", ["x", "v"], pairs(24, 3, 1, 6, 4))]

    def joined(run):
        return run.output, run.stats

    return {
        "hash": lambda p: joined(parallel_hash_join(r, s, p)),
        "hypercube": lambda p: joined(hypercube_join(
            triangle_query(), {"R": r, "S": s, "T": t}, p)),
        "gym": lambda p: joined(gym(path_query(4), path, p)),
        "multi-semijoin": lambda p: shuffle_multi_semijoin(target, reducers, p),
    }


FAULTED_REPEATS = {
    "crash": FaultPlan(crashes=(CrashFault(round=0, server=1),)),
    "drop": FaultPlan(channel_faults=(ChannelFault(0, 0, "drop", count=2),)),
    "duplicate": FaultPlan(channel_faults=(ChannelFault(0, 1, "duplicate", count=3),)),
}


@pytest.mark.parametrize("plan", sorted(FAULTED_REPEATS))
@pytest.mark.parametrize("name", ["hash", "hypercube", "gym", "multi-semijoin"])
def test_a_faulted_warm_repeat_replays_as_the_clean_one(name, plan):
    # Replay decides by content only: under a recovered fault plan a warm
    # repeat takes the cached plans the clean warm repeat takes, and
    # delivers the same bytes.
    run = _faulted_repeat_algorithms()[name]

    def warm(fault_plan):
        clear_memo()
        with faulty(fault_plan):
            run(8)
            output, stats = run(8)
        memo = stats.memo
        return observe(output, stats), (memo.partition_hits, memo.partition_misses), stats

    clean, clean_counts, _ = warm(None)
    faulted, faulted_counts, stats = warm(FAULTED_REPEATS[plan])
    assert clean_counts[0] > 0
    assert faulted_counts == clean_counts
    assert faulted == clean
    assert stats.faults.injected > 0 and stats.faults.clean

def test_memo_stats_merge_snapshot_delta_summary():
    a = MemoStats(partition_hits=2, hash_ops=10, bytes_saved=100)
    b = MemoStats(partition_hits=1, view_misses=3)
    merged = MemoStats()
    for part in (a, b):
        merged.add(part)
    assert merged.partition_hits == 3
    assert merged.hash_ops == 10
    assert merged.view_misses == 3
    snap = merged.snapshot()
    merged.partition_hits += 5
    delta = merged.delta(snap)
    assert delta.partition_hits == 5
    assert delta.hash_ops == 0
    assert merged.any_activity
    assert not MemoStats().any_activity
    line = merged.summary()
    assert line.startswith("memo: partition")
    assert "bytes_saved=100" in line
