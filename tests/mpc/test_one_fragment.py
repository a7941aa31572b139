"""A fragment is one thing: column blocks.

From ``scatter`` through the shuffle to the local step a server holds
each fragment once, as a :class:`ChunkedColumns` — a relation's tuples
and every per-tuple sender's alike — and nothing on that path builds
rows beside it. Pinned here:

(a) int inputs travel the six kernel-path algorithms without one tuple
    being asked for, and every stored fragment and cached plan group
    holds one representation;
(b) whatever the holding, the value kind, the audit and the fault plan,
    a run observes what the scalar rung observes;
(c) a row sent alone is a one-row block: a buffer, and a fragment, stay
    blocks in send order;
(d) scatter places read-only *views* of the relation's arrays, and no
    result is a writable alias of them;
(e) the process backend agrees, message for message, and leaves no
    shared-memory segment behind.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.exec.config import use_backend
from repro.joins.broadcast_join import broadcast_join
from repro.joins.hash_join import parallel_hash_join
from repro.joins.skew_join import skew_join
from repro.kernels import memo
from repro.kernels.memo import clear_memo
from repro.mpc.audit import audited
from repro.mpc.cluster import Cluster
from repro.mpc.faults import ChannelFault, CrashFault, FaultPlan, RecoveryPolicy, faulty
from repro.mpc.server import ChunkedColumns, Server
from repro.multiway.gym import gym
from repro.multiway.hypercube import hypercube_join
from repro.multiway.skewhc import skewhc_join
from repro.query.parser import parse_query
from repro.testing.scalar_reference import send_row
from tests.holdings import fragment_of, holdings, observe, scalar_rung

PATH = parse_query("R(x, y), S(y, z)")
TRIANGLE = parse_query("R(x, y), S(y, z), T(z, x)")
N = np.arange(120)


def _int_inputs():
    """Fresh from_columns inputs: y is skew-free, x = 0 is a hub of R and T."""
    return {
        "R": Relation.from_columns("R", ["x", "y"], [np.where(N % 3 == 0, 0, N % 13), N % 17]),
        "S": Relation.from_columns("S", ["y", "z"], [(N * 7) % 17, N % 11]),
        "T": Relation.from_columns("T", ["z", "x"], [N % 11, np.where(N % 4 == 0, 0, N % 13)]),
    }


def _hub_inputs():
    """R ⋈ S on y with y = 0 heavy on both sides (skew_join peels it)."""
    return {
        "R": Relation.from_columns("R", ["x", "y"], [N, np.where(N % 3 == 0, 0, N % 7)]),
        "S": Relation.from_columns("S", ["y", "z"], [np.where(N % 4 == 0, 0, N % 9), -N]),
    }


ALGORITHMS = {
    "hash": lambda rels, p: parallel_hash_join(rels["R"], rels["S"], p, seed=3),
    "broadcast": lambda rels, p: broadcast_join(rels["R"], rels["S"], p, seed=3),
    "hypercube": lambda rels, p: hypercube_join(TRIANGLE, rels, p, seed=3),
    "gym": lambda rels, p: gym(PATH, {"R": rels["R"], "S": rels["S"]}, p, seed=3),
    "skew": lambda rels, p: skew_join(rels["R"], rels["S"], p, seed=3),
    "skewhc": lambda rels, p: skewhc_join(TRIANGLE, rels, p, seed=3),
}


# ------------------------------------------------------- (a) no tuple is made


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_int_inputs_travel_without_one_tuple_being_asked_for(name, monkeypatch):
    calls = []
    for owner, method in ((Relation, "rows_readonly"), (Relation, "rows"),
                          (ChunkedColumns, "__iter__")):
        real = getattr(owner, method)

        def counting(self, *args, _real=real, _what=f"{owner.__name__}.{method}"):
            calls.append(_what)
            return _real(self, *args)

        monkeypatch.setattr(owner, method, counting)
    clusters = []
    real_init, real_clear, real_finish = Cluster.__init__, Cluster._clear, Cluster._finish_round
    stored = []  # what the servers held after each barrier, and when each step or pool ended

    def recording_init(self, *args, **kwargs):
        clusters.append(self)
        real_init(self, *args, **kwargs)

    def recording_clear(self):
        stored.extend(part for server in self.servers for part in server.storage.values())
        real_clear(self)

    def recording_finish(self, rnd):
        real_finish(self, rnd)
        stored.extend(part for server in self.servers for part in server.storage.values())

    monkeypatch.setattr(Cluster, "__init__", recording_init)
    monkeypatch.setattr(Cluster, "_clear", recording_clear)
    monkeypatch.setattr(Cluster, "_finish_round", recording_finish)

    relations = _hub_inputs() if name == "skew" else _int_inputs()
    clear_memo()
    run = ALGORITHMS[name](relations, 8)
    assert calls == []
    assert all(column.dtype == np.int64 for column in run.output.columns())
    assert len(run.output) > 0
    assert len(clusters) == 1
    if name == "skew":  # the hub's product ran on a pool of its own, beside the light join
        assert run.stats.rounds[0].label == "hash-shuffle+cartesian-replicate"
    if name == "skewhc":
        assert run.details["jobs"] > 1  # x = 0 is heavy: residuals, on pools

    # One store per server, and what it holds is one thing.
    assert Server.__slots__ == ("sid", "storage")
    stored += [part for c in clusters for server in c.servers for part in server.storage.values()]
    assert any(isinstance(part, ChunkedColumns) for part in stored)
    assert all(isinstance(part, ChunkedColumns) for part in stored)
    # A cached plan holds one part per destination: frozen blocks, no rows.
    plans = [entry[2] for entry in memo._plans._entries.values()]
    assert plans or name in ("broadcast", "skew")
    for groups, _offsets, _nbytes, _hash_ops in plans:
        for group in groups:
            _dest, part = group
            assert all(isinstance(b, np.ndarray) and not b.flags.writeable for b in part)
    clear_memo()


# --------------------------------------- (b) every holding, kind, audit, fault


KINDS = {
    "int": lambda name, attr, v: v,
    "string": lambda name, attr, v: f"k{v}" if attr == "y" else v,
    "bool": lambda name, attr, v: v % 2 == 0 if (name, attr) == ("S", "z") else v,
    "int-key-string-payload": lambda name, attr, v: f"p{v}" if attr in ("x", "z") else v,
}
MODES = {
    "plain": None,
    "audited": "audit",
    "crash": FaultPlan(crashes=(CrashFault(round=0, server=1),)),
    "scatter-crash": FaultPlan(scatter_crashes=(2,)),
    "drop": FaultPlan(channel_faults=(ChannelFault(0, 0, "drop", count=2),
                                      ChannelFault(0, 1, "drop", "L@j", count=1))),
    "duplicate": FaultPlan(channel_faults=(ChannelFault(0, 1, "duplicate", count=3),)),
}
small = st.integers(min_value=0, max_value=6)
pairs = st.lists(st.tuples(small, small), min_size=1, max_size=24)


@settings(max_examples=150, deadline=None)
@given(
    r_rows=pairs, s_rows=pairs, kind=st.sampled_from(sorted(KINDS)),
    mode=st.sampled_from(sorted(MODES)), recovered=st.booleans(),
    name=st.sampled_from(["hash", "broadcast", "gym", "skew"]), p=st.sampled_from([1, 3, 4]),
)
def test_every_holding_observes_what_the_scalar_rung_does(
    r_rows, s_rows, kind, mode, recovered, name, p
):
    change = KINDS[kind]
    case = {
        rel: (attrs, [tuple(change(rel, a, v) for a, v in zip(attrs, row)) for row in rows])
        for rel, attrs, rows in (("R", ["x", "y"], r_rows), ("S", ["y", "z"], s_rows))
    }
    plan = MODES[mode]
    if isinstance(plan, FaultPlan):
        plan = FaultPlan(
            crashes=plan.crashes, scatter_crashes=plan.scatter_crashes,
            channel_faults=plan.channel_faults, recovery=RecoveryPolicy(enabled=recovered),
        )

    def run(relations):
        with audited(plan == "audit"), faulty(plan if isinstance(plan, FaultPlan) else None):
            result = ALGORITHMS[name](relations, p)
        faults = result.stats.faults
        return (
            observe(result.output, result.stats), result.stats.max_load,
            result.stats.num_rounds, None if faults is None else faults.snapshot(),
        )

    clear_memo()
    with scalar_rung():
        want = run(holdings(case)["rows"])
    for how, relations in holdings(case).items():
        assert run(relations) == want, how
    clear_memo()


# ------------------------------------------------ (c) blocks meeting rows


@pytest.mark.parametrize("audit", [False, True])
def test_blocks_and_rows_in_one_buffer_arrive_as_rows_in_send_order(audit):
    def block(*values):
        return [np.array(values), np.array(values) * 10]

    cluster = Cluster(2, audit=audit)
    with cluster.round("mixed") as rnd:
        rnd.send_columns(0, "f", block(1, 2))          # source 0: blocks
        send_row(rnd, 0, "f", (3, "three"))             # source 1: one row, one block
        rnd.send_columns(0, "f", block(4))              # source 2: blocks again
        rnd.send_columns(1, "f", block(5, 6))           # another buffer
        rnd.send_columns(1, "f", block(7))
    mixed = cluster.servers[0].take("f")
    assert isinstance(mixed, ChunkedColumns)
    assert [len(blocks) for blocks in mixed.chunks] == [3, 3]
    assert list(mixed) == [(1, 10), (2, 20), (3, "three"), (4, 40)]
    assert mixed.arrays()[1].dtype == object  # the str column met the ints as object
    blocks_only = cluster.servers[1].take("f")
    assert isinstance(blocks_only, ChunkedColumns)
    assert [len(blocks) for blocks in blocks_only.chunks] == [2, 2]  # not concatenated yet
    assert list(blocks_only) == [(5, 50), (6, 60), (7, 70)]
    assert cluster.stats.rounds[-1].received == [4, 3]
    if audit:
        assert cluster.stats.audit.ok and cluster.stats.audit.rounds_audited == 1


def test_a_row_held_target_or_a_foreign_dtype_turns_blocks_into_rows():
    # Neither does any more: blocks append to what a server holds, and
    # blocks of another dtype meet it as object.
    cluster = Cluster(1)
    server = cluster.servers[0]
    server.put("f", fragment_of([("already", "here")], 2))
    with cluster.round("r") as rnd:
        rnd.send_columns(0, "f", [np.array([1]), np.array([2])])
        rnd.send_columns(0, "g", [np.array([1], dtype=np.int64)])
        rnd.send_columns(0, "g", [np.array([2**63 + 1], dtype=np.uint64)])
    f = server.take("f")
    assert isinstance(f, ChunkedColumns) and list(f) == [("already", "here"), (1, 2)]
    # A foreign dtype used to turn blocks into rows too. Now int64 and
    # uint64 blocks stay blocks and meet as an object column (numpy would
    # widen them to float): every value comes back as itself.
    g = server.take("g")
    assert isinstance(g, ChunkedColumns) and g.arrays()[0].dtype == object
    assert list(g) == [(1,), (2**63 + 1,)] and all(type(v) is int for (v,) in g)


# --------------------------------------------- (d) views in, no alias out


def _assert_no_writable_alias(output, relations):
    catalog = [column for rel in relations.values() for column in rel.columns()]
    for column in output.columns():
        assert not column.flags.writeable or not any(
            np.shares_memory(column, owned) for owned in catalog
        )


def test_scatter_places_read_only_views_and_results_never_alias_writably():
    relations = _int_inputs()
    before = {name: rel.rows_readonly()[:] for name, rel in relations.items()}
    one_atom = parse_query("R(x, y)")
    cluster = Cluster(4)
    cluster.scatter(relations["R"], "R@in")
    for server in cluster.servers:
        part = server.get("R@in")
        for mine, owned in zip(part.arrays(), relations["R"].columns()):
            assert np.shares_memory(mine, owned) and not mine.flags.writeable
            with pytest.raises(ValueError):
                mine[0] = 999
    runs = {
        "hash": parallel_hash_join(relations["R"], relations["S"], 4),
        "broadcast-in-place": broadcast_join(
            relations["R"], Relation.from_columns("S", ["y", "z"], [N[:5], N[:5]]), 4),
        "one-atom": hypercube_join(one_atom, {"R": relations["R"]}, 4),
        "one-atom-one-server": hypercube_join(one_atom, {"R": relations["R"]}, 1),
        "one-atom-residual": skewhc_join(one_atom, {"R": relations["R"]}, 4),
    }
    for name, run in runs.items():
        assert len(run.output) > 0, name
        _assert_no_writable_alias(run.output, relations)
    assert runs["one-atom-residual"].details["jobs"] > 1
    for name, rel in relations.items():
        assert not any(column.flags.writeable for column in rel.columns())  # held read-only
        assert rel.rows_readonly() == before[name] and rel.mutation_token() == 0


# ------------------------------------------------------ (e) process backend


def _psm_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def test_the_process_backend_agrees_message_for_message():
    # One message per worker per dispatch (gym: three semijoin/join
    # dispatches); the broadcast join's local join is a dispatch too.
    expected_messages = {"hash": 2, "broadcast": 2, "hypercube": 2, "gym": 6}
    before = _psm_segments()
    for name, messages in expected_messages.items():
        seen = {}
        for backend in ("inline", "process"):
            clear_memo()
            with use_backend(backend, workers=2):
                run = ALGORITHMS[name](_int_inputs(), 4)
            seen[backend] = (observe(run.output, run.stats),
                             [column.dtype for column in run.output.columns()])
            if backend == "process":
                assert run.stats.exec.queue_messages == messages, name
        assert seen["inline"] == seen["process"], name
        assert all(dtype == np.int64 for dtype in seen["inline"][1]), name
    assert _psm_segments() <= before
    clear_memo()
