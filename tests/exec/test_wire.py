"""The process backend's wire: one frame per worker over a pipe.

Bytes ride the frame; only a block at or above ``shm._MIN_SEGMENT_BYTES``
takes a shared-memory segment, every time it is sent. These tests pin the
structure (no segment, no queue, no feeder thread at ordinary sizes), the
round-trip contract of the encoding on both sides of the floor, and the
protocol invariant that keeps large frames deadlock-free.
"""

import threading
from multiprocessing import shared_memory

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.generators import uniform_relation
from repro.exec import shm, tasks
from repro.exec.config import use_backend
from repro.exec.pool import WorkerPool, shutdown_pools
from repro.joins.hash_join import parallel_hash_join
from repro.sorting.psrs import psrs_sort
from tests.exec.test_segments import _psm_segments, created  # noqa: F401 - a fixture


def _echo_chunk(payloads, common):
    return list(payloads)


def _total_chunk(payloads, common):
    return [int(np.asarray(block).sum()) for block in payloads]


tasks.register("wire.echo", _echo_chunk)
tasks.register("wire.total", _total_chunk)


# ------------------------------------------------------------- structure


def test_ordinary_queries_touch_no_segment(monkeypatch, created):
    made = []
    real = shared_memory.SharedMemory

    def counting(*args, **kwargs):
        made.append(kwargs or args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shared_memory, "SharedMemory", counting)
    shutdown_pools()  # the pool below forks with this module's real floor

    R = uniform_relation("R", ("a", "b"), 2000, universe=500, seed=1)
    S = uniform_relation("S", ("b", "c"), 2000, universe=500, seed=2)
    items = np.random.default_rng(3).integers(0, 10_000, 2800).tolist()

    def run():
        return parallel_hash_join(R, S, 8), psrs_sort(items, 8)

    with use_backend("inline"):
        inline = run()
    with use_backend("process", workers=2):
        process = run()

    assert made == []  # the coordinator constructed no SharedMemory
    assert not created()  # nor did a worker
    for (out_i, stats_i), (out_p, stats_p) in zip(
        [(inline[0].output, inline[0].stats), (inline[1][0], inline[1][1])],
        [(process[0].output, process[0].stats), (process[1][0], process[1][1])],
    ):
        assert out_i == out_p
        assert [r.received for r in stats_i.rounds] == [r.received for r in stats_p.rounds]
        assert stats_i.max_load == stats_p.max_load
        assert stats_i.num_rounds == stats_p.num_rounds
        ex = stats_p.exec
        assert ex.dispatches > 0
        assert ex.shm_bytes_out == ex.shm_bytes_in == 0
        assert ex.queue_messages == 2 * ex.dispatches  # one frame per worker per map
        assert ex.pickle_bytes_out > 0 and ex.pickle_bytes_in > 0


def test_a_dispatch_starts_no_thread():
    # A multiprocessing.Queue starts a feeder thread on its first put; a
    # pipe has none.
    pool = WorkerPool(2)
    try:
        before = threading.active_count()
        results, dispatch = pool.run("wire.total", [(0, [[1, 2]]), (1, [[3]])], None)
        assert results == [[3], [3]]
        assert dispatch.queue_messages == 2
        assert threading.active_count() == before
    finally:
        pool.shutdown()


# ------------------------------------------------------ round-trip property

_FLOOR = 256  # bytes: 32 int64 — arrays of 0-80 elements straddle it

_DTYPES = (np.int64, np.uint64, np.float64, np.bool_)


@st.composite
def _arrays(draw):
    dtype = draw(st.sampled_from(_DTYPES))
    kind = draw(st.sampled_from(
        ["contiguous", "strided", "transposed", "empty", "zero-d", "strings"]
    ))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if kind == "strings":
        n = draw(st.integers(0, 40))
        return np.array([f"s{i}-{seed}" for i in range(n)], dtype=object)
    if kind == "zero-d":
        base = rng.integers(0, 2, ()).astype(dtype)
    elif kind == "empty":
        base = np.zeros(draw(st.sampled_from([(0,), (0, 3), (2, 0)])), dtype=dtype)
    else:
        n = draw(st.integers(1, 80))
        raw = rng.integers(0, 2**62, n * 2, dtype=np.int64)
        base = (raw % 2 if dtype is np.bool_ else raw).astype(dtype)
        if kind == "contiguous":
            base = base[:n]
        elif kind == "strided":
            base = base[::2]
        else:
            base = base.reshape(2, n).T
    if draw(st.booleans()):
        base.flags.writeable = False  # scattered fragments are read-only
    return base


_ints = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([-(2**63), 2**63 - 1, 0]),
)


@st.composite
def _rows(draw):
    arity = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[_ints] * arity), min_size=0, max_size=80))
    twist = draw(st.sampled_from(["none", "bool", "ragged", "huge"]))
    if twist == "bool":
        rows.insert(0, (True,) + (1,) * (arity - 1))
    elif twist == "ragged":
        rows.append((1,) * (arity + 1))
    elif twist == "huge":
        rows.append((2**70,) + (0,) * (arity - 1))
    return rows


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False), st.text(max_size=5),
)

_payloads = st.recursive(
    st.one_of(_arrays(), _rows(), _scalars),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=12,
)


def _leaves(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _leaves(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _leaves(item)


def _assert_same(sent, got):
    assert type(got) is type(sent)
    if isinstance(sent, np.ndarray):
        assert got.dtype == sent.dtype and got.shape == sent.shape
        if sent.dtype == object:
            assert got.tolist() == sent.tolist()
        else:
            assert got.tobytes() == sent.tobytes()  # C-order values, NaN-safe
        assert got.flags.writeable
    elif isinstance(sent, (list, tuple)):
        assert len(got) == len(sent)
        for a, b in zip(sent, got):
            _assert_same(a, b)
    elif isinstance(sent, dict):
        assert list(got) == list(sent)
        for key in sent:
            _assert_same(sent[key], got[key])
    else:
        assert got == sent


def _assert_private(sent, got):
    """Every decoded array owns its bytes: none aliases the sender's
    payload or another decoded leaf."""
    mine = list(_leaves(got))
    foreign = list(_leaves(sent))
    for index, leaf in enumerate(mine):
        leaf[...] = leaf  # writable in fact, not just by flag
        for other in foreign + mine[:index]:
            assert not np.shares_memory(leaf, other)


@settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(payload=_payloads)
def test_round_trip_is_exact_private_and_writable(monkeypatch, payload):
    monkeypatch.setattr(shm, "_MIN_SEGMENT_BYTES", _FLOOR)

    # Coordinator side of a result: private copies, segment gone at once.
    result = shm.encode_payload(payload)
    owned = shm.decode_owned(result)
    _assert_same(payload, owned)
    _assert_private(payload, owned)

    # Worker side: views into the segment, valid until finish_read.
    lifted = [a.nbytes for a in _leaves(payload) if a.dtype != object and a.nbytes >= _FLOOR]
    encoded = shm.encode_payload(payload)
    assert encoded.slots == lifted and encoded.nbytes == sum(lifted)
    assert (encoded.segment_name is None) == (not lifted)
    decoded, segment = shm.decode_for_read(encoded)
    try:
        _assert_same(payload, decoded)
        _assert_private(payload, decoded)
    finally:
        del decoded
        shm.finish_read(segment)
    # Only this test's own segments: another process may hold some meanwhile.
    assert not _psm_segments() & {result.segment_name, encoded.segment_name}


# ------------------------------------------------------- the floor, for real


def test_a_block_at_the_floor_rides_a_segment_every_time(created):
    floor = shm._MIN_SEGMENT_BYTES
    at = np.arange(floor // 8, dtype=np.int64)  # exactly the floor
    under = at[:-1].copy()  # one element short of it
    pool = WorkerPool(2)
    try:
        chunks = [(0, [at]), (1, [under])]
        want = [[int(at.sum())], [int(under.sum())]]
        for _ in range(2):  # nothing is remembered: the repeat ships again
            results, dispatch = pool.run("wire.total", chunks, None)
            assert results == want
            assert dispatch.shm_bytes_out == floor  # only the block at the floor
            assert dispatch.pickle_bytes_out > under.nbytes  # the other rode the frame
    finally:
        pool.shutdown()
    assert len(created()) == 2 and not _psm_segments() & created()  # one per run


def test_large_frames_both_ways_on_both_workers_do_not_deadlock():
    # 64 blocks of 64 KiB per worker: a 4 MiB frame out and a 4 MiB reply
    # back on each pipe at once, far past any pipe buffer. The protocol
    # (write every frame, then read; a worker reads its whole frame
    # before it writes) must not wedge.
    pool = WorkerPool(2)
    killer = threading.Timer(20.0, pool._emergency_teardown)
    killer.start()
    try:
        blocks = [np.full(8192, k, dtype=np.int64) for k in range(128)]
        chunks = [(0, blocks[:64]), (1, blocks[64:])]
        results, dispatch = pool.run("wire.echo", chunks, None)
        assert killer.is_alive(), "dispatch wedged until the timer killed the pool"
        assert dispatch.shm_bytes_out == dispatch.shm_bytes_in == 0
        assert dispatch.pickle_bytes_out >= 4 << 20 and dispatch.pickle_bytes_in >= 4 << 20
        for k, block in enumerate(results[0] + results[1]):
            assert block.dtype == np.int64 and block.shape == (8192,)
            assert int(block[0]) == int(block[-1]) == k
    finally:
        killer.cancel()
        pool.shutdown()
