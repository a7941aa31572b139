"""Resident dispatch protocol: caches, epochs, batching, accounting.

Workers keep content-addressed segment-sized blocks between dispatches
and the coordinator mirrors each worker's cache, so a repeated block
travels as a 16-byte token instead of bytes. These tests pin the cache mechanics
(tokens, staging, epoch invalidation, copy-on-hand-out), the pool-level
protocol (first dispatch ships bytes, repeat ships tokens; explicit
invalidation; mutation safety), the batched round dispatch, and the
per-query ExecStats accounting primitives.
"""

import numpy as np
import pytest

from repro.exec import shm, tasks
from repro.exec.base import ProcessBackend
from repro.exec.config import use_backend
from repro.exec.pool import WorkerPool, shutdown_pools
from repro.mpc.cluster import Cluster


def _total_chunk(payloads, common):
    return [int(np.asarray(block).sum()) for block in payloads]


def _mutate_chunk(payloads, common):
    # Mutates its inputs in place: a resident cache handing out the
    # cached object itself (instead of a copy) would corrupt the cache
    # and change the answer on the next hit.
    out = []
    for block in payloads:
        block += 1
        out.append(int(block.sum()))
    return out


def _scale_chunk(payloads, common):
    return [x * common for x in payloads]


def _call_chunk(payloads, common):
    return [fn(common) for fn in payloads]


tasks.register("resident.total", _total_chunk)
tasks.register("resident.mutate", _mutate_chunk)
tasks.register("resident.scale", _scale_chunk)
tasks.register("resident.call", _call_chunk)


@pytest.fixture(autouse=True)
def low_floor(monkeypatch):
    # This file's 4-8 KB blocks must reach the floor to be content-
    # addressed. Outbound placement is the coordinator's decision, so
    # lowering its constant is enough whenever the pool forked.
    monkeypatch.setattr(shm, "_MIN_SEGMENT_BYTES", 1024)
    yield
    # Workers forked meanwhile inherited the lowered floor for their
    # results; the shared pool must not carry it into other tests.
    shutdown_pools()


@pytest.fixture(scope="module")
def pool():
    pool = WorkerPool(2)
    yield pool
    pool.shutdown()


def _chunks():
    return [
        (0, [np.arange(1000, dtype=np.int64)]),
        (1, [np.arange(1000, 2000, dtype=np.int64)]),
    ]


# ------------------------------------------------------------- primitives


def test_block_token_is_content_addressed():
    a = np.arange(256, dtype=np.int64)
    b = np.arange(256, dtype=np.int64)
    assert shm._block_token(a) == shm._block_token(b)
    b[0] = 7
    assert shm._block_token(a) != shm._block_token(b)
    # dtype and shape are part of the identity, not just the bytes.
    assert shm._block_token(a) != shm._block_token(a.astype(np.int32))
    assert shm._block_token(a) != shm._block_token(a.reshape(2, 128))


def test_mirror_cache_stage_commit_abort():
    mirror = shm.MirrorCache(cap_bytes=1 << 20)
    epoch = mirror.begin_message()
    mirror.stage(b"token-1", 2048)
    assert mirror.is_resident(b"token-1")  # visible within the message
    mirror.abort()
    assert not mirror.is_resident(b"token-1")  # abort discards staging
    assert mirror.begin_message() == epoch  # nothing committed, no bump
    mirror.stage(b"token-1", 2048)
    mirror.commit()
    assert mirror.is_resident(b"token-1")
    assert mirror.bytes == 2048


def test_mirror_cache_epoch_bumps_on_invalidate_and_overflow():
    mirror = shm.MirrorCache(cap_bytes=4096)
    first = mirror.begin_message()
    mirror.stage(b"t1", 5000)
    mirror.commit()
    assert mirror.is_resident(b"t1")
    # Over the cap: the next message starts a new epoch with nothing
    # resident (wholesale reset, not piecemeal eviction).
    second = mirror.begin_message()
    assert second == first + 1
    assert not mirror.is_resident(b"t1")
    mirror.invalidate()
    assert mirror.begin_message() == second + 1


def test_block_cache_hands_out_copies_and_clears_on_epoch():
    cache = shm.BlockCache()
    cache.sync_epoch(1)
    original = np.arange(64, dtype=np.int64)
    cache.store(b"tok", original)
    handed = cache.array(b"tok")
    handed[0] = 999
    assert cache.array(b"tok")[0] == 0  # the cached block is untouched
    cache.sync_epoch(2)  # epoch change drops everything
    with pytest.raises(KeyError):
        cache.array(b"tok")


def test_encode_decode_resident_roundtrip():
    mirror = shm.MirrorCache(cap_bytes=1 << 20)
    cache = shm.BlockCache()
    payload = ([np.arange(512, dtype=np.int64)], "common")

    epoch = mirror.begin_message()
    first = shm.encode_payload(payload, mirror=mirror)
    mirror.commit()
    assert first.resident == 0
    cache.sync_epoch(epoch)
    decoded, segment = shm.decode_for_read(first, cache)
    # Views into the segment are only valid until finish_read.
    assert np.array_equal(decoded[0][0], payload[0][0])
    assert decoded[1] == "common"
    shm.finish_read(segment)

    # Same bytes again: the block travels as a token, not a segment.
    epoch = mirror.begin_message()
    second = shm.encode_payload(payload, mirror=mirror)
    mirror.commit()
    assert second.resident == 1
    assert second.resident_bytes == payload[0][0].nbytes
    cache.sync_epoch(epoch)
    decoded, segment = shm.decode_for_read(second, cache)
    assert np.array_equal(decoded[0][0], payload[0][0])
    shm.finish_read(segment)


def test_small_blocks_are_never_cached():
    mirror = shm.MirrorCache(cap_bytes=1 << 20)
    tiny = ([np.arange(8, dtype=np.int64)], None)  # 64 bytes < any floor
    for _ in range(2):
        mirror.begin_message()
        encoded = shm.encode_payload(tiny, mirror=mirror)
        mirror.commit()
        assert encoded.resident == 0
        shm.release_payload(encoded)


# ----------------------------------------------------------- pool protocol


def test_pool_resident_hits_on_repeat(pool):
    first_results, first = pool.run("resident.total", _chunks(), None, False)
    again_results, again = pool.run("resident.total", _chunks(), None, False)
    assert first_results == again_results
    # First dispatch ships the bytes...
    assert first.resident_hits == 0
    assert first.resident_misses == 2
    assert first.snapshot_dispatches == 2
    assert first.shm_bytes_out == 2 * 1000 * 8
    # ...the repeat ships one 16-byte token per cached array instead.
    assert again.resident_hits == 2
    assert again.snapshot_dispatches == 0
    assert again.shm_bytes_out == 0
    assert again.resident_bytes_saved == 2 * 1000 * 8
    assert again.pickle_bytes_out < 1024


def test_invalidate_resident_forces_full_reship(pool):
    warm_results, _ = pool.run("resident.total", _chunks(), None, False)
    pool.invalidate_resident()
    cold_results, cold = pool.run("resident.total", _chunks(), None, False)
    assert cold_results == warm_results
    assert cold.resident_hits == 0
    assert cold.snapshot_dispatches == 2
    # The cache works again after the bump.
    _, rewarmed = pool.run("resident.total", _chunks(), None, False)
    assert rewarmed.resident_hits == 2


def test_mutating_task_is_safe_on_cache_hits(pool):
    pool.invalidate_resident()
    first_results, first = pool.run("resident.mutate", _chunks(), None, False)
    again_results, again = pool.run("resident.mutate", _chunks(), None, False)
    # The second run hit the cache, yet saw pristine inputs: the worker
    # hands out copies, so in-place mutation cannot poison the cache.
    assert again.resident_hits == 2
    assert first_results == again_results


def test_pickle_transport_never_uses_residency(pool):
    # A payload with no array bytes to lift rides the frame whole: there
    # is no block to content-address, however often it repeats.
    chunks = [(0, [3, 4]), (1, [5])]
    results, first = pool.run("resident.scale", chunks, 2, False)
    _, again = pool.run("resident.scale", chunks, 2, False)
    assert results == [[6, 8], [10]]
    for dispatch in (first, again):
        assert dispatch.resident_hits == dispatch.resident_misses == 0
        assert dispatch.shm_bytes_out == 0
        assert dispatch.pickle_bytes_out > 0


# --------------------------------------------------------- batched rounds


def test_cluster_map_servers_batch_matches_sequential():
    calls = [
        ("resident.scale", [1, 2, 3, 4], 2),
        ("resident.scale", [5, 6, 7, 8], 3),
        ("resident.scale", [], 9),  # empty call keeps its slot
    ]
    with use_backend("inline"):
        inline = Cluster(4, seed=0).map_servers_batch(calls)
    with use_backend("process", workers=2):
        cluster = Cluster(4, seed=0)
        before = cluster.stats.exec.snapshot()
        batched = cluster.map_servers_batch(calls)
        delta = cluster.stats.exec.delta(before)
    assert batched == inline == [[2, 4, 6, 8], [15, 18, 21, 24], []]
    assert delta.dispatches == 2  # two live calls...
    assert delta.queue_messages == 2  # ...but one message per worker
    assert delta.items == 8


def test_batch_falls_back_inline_on_unpicklable():
    backend = ProcessBackend(2)
    stats = backend.new_stats()
    out = backend.map_payload_batch(
        [
            ("resident.scale", [1, 2], 10),
            ("resident.call", [lambda c: c + 1], 4),  # unpicklable payload
        ],
        stats=stats,
    )
    assert out == [[10, 20], [5]]
    assert stats.fallbacks == 2  # the whole batch degraded, counted per call


# ----------------------------------------------------- per-query accounting


def test_per_query_accounting_two_queries_one_pool():
    backend = ProcessBackend(2)
    stats = backend.new_stats()  # one long-lived stats object, like a service
    payload = [np.arange(1000, dtype=np.int64) + k for k in range(4)]
    backend.map_payloads("resident.total", payload, None, stats=stats)
    first_query = stats.snapshot()
    backend.map_payloads("resident.total", payload, None, stats=stats)
    second_query = stats.delta(first_query)
    # Each query's report covers exactly its own dispatches: the second
    # delta shows one dispatch with resident hits (same blocks again),
    # while the snapshot of the first shows the cold shipment.
    assert first_query.dispatches == 1
    assert second_query.dispatches == 1
    assert second_query.items == 4
    assert first_query.resident_hits == 0
    assert second_query.resident_hits == 4
    assert stats.dispatches == 2  # the running total is untouched
