"""Dispatch without residency: repeats, batching, accounting.

Workers keep nothing between dispatches, so a repeated segment-sized
block ships its bytes again every time. These tests pin that repeats
are cold starts (same bytes out, mutation safety), the batched round
dispatch, and the per-query ExecStats accounting primitives.
"""

import numpy as np
import pytest

from repro.exec import shm, tasks
from repro.exec.base import ProcessBackend
from repro.exec.config import use_backend
from repro.exec.pool import WorkerPool, shutdown_pools
from repro.mpc.cluster import Cluster
from repro.mpc.server import ChunkedColumns
from tests.holdings import per_server


def _total_chunk(payloads, common):
    return [int(np.asarray(block).sum()) for block in payloads]


def _mutate_chunk(payloads, common):
    # Mutates its inputs in place: anything a worker kept between
    # dispatches and handed out again would change the next answer.
    out = []
    for block in payloads:
        block += 1
        out.append(int(block.sum()))
    return out


def _scale_chunk(payloads, common):
    return [x * common for x in payloads]


def _call_chunk(payloads, common):
    return [fn(common) for fn in payloads]


def _server_totals_chunk(chunks, common):
    # A local step's task: per chunk of servers, each one's total, one row each.
    out = []
    for [(columns, bounds)] in chunks:
        totals = [int(columns[0][a:b].sum()) for a, b in zip(bounds[:-1], bounds[1:])]
        out.append(([np.array(totals, dtype=np.int64)], np.arange(len(totals) + 1)))
    return out


tasks.register("resident.total", _total_chunk)
tasks.register("resident.server_totals", _server_totals_chunk)
tasks.register("resident.mutate", _mutate_chunk)
tasks.register("resident.scale", _scale_chunk)
tasks.register("resident.call", _call_chunk)


@pytest.fixture(autouse=True)
def low_floor(monkeypatch):
    # This file's 8 KB blocks must reach the floor to ride segments.
    # Outbound placement is the coordinator's decision, so lowering its
    # constant is enough whenever the pool forked.
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


def test_small_blocks_are_never_cached():
    tiny = ([np.arange(8, dtype=np.int64)], None)  # 64 bytes < any floor
    for _ in range(2):
        encoded = shm.encode_payload(tiny)
        assert encoded.slots == [] and encoded.segment_name is None
        assert shm.decode_owned(encoded)[0][0].tolist() == list(range(8))


# ----------------------------------------------------------- pool protocol


def test_mutating_task_is_safe_on_cache_hits(pool):
    first_results, first = pool.run("resident.mutate", _chunks(), None)
    again_results, again = pool.run("resident.mutate", _chunks(), None)
    # The repeat ships every byte again and sees pristine inputs: there
    # is no cache for an in-place mutation to poison.
    assert first.shm_bytes_out == again.shm_bytes_out == 2 * 1000 * 8
    assert first_results == again_results


def test_pickle_transport_never_uses_residency(pool):
    # A payload with no array bytes to lift rides the frame whole,
    # however often it repeats.
    chunks = [(0, [3, 4]), (1, [5])]
    results, first = pool.run("resident.scale", chunks, 2)
    _, again = pool.run("resident.scale", chunks, 2)
    assert results == [[6, 8], [10]]
    for dispatch in (first, again):
        assert dispatch.shm_bytes_out == 0
        assert dispatch.pickle_bytes_out > 0


# --------------------------------------------------------- batched rounds


def test_cluster_map_servers_batch_matches_sequential():
    # Local steps on disjoint server groups ride one backend dispatch
    # (Cluster.compute_pools); an empty group keeps its slot.
    def run():
        cluster = Cluster(4, seed=0)
        for server in cluster.servers:
            server.put("X", ChunkedColumns([[np.arange(server.sid, server.sid + 3)]]))
        before = cluster.stats.exec.snapshot()
        tables = cluster.compute_pools([
            (cluster.servers[:2], "resident.server_totals", [("X", 1)], None),
            (cluster.servers[2:], "resident.server_totals", [("X", 1)], None),
            ([], "resident.server_totals", [("X", 1)], None),
        ])
        assert all(not server.storage for server in cluster.servers)  # taken
        totals = [[int(column[0]) for (column,) in per_server(table)] for table in tables]
        return totals, cluster.stats.exec.delta(before)

    with use_backend("inline"):
        inline, _ = run()
    with use_backend("process", workers=2):
        batched, delta = run()
    assert batched == inline == [[3, 6], [9, 12], []]
    assert delta.dispatches == 2  # two live steps...
    assert delta.queue_messages == 2  # ...but one message per worker
    assert delta.items == 4  # a chunk of one server per worker and step


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
    # Each query's report covers exactly its own dispatches: the same
    # blocks again ship the same bytes again.
    assert first_query.dispatches == 1
    assert second_query.dispatches == 1
    assert second_query.items == 4
    assert first_query.shm_bytes_out == second_query.shm_bytes_out == 4 * 1000 * 8
    assert stats.dispatches == 2  # the running total is untouched
