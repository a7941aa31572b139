"""Zero-copy chunked delivery must be observationally invisible.

A round whose batched sends carried several column side-car blocks per
destination delivers the blocks as-is (``Server.put_column_chunks``)
instead of concatenating them; the concat is deferred to the first
whole-column consumer. These tests prove the deferral changes nothing an
observer can see: delivered rows, materialized columns, ``load_of()``
per round, and the conservation audit are byte-identical to the eager
reference — the same rows sent as one pre-concatenated batch per
destination, which installs whole columns at delivery.
"""

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.kernels.config import use_kernels
from repro.mpc.audit import audited
from repro.mpc.cluster import Cluster
from repro.mpc.server import ChunkedColumns


_BATCHES = {
    0: [[(1, 0), (3, 0), (5, 0)], [(7, 1), (9, 1)]],
    1: [[(2, 0), (4, 0)], [(6, 1)]],
}


def _multi_chunk_round(chunked: bool, audit: bool = False):
    """Deliver ``_BATCHES`` in one round and return the cluster.

    ``chunked=True`` routes two batches per destination, so every
    side-car is multi-block; ``chunked=False`` is the eager reference:
    one batch per destination carrying the already-concatenated column.
    """
    cluster = Cluster(2, audit=audit)
    with cluster.round("route") as rnd:
        for dest, batches in _BATCHES.items():
            if not chunked:
                batches = [[row for batch in batches for row in batch]]
            for rows in batches:
                column = np.array([row[0] for row in rows], dtype=np.int64)
                rnd.send_rows(dest, "out", rows, (0,), [column])
    return cluster


class TestChunkedEqualsEager:
    def test_rows_columns_and_load_identical(self):
        lazy = _multi_chunk_round(chunked=True)
        eager = _multi_chunk_round(chunked=False)
        assert lazy.stats.load_of("route") == eager.stats.load_of("route")
        for lazy_server, eager_server in zip(lazy.servers, eager.servers):
            lazy_rows, lazy_cols = lazy_server.take_with_columns("out", (0,))
            eager_rows, eager_cols = eager_server.take_with_columns("out", (0,))
            assert lazy_rows == eager_rows
            assert lazy_cols is not None and eager_cols is not None
            for a, b in zip(lazy_cols, eager_cols):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_lazy_path_actually_defers_the_concat(self):
        # Server 0 received two blocks; the side-car must still be
        # chunked until a consumer asks for whole columns.
        lazy = _multi_chunk_round(chunked=True)
        cached = lazy.servers[0].column_cache["out"]
        assert isinstance(cached[1], ChunkedColumns)
        eager = _multi_chunk_round(chunked=False)
        cached = eager.servers[0].column_cache["out"]
        assert not isinstance(cached[1], ChunkedColumns)

    def test_round_stats_identical(self):
        lazy = _multi_chunk_round(chunked=True)
        eager = _multi_chunk_round(chunked=False)
        assert [
            (r.label, r.received, r.delivered) for r in lazy.stats.rounds
        ] == [
            (r.label, r.received, r.delivered) for r in eager.stats.rounds
        ]


class TestChunkedUnderAudit:
    def test_audit_passes_and_matches_eager(self):
        lazy = _multi_chunk_round(chunked=True, audit=True)
        eager = _multi_chunk_round(chunked=False, audit=True)
        for cluster in (lazy, eager):
            report = cluster.stats.audit
            assert report is not None and report.ok
            assert report.rounds_audited == 1
        assert lazy.stats.audit.checks_run == eager.stats.audit.checks_run

    def test_join_end_to_end_audited(self):
        # A real multi-send workload: the shuffle of a hash join delivers
        # multi-block side-cars on the kernel path and none at all on the
        # tuple path. Output, per-round loads, and the audit must be
        # identical, cold and warm.
        from repro.joins.hash_join import parallel_hash_join

        r = Relation("R", ["x", "y"], [(i % 11, i) for i in range(300)])
        s = Relation("S", ["x", "z"], [(i % 11, -i) for i in range(300)])
        with use_kernels(False), audited():
            eager = parallel_hash_join(r, s, p=4, seed=0)
        for _ in ("cold", "warm"):
            with use_kernels(True), audited():
                lazy = parallel_hash_join(r, s, p=4, seed=0)
            assert lazy.output.rows_readonly() == eager.output.rows_readonly()
            assert [
                (rd.label, rd.received) for rd in lazy.stats.rounds
            ] == [
                (rd.label, rd.received) for rd in eager.stats.rounds
            ]
            assert lazy.stats.audit is not None and lazy.stats.audit.ok
        assert eager.stats.audit is not None and eager.stats.audit.ok


class TestChunkedColumnsUnit:
    def test_length_without_concat(self):
        blocks = [[np.array([1, 2]), np.array([3])]]
        cc = ChunkedColumns(blocks)
        assert cc.length == 3
        assert np.array_equal(cc.arrays()[0], np.array([1, 2, 3]))

    def test_empty(self):
        assert ChunkedColumns([]).length == 0

    def test_stale_chunked_sidecar_rejected(self):
        # take_with_columns must refuse a chunked side-car whose length no
        # longer matches the (externally grown) row list.
        cluster = _multi_chunk_round(chunked=True)
        server = cluster.servers[0]
        server.fragment("out").append((99, 99))
        rows, cols = server.take_with_columns("out", (0,))
        assert rows[-1] == (99, 99)
        assert cols is None
