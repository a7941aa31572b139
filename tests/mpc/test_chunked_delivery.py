"""Zero-copy chunked delivery must be observationally invisible.

A round whose sends carried several column blocks per destination
delivers the blocks as-is (a :class:`ChunkedColumns` fragment) instead
of concatenating them; the concat is deferred to the first whole-column
consumer. These tests prove the deferral changes nothing an observer can
see: delivered rows, materialized columns, ``load_of()`` per round, and
the conservation audit are byte-identical to the eager reference — the
same rows sent as one pre-concatenated block per destination.
"""

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.mpc.audit import audited
from repro.mpc.cluster import Cluster
from repro.mpc.server import ChunkedColumns
from tests.holdings import fragment_of, scalar_rung


_BATCHES = {
    0: [[(1, 0), (3, 0), (5, 0)], [(7, 1), (9, 1)]],
    1: [[(2, 0), (4, 0)], [(6, 1)]],
}


def _multi_chunk_round(chunked: bool, audit: bool = False):
    """Deliver ``_BATCHES`` in one round and return the cluster.

    ``chunked=True`` routes two batches per destination, so every
    fragment is multi-block; ``chunked=False`` is the eager reference:
    one batch per destination carrying the already-concatenated columns.
    """
    cluster = Cluster(2, audit=audit)
    with cluster.round("route") as rnd:
        for dest, batches in _BATCHES.items():
            if not chunked:
                batches = [[row for batch in batches for row in batch]]
            for rows in batches:
                rnd.send_columns(dest, "out", [np.array(c, dtype=np.int64) for c in zip(*rows)])
    return cluster


class TestChunkedEqualsEager:
    def test_rows_columns_and_load_identical(self):
        lazy = _multi_chunk_round(chunked=True)
        eager = _multi_chunk_round(chunked=False)
        assert lazy.stats.load_of("route") == eager.stats.load_of("route")
        for lazy_server, eager_server in zip(lazy.servers, eager.servers):
            lazy_part, eager_part = lazy_server.take("out"), eager_server.take("out")
            assert list(lazy_part) == list(eager_part) == [
                row for batch in _BATCHES[lazy_server.sid] for row in batch
            ]
            assert len(lazy_part) == len(eager_part)
            for a, b in zip(lazy_part.arrays(), eager_part.arrays()):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_lazy_path_actually_defers_the_concat(self):
        # Server 0 received two blocks; the fragment must still hold both
        # until a consumer asks for whole columns.
        lazy = _multi_chunk_round(chunked=True)
        held = lazy.servers[0].get("out")
        assert isinstance(held, ChunkedColumns)
        assert [len(blocks) for blocks in held.chunks] == [2, 2]
        eager = _multi_chunk_round(chunked=False)
        assert [len(blocks) for blocks in eager.servers[0].get("out").chunks] == [1, 1]

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
        # multi-block fragments on the kernel path and row lists on the
        # scalar rung. Output, per-round loads, and the audit must be
        # identical, cold and warm.
        from repro.joins.hash_join import parallel_hash_join

        r = Relation("R", ["x", "y"], [(i % 11, i) for i in range(300)])
        s = Relation("S", ["x", "z"], [(i % 11, -i) for i in range(300)])
        with scalar_rung(), audited():
            eager = parallel_hash_join(r, s, p=4, seed=0)
        for _ in ("cold", "warm"):
            with audited():
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
        # Growing a chunked fragment from outside cannot leave stale
        # columns behind: what grows is the one store, block by block,
        # and that is what is held.
        cluster = _multi_chunk_round(chunked=True)
        server = cluster.servers[0]
        server.append("out", fragment_of([(99, 99)], 2))
        rows = server.take("out")
        assert isinstance(rows, ChunkedColumns)
        assert list(rows) == [row for batch in _BATCHES[0] for row in batch] + [(99, 99)]
