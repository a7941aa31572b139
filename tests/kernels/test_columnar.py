"""The columnar cache and the shuffle's columnar fragments.

Covers the coherence rules that keep the column arrays honest: the
``Relation.columns()`` cache invalidates on mutation, and a fragment is
delivered as column blocks only while nothing but blocks reached it.
"""

import numpy as np

from repro.data.relation import Relation
from repro.mpc.cluster import Cluster
from repro.mpc.server import ChunkedColumns, Server, held


class TestRelationColumns:
    def test_columns_roundtrip(self):
        rel = Relation("R", ["x", "y"], [(1, 10), (2, 20), (3, 30)])
        cols = rel.columns()
        assert [c.tolist() for c in cols] == [[1, 2, 3], [10, 20, 30]]

    def test_cache_reused_until_mutation(self):
        rel = Relation("R", ["x"], [(1,), (2,)])
        first = rel.columns()
        assert rel.columns() is first
        rel.add((3,))
        second = rel.columns()
        assert second is not first
        assert second[0].tolist() == [1, 2, 3]

    def test_mixed_types_cache_none(self):
        rel = Relation("R", ["x"], [("a",)])
        assert rel.columns() is None
        assert rel.columns() is None  # the miss is cached too


# Dropped with the API they pinned (a fragment is column blocks *or* rows,
# so there is no side-car beside a row list left to validate):
# - TestRelationColumns::test_cached_key_columns_never_extracts —
#   ``Relation._cached_key_columns`` fed ``join_rows_columnar(left_cols=,
#   right_cols=)``; both are gone, the kernel extracts its key columns.
# - TestServerSideCar::test_take_with_columns_subsets_and_validates and
#   ::test_take_with_columns_missing_key — side-car position subsets: a
#   columnar fragment holds every column, ``take`` hands it over whole.
# - TestServerSideCar::test_stale_side_car_dropped_on_length_mismatch —
#   stale-length rejection: nothing rides beside the rows to go stale.
class TestServerSideCar:
    def test_put_and_take_invalidate_cache(self):
        # What is stored is the fragment itself: put replaces it whatever
        # its form, take hands it over as held and leaves nothing behind.
        server = Server(0)
        server.append_result("f", (np.array([1]),))
        assert isinstance(server.get("f"), ChunkedColumns)
        server.put("f", [(2,)])
        assert server.take("f") == [(2,)]
        assert server.take("f") == [] and server.storage == {}


class TestDeliveredSideCar:
    def test_kernel_shuffle_delivers_columns(self):
        cluster = Cluster(4, seed=0)
        rel = Relation("R", ["x", "y"], [(i, i * 10) for i in range(40)])
        frag = cluster.scatter(rel, "R@in")
        h = cluster.hash_function(0)
        from repro.kernels.partition import try_route

        with cluster.round("shuffle") as rnd:
            for server in cluster.servers:
                part = server.take(frag)
                assert isinstance(part, ChunkedColumns)
                try_route(rnd, held(part), (0,), h, "R@j")
        delivered = 0
        for server in cluster.servers:
            part = server.take("R@j")
            assert isinstance(part, ChunkedColumns)
            x, y = part.arrays()
            assert (y == x * 10).all() and all(h((v,)) == server.sid for v in x.tolist())
            assert list(part) == list(zip(x.tolist(), y.tolist()))
            delivered += len(part)
        assert delivered == 40

    def test_partial_coverage_blocks_install(self):
        # One scalar send into a buffer of blocks turns that one buffer
        # into rows, the blocks decoded in arrival order.
        cluster = Cluster(2, seed=0)
        from repro.kernels.partition import try_route

        h = cluster.hash_function(0)
        columns = [np.arange(10), np.arange(10)]
        with cluster.round("shuffle") as rnd:
            try_route(rnd, columns, (0,), h, "f")
            rnd.send(0, "f", (99, 99))
        first, second = (server.take("f") for server in cluster.servers)
        assert isinstance(first, list) and first[-1] == (99, 99)
        assert first[:-1] == [(i, i) for i in range(10) if h((i,)) == 0]
        assert isinstance(second, ChunkedColumns)

    def test_preexisting_rows_block_install(self):
        cluster = Cluster(2, seed=0)
        from repro.kernels.partition import try_route

        h = cluster.hash_function(0)
        for server in cluster.servers:
            server.fragment("f").append((-1, -1))
        with cluster.round("shuffle") as rnd:
            try_route(rnd, [np.arange(10), np.arange(10)], (0,), h, "f")
        for server in cluster.servers:
            rows = server.take("f")
            assert isinstance(rows, list) and rows[0] == (-1, -1)
            assert rows[1:] == [(i, i) for i in range(10) if h((i,)) == server.sid]
