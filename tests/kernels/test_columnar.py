"""The columnar cache and the shuffle column side-car.

Covers the coherence rules that keep the column arrays honest: the
``Relation.columns()`` cache invalidates on mutation, and a ``Server``'s
delivered side-car is installed only when it provably covers the
fragment (popped on any other mutation).
"""

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.kernels.config import use_kernels
from repro.mpc.cluster import Cluster
from repro.mpc.server import Server


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

    def test_cached_key_columns_never_extracts(self):
        rel = Relation("R", ["x", "y"], [(1, 2), (3, 4)])
        assert rel._cached_key_columns((1,)) is None  # cold cache: no work
        rel.columns()
        cached = rel._cached_key_columns((1, 0))
        assert [c.tolist() for c in cached] == [[2, 4], [1, 3]]


class TestServerSideCar:
    def test_take_with_columns_subsets_and_validates(self):
        server = Server(0)
        server.fragment("f").extend([(1, 10), (2, 20)])
        server.put_columns("f", (0, 1), [np.array([1, 2]), np.array([10, 20])])
        rows, cols = server.take_with_columns("f", (1,))
        assert rows == [(1, 10), (2, 20)]
        assert cols[0].tolist() == [10, 20]
        # Consumed: fragment and cache are both gone.
        assert server.take("f") == []

    def test_take_with_columns_missing_key(self):
        server = Server(0)
        server.fragment("f").extend([(1, 10)])
        server.put_columns("f", (0,), [np.array([1])])
        rows, cols = server.take_with_columns("f", (1,))  # column 1 not stored
        assert rows == [(1, 10)]
        assert cols is None

    def test_stale_side_car_dropped_on_length_mismatch(self):
        server = Server(0)
        server.fragment("f").extend([(1, 10), (2, 20), (3, 30)])
        server.put_columns("f", (0,), [np.array([1, 2])])  # too short
        rows, cols = server.take_with_columns("f", (0,))
        assert len(rows) == 3
        assert cols is None

    def test_put_and_take_invalidate_cache(self):
        server = Server(0)
        server.fragment("f").extend([(1,)])
        server.put_columns("f", (0,), [np.array([1])])
        server.put("f", [(2,)])  # replaces rows: cache must not survive
        rows, cols = server.take_with_columns("f", (0,))
        assert rows == [(2,)] and cols is None


class TestDeliveredSideCar:
    @pytest.fixture(autouse=True)
    def _force_kernels(self):
        # try_route honors the use_kernels hook; these tests target the
        # kernel path itself, so pin it on regardless of ambient forcing.
        with use_kernels(True):
            yield

    def test_kernel_shuffle_delivers_columns(self):
        cluster = Cluster(4, seed=0)
        rel = Relation("R", ["x", "y"], [(i, i * 10) for i in range(40)])
        rel.columns()
        frag = cluster.scatter(rel, "R@in")
        h = cluster.hash_function(0)
        from repro.kernels.partition import try_route

        with cluster.round("shuffle") as rnd:
            for server in cluster.servers:
                rows, cols = server.take_with_columns(frag, (0,))
                assert try_route(rnd, rows, (0,), h, "R@j", columns=cols)
        for server in cluster.servers:
            rows, cols = server.take_with_columns("R@j", (0,))
            if rows:
                assert cols is not None
                assert cols[0].tolist() == [row[0] for row in rows]

    def test_partial_coverage_blocks_install(self):
        # One scalar send into the same fragment means the side-car no
        # longer covers every delivered row — it must not be installed.
        cluster = Cluster(2, seed=0)
        from repro.kernels.partition import try_route

        h = cluster.hash_function(0)
        rows = [(i, i) for i in range(10)]
        with cluster.round("shuffle") as rnd:
            assert try_route(rnd, rows, (0,), h, "f", columns=None)
            rnd.send(0, "f", (99, 99))
        target = cluster.servers[0]
        delivered, cols = target.take_with_columns("f", (0,))
        assert (99, 99) in delivered
        assert cols is None

    def test_preexisting_rows_block_install(self):
        cluster = Cluster(2, seed=0)
        from repro.kernels.partition import try_route

        h = cluster.hash_function(0)
        for server in cluster.servers:
            server.fragment("f").append((-1, -1))
        with cluster.round("shuffle") as rnd:
            assert try_route(rnd, [(i, i) for i in range(10)], (0,), h, "f",
                             columns=None)
        for server in cluster.servers:
            rows, cols = server.take_with_columns("f", (0,))
            assert rows[0] == (-1, -1)
            assert cols is None
