"""Tests for the shared join plumbing (repro.joins.base)."""

import pytest

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.exec.config import use_backend
from repro.joins import (
    broadcast_join,
    cartesian_product,
    parallel_hash_join,
    skew_join,
    sort_join,
)
from repro.joins.base import JoinRun, join_schemas, local_join, require_join_key
from repro.mpc.cluster import Cluster
from repro.multiway.base import shuffle_join
from repro.mpc.stats import RoundStats, RunStats
from tests.holdings import fragment_of, observe


class TestJoinSchemas:
    def test_shared_and_output(self):
        r = Relation("R", ["x", "y"], [])
        s = Relation("S", ["y", "z"], [])
        shared, schema = join_schemas(r, s)
        assert shared == ("y",)
        assert schema.attributes == ("x", "y", "z")

    def test_multi_attribute(self):
        r = Relation("R", ["a", "b", "c"], [])
        s = Relation("S", ["b", "c", "d"], [])
        shared, schema = join_schemas(r, s)
        assert shared == ("b", "c")
        assert schema.attributes == ("a", "b", "c", "d")

    def test_require_key_raises_on_product(self):
        r = Relation("R", ["x"], [])
        s = Relation("S", ["z"], [])
        with pytest.raises(QueryError):
            require_join_key(r, s)


class TestJoinRun:
    def test_properties(self):
        stats = RunStats(2)
        stats.rounds.append(RoundStats("a", [7, 1]))
        stats.rounds.append(RoundStats("b", [0, 0]))
        run = JoinRun(Relation("OUT", ["x"], [(1,)]), stats)
        assert run.load == 7
        assert run.rounds == 1


class TestLocalJoin:
    def test_joins_fragments_and_consumes_them(self):
        cluster = Cluster(1)
        server = cluster.servers[0]
        server.put("L", fragment_of([(1, 2), (3, 4)], 2))
        server.put("R", fragment_of([(2, 9)], 2))
        left_schema = Relation("L", ["x", "y"], [])
        right_schema = Relation("R", ["y", "z"], [])
        joined = local_join(cluster, "L", "R", left_schema, right_schema, "J")
        assert joined.name == "J" and joined.attributes == ("x", "y", "z")
        assert joined.rows_readonly() == [(1, 2, 9)]
        assert list(server.get("L")) == []  # consumed
        assert list(server.get("R")) == []

    def test_appends_to_existing_output(self):
        # The step's output is the relation it returns, in server order; a
        # fragment already on the servers is left as it is.
        cluster = Cluster(2)
        for server, (left, right) in zip(cluster.servers, [((1, 2), (2, 9)), ((5, 6), (6, 7))]):
            server.put("out", fragment_of([(0, 0, 0)], 3))
            server.put("L", fragment_of([left, (8, 8)], 2))
            server.put("R", fragment_of([right], 2))
        joined = local_join(
            cluster, "L", "R",
            Relation("L", ["x", "y"], []), Relation("R", ["y", "z"], []), "OUT",
        )
        assert joined.rows_readonly() == [(1, 2, 9), (5, 6, 7)]
        assert all(list(server.get("out")) == [(0, 0, 0)] for server in cluster.servers)

    def test_every_join_dispatches_its_local_steps_through_the_backend(self):
        # The product, the broadcast join and the skew join's light pool and
        # packed heavy pool each join locally in one Cluster.compute call:
        # on 2 workers that is one dispatch per local step, and every
        # observable equals the inline run's.
        r = Relation("R", ["x", "y"], [(i % 6, i) for i in range(600)]
                     + [(100 + i, i) for i in range(60)])
        s = Relation("S", ["x", "z"], [(i % 6, i) for i in range(30)]
                     + [(100 + i % 30, i) for i in range(60)])
        small = Relation("T", ["y", "w"], [(i, 7 * i) for i in range(0, 600, 13)])
        a = Relation("A", ["a"], [(i,) for i in range(40)])
        b = Relation("B", ["b", "c"], [(i, -i) for i in range(30)])
        runs = {
            "cartesian": (lambda: cartesian_product(a, b, 8), 1),
            "broadcast": (lambda: broadcast_join(r, small, 8), 1),
            "skew": (lambda: skew_join(r, s, 8), 2),  # light pool + packed pool
        }
        for name, (run, steps) in runs.items():
            seen = []
            for backend in ("inline", "process"):
                with use_backend(backend, workers=2):
                    result = run()
                seen.append((observe(result.output, result.stats),
                             result.load, result.rounds))
                assert result.stats.exec.dispatches == steps, (name, backend)
            assert seen[0] == seen[1], name
            assert len(result.output), name


def _edges(heavy: bool) -> Relation:
    rows = [(i % 7, (3 * i + 1) % 7) for i in range(40)]
    if heavy:
        rows += [(100 + i, 0) for i in range(30)] + [(0, 200 + i) for i in range(30)]
    return Relation("E", ["x", "y"], rows)


def _output(run) -> Relation:
    return run.output if isinstance(run, JoinRun) else run[0]


_TWO_PATHS = {"x": "y", "y": "z"}
_PRODUCT = {"x": "a", "y": "b"}


class TestSameNameInputs:
    """``rename`` keeps the relation's name, so the natural way to write a
    self-join hands an algorithm two inputs called the same. Fragments
    named after the inputs collide and lose rows; role-named ones cannot.
    ``sort_join`` and ``shuffle_join`` never named fragments after their
    inputs and ride along as controls.
    """

    @pytest.mark.parametrize("heavy", [False, True], ids=["uniform", "one-heavy-key"])
    @pytest.mark.parametrize(
        "algorithm, mapping",
        [
            pytest.param(algorithm, mapping, id=algorithm.__name__)
            for algorithm, mapping in [
                (parallel_hash_join, _TWO_PATHS),
                (broadcast_join, _TWO_PATHS),
                (skew_join, _TWO_PATHS),
                (cartesian_product, _PRODUCT),
                (sort_join, _TWO_PATHS),
                (shuffle_join, _TWO_PATHS),
            ]
        ],
    )
    def test_self_join_equals_relation_join(self, algorithm, mapping, heavy):
        e = _edges(heavy)
        renamed = e.rename(mapping)
        assert renamed.name == e.name
        expected = e.join(renamed)
        assert len(expected) > 0
        assert _output(algorithm(e, renamed, 4)) == expected
