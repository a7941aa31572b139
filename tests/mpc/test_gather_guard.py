"""Regression: ``Cluster.gather()`` must return a fresh copy, never a
live server storage list.

``Server.get()`` hands out the live fragment (documented, for the hot
paths); ``gather()`` is the boundary where rows leave the simulator, so
its contract is the opposite — callers may mutate the result freely.
The dangerous configuration is a single server (p=1) or a fragment that
lives on one server only, where a naive implementation could hand out
storage itself. Mirrors the ``Relation.rows()`` footgun suite: the
fragments' block lists are swapped for a guard that raises on any
mutation, and the gathered result is then mutated every way a caller
plausibly would.
"""

import pytest

from repro.data.relation import Relation
from repro.mpc.cluster import Cluster
from repro.mpc.server import ChunkedColumns
from tests.holdings import fragment_of


class MutationError(AssertionError):
    pass


def _forbid(name):
    def method(self, *args, **kwargs):
        raise MutationError(f"server storage mutated via {name}()")

    method.__name__ = name
    return method


class GuardedList(list):
    """A list whose every mutating method raises :class:`MutationError`."""


for _name in (
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "__setitem__", "__delitem__", "__iadd__", "__imul__",
):
    setattr(GuardedList, _name, _forbid(_name))


def _guard_storage(cluster, fragment):
    """Replace every server's block lists for ``fragment`` with guards."""
    for server in cluster.servers:
        if fragment in server.storage:
            server.storage[fragment] = ChunkedColumns(
                [GuardedList(blocks) for blocks in server.storage[fragment].chunks]
            )


def _abuse(rows):
    """Every mutation a result consumer plausibly performs."""
    rows.sort()
    rows.reverse()
    rows.append(("sentinel",))
    rows.extend([("more",), ("rows",)])
    rows[0] = ("overwritten",)
    del rows[0]
    rows.clear()


@pytest.mark.parametrize("p", [1, 2, 5])
def test_gather_returns_mutable_copy(p):
    cluster = Cluster(p, seed=0)
    rows = [(i, i * i) for i in range(40)]
    cluster.scatter(Relation("R", ["a", "b"], rows), "R")
    _guard_storage(cluster, "R")

    gathered = cluster.gather("R")
    assert sorted(gathered) == sorted(rows)
    _abuse(gathered)  # raises MutationError if gather leaked live storage

    # The fragments themselves are untouched by all of the above.
    assert sorted(cluster.gather("R")) == sorted(rows)


def test_gather_single_owner_fragment():
    """All rows on one server — the classic alias-return configuration."""
    cluster = Cluster(4, seed=0)
    rows = [(i,) for i in range(25)]
    cluster.servers[2].put("only", fragment_of(rows, 1))
    _guard_storage(cluster, "only")

    gathered = cluster.gather("only")
    assert gathered == rows
    assert gathered is not cluster.servers[2].storage["only"]
    _abuse(gathered)
    assert cluster.gather("only") == rows


def test_gather_relation_rows_are_detached():
    cluster = Cluster(3, seed=1)
    rows = [(i, -i) for i in range(30)]
    cluster.scatter(Relation("R", ["a", "b"], rows), "R")
    _guard_storage(cluster, "R")

    rel = cluster.gather_relation("R", "R", ("a", "b"))
    _abuse(rel.rows())  # Relation adopts the gathered copy, not storage
    assert sorted(cluster.gather("R")) == sorted(rows)


def test_gather_empty_fragment_is_fresh():
    cluster = Cluster(2, seed=0)
    first = cluster.gather("missing")
    first.append(("junk",))
    assert cluster.gather("missing") == []
