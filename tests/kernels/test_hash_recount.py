"""``MemoStats.hash_ops`` agrees with a recount of the bucket kernels' rows.

``hash_ops`` is rows x dimensions a bucket kernel actually hashed, and a
route or grid dimension with one possible destination hashes nothing.
The recount wraps ``bucket_value_column`` and ``bucket_tuple_columns`` in
every ``repro`` module that holds them, so a row hashed anywhere shows up
whether or not its route counted it.
"""

import sys
from functools import cache
from operator import attrgetter, itemgetter

import numpy as np
import pytest

from repro.data.generators import uniform_relation
from repro.data.relation import Relation
from repro.exec import use_backend
from repro.joins.cartesian import cartesian_product
from repro.joins.hash_join import parallel_hash_join
from repro.kernels import hashing
from repro.kernels.memo import clear_memo
from repro.matmul.sql import sql_matmul
from repro.mpc.hashing import HashFunction
from repro.multiway.hypercube import hypercube_join
from repro.query.cq import triangle_query
from repro.testing.differential import ALGORITHMS, generate_instances

_ROWS = {"bucket_value_column": len, "bucket_tuple_columns": lambda columns: len(columns[0])}


@pytest.fixture
def calls(monkeypatch):
    """``(rows, buckets)`` of every bucket-kernel call, wherever it is made."""
    seen = []
    for name, rows in _ROWS.items():
        kernel = getattr(hashing, name)

        def counted(columns, salt, buckets, kernel=kernel, rows=rows):
            seen.append((rows(columns), buckets))
            return kernel(columns, salt, buckets)

        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "repro" and vars(module).get(name) is kernel:
                monkeypatch.setattr(module, name, counted)
    return seen


def recounted(calls, run, stats_of=attrgetter("stats")):
    """Run ``run()`` cold on the inline backend, check the ``hash_ops`` of
    its ``stats_of(result)`` against the recount and return its result."""
    clear_memo()
    calls.clear()
    with use_backend("inline"):
        result = run()
    assert [buckets for _, buckets in calls if buckets < 2] == []
    assert stats_of(result).memo.hash_ops == sum(rows for rows, _ in calls)
    return result


@cache
def _instances():
    return generate_instances(60, seed=3)


@pytest.mark.parametrize("case", ALGORITHMS, ids=lambda case: case.name)
def test_every_entry_point_counts_the_rows_it_hashes(calls, case):
    runs = [instance for instance in _instances() if case.applies(instance)]
    assert runs
    for instance in runs:
        recounted(calls, lambda: case.run(instance, 7))


def test_one_server_hashes_nothing(calls):
    a = np.arange(1, 13, dtype=float).reshape(3, 4)
    assert recounted(calls, lambda: sql_matmul(a, a.T, p=1), itemgetter(1))[1].memo.hash_ops == 0
    r = uniform_relation("R", ["x"], 30, 9, seed=1)
    s = uniform_relation("S", ["y"], 20, 9, seed=2)
    assert recounted(calls, lambda: cartesian_product(r, s, p=1)).stats.memo.hash_ops == 0


def test_a_share_of_one_hashes_nothing(calls):
    relations = {name: uniform_relation(name, attributes, n, 50, seed=seed)
                 for name, attributes, n, seed in (("R", ["x", "y"], 6000, 1),
                                                   ("S", ["y", "z"], 2000, 2),
                                                   ("T", ["z", "x"], 900, 3))}
    run = recounted(calls, lambda: hypercube_join(triangle_query(), relations, p=8))
    assert run.details["shares"] == {"x": 2, "y": 4, "z": 1}
    # R hashes x and y, S only y, T only x: z's dimension has one bucket.
    assert run.stats.memo.hash_ops == 2 * 6000 + 2000 + 900


def test_an_object_key_is_hashed_per_distinct_value_and_counted_per_row(calls, monkeypatch):
    r = Relation("R", ["x", "y"], [(f"k{i % 7}", i) for i in range(60)])
    s = Relation("S", ["x", "z"], [(f"k{i % 5}", -i) for i in range(40)])
    scalar = []
    real_call = HashFunction.__call__
    monkeypatch.setattr(HashFunction, "__call__",
                        lambda h, value: scalar.append(value) or real_call(h, value))
    run = recounted(calls, lambda: parallel_hash_join(r, s, p=8))
    assert run.stats.memo.hash_ops == len(r) + len(s)
    # The key is the tuple of the one join column, once per distinct value.
    assert sorted(scalar) == sorted([(f"k{i}",) for i in range(7)] + [(f"k{i}",) for i in range(5)])
