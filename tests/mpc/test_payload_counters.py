"""A string key is in the ledger as an int key is: its relation is
columns, so its routing plan is built, counted and replayed like any
other (``partition`` hits and misses in ``MemoStats``)."""

import numpy as np

from repro.data.relation import Relation
from repro.joins.hash_join import parallel_hash_join
from repro.kernels.memo import clear_memo
from repro.mpc.trace import trace


def _ints(n=60):
    k = np.arange(n)
    return (Relation.from_columns("R", ["x", "y"], [k, k % 9]),
            Relation.from_columns("S", ["y", "z"], [k % 9, -k]))


def _strings(n=60):
    return (Relation("R", ["x", "y"], [(i, f"k{i % 9}") for i in range(n)]),
            Relation("S", ["y", "z"], [(f"k{i % 9}", -i) for i in range(n)]))


def test_a_string_key_shows_up_in_the_ledger_not_only_in_the_latency():
    for make in (_ints, _strings):
        clear_memo()
        r, s = make()
        cold = parallel_hash_join(r, s, 4).stats
        warm = parallel_hash_join(r, s, 4).stats
        assert (cold.memo.partition_hits, cold.memo.partition_misses) == (0, 2)
        assert cold.memo.hash_ops == len(r) + len(s)
        assert (warm.memo.partition_hits, warm.memo.partition_misses) == (2, 0)
        assert warm.memo.hash_ops == 0 and warm.memo.hash_ops_saved == len(r) + len(s)
        assert "partition 2h/0m" in warm.memo.summary()
        assert "partition 2h/0m" in trace(warm)
    clear_memo()
