"""Count the cliff: which local-step payloads stayed columnar, which
travelled as rows (``MemoStats.fused_payloads`` / ``row_payloads``)."""

import numpy as np

from repro.data.relation import Relation
from repro.joins.hash_join import parallel_hash_join
from repro.mpc.stats import MemoStats
from repro.mpc.trace import trace
from tests.holdings import scalar_rung


def _ints(n=60):
    k = np.arange(n)
    return (Relation.from_columns("R", ["x", "y"], [k, k % 9]),
            Relation.from_columns("S", ["y", "z"], [k % 9, -k]))


def _strings(n=60):
    return (Relation("R", ["x", "y"], [(i, f"k{i % 9}") for i in range(n)]),
            Relation("S", ["y", "z"], [(f"k{i % 9}", -i) for i in range(n)]))


def test_a_string_key_shows_up_in_the_ledger_not_only_in_the_latency():
    ints = parallel_hash_join(*_ints(), 4).stats.memo
    assert (ints.fused_payloads, ints.row_payloads) == (4, 0)
    strings = parallel_hash_join(*_strings(), 4).stats
    fell_back = strings.memo.row_payloads       # one per server that got both sides
    assert strings.memo.fused_payloads == 0 and 0 < fell_back <= 4
    assert f" fused=0 rows={fell_back} " in strings.memo.summary()
    assert f"rows={fell_back}" in trace(strings)


def test_the_ledger_counts_payload_shapes_not_rungs():
    # The scalar rung is a test-scope substitution, not a mode the ledger
    # knows: its per-row sends deliver rows, counted as rows, and with no
    # plan to replay it touches no cache.
    with scalar_rung():
        memo = parallel_hash_join(*_ints(), 4).stats.memo
    assert (memo.fused_payloads, memo.row_payloads) == (0, 4)
    assert memo.partition_hits == memo.partition_misses == memo.hash_ops == 0


def test_row_payloads_is_an_additive_counter():
    a, b = MemoStats(fused_payloads=2, row_payloads=3), MemoStats(row_payloads=4)
    merged = MemoStats.merged([a, None, b])
    assert (merged.fused_payloads, merged.row_payloads) == (2, 7)
    assert merged.delta(a).row_payloads == 4
    assert "row_payloads" in MemoStats._COUNTERS
    assert MemoStats(row_payloads=1).any_activity
