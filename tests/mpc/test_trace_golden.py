"""Golden-output tests for :mod:`repro.mpc.trace`.

The trace renderer is a debugging surface: its exact layout (column
widths, block characters, the ``!`` undelivered flag, the TOTAL row) is
part of the contract. These tests pin the rendered text verbatim so an
accidental formatting change shows up as a readable diff.
"""

from __future__ import annotations

from repro.mpc.cluster import Cluster
from repro.mpc.stats import RoundStats, RunStats
from repro.mpc.trace import busiest_server, load_histogram, round_table, trace


def _stats() -> RunStats:
    stats = RunStats(4)
    stats.rounds = [
        RoundStats("shuffle", [10, 6, 0, 4]),
        RoundStats(
            "a-very-long-label-that-overflows-the-column",
            [3, 3, 3, 3],
            delivered=False,
        ),
        RoundStats("broadcast", [5, 5, 5, 5]),
    ]
    return stats


GOLDEN_TABLE = "\n".join([
    "round                           L      total  imbalance",
    "shuffle                        10         20       2.00",
    "a-very-long-label-tha… !        3         12       1.00",
    "broadcast                       5         20       1.00",
    "TOTAL                          10         40        r=2",
])

GOLDEN_HISTOGRAM = "\n".join([
    "server loads [shuffle]",
    "  s00 ████████████████████████ 10",
    "  s01 ██████████████           6",
    "  s02                          0",
    "  s03 █████████▌               4",
])


def test_round_table_golden():
    assert round_table(_stats()) == GOLDEN_TABLE


def test_round_table_flags_undelivered_and_truncates():
    table = round_table(_stats())
    # The ! flag survives truncation of an over-long label ...
    assert "a-very-long-label-tha… !" in table
    # ... and the undelivered round is excluded from the TOTAL row.
    assert "r=2" in table


def test_load_histogram_golden():
    assert load_histogram(_stats().rounds[0]) == GOLDEN_HISTOGRAM


def test_load_histogram_half_block():
    golden = "\n".join([
        "server loads [half]",
        "  s00 ████████████████████████ 16",
        "  s01 █████████████▌           9",
    ])
    assert load_histogram(RoundStats("half", [16, 9])) == golden


def test_load_histogram_minimum_tick():
    golden = "\n".join([
        "server loads [tick]",
        "  s00 ████████████████████████ 100",
        "  s01 ▏                        1",
    ])
    assert load_histogram(RoundStats("tick", [100, 1])) == golden


def test_trace_combines_table_and_histograms():
    text = trace(_stats(), histograms=True)
    assert text.startswith(GOLDEN_TABLE)
    # Delivered rounds get a histogram; the undelivered one is skipped.
    assert text.count("server loads [") == 2
    assert "server loads [a-very-long-label" not in text


def test_trace_appends_audit_summary():
    # Pinned inline: a process-backend trace appends its exec line last.
    cluster = Cluster(2, audit=True, backend="inline")
    with cluster.round("r1") as rt:
        rt.send(0, "frag", ("t",))
        rt.send(1, "frag", ("u",))
    text = trace(cluster.stats)
    assert cluster.stats.audit is not None
    assert text.rstrip().endswith(cluster.stats.audit.summary())


def test_busiest_server_ignores_undelivered():
    sid, total = busiest_server(_stats())
    assert (sid, total) == (0, 15)


def test_busiest_server_empty_run():
    assert busiest_server(RunStats(3)) == (0, 0)
