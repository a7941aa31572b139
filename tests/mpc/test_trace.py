"""Tests for the execution trace rendering."""

from repro.mpc.cluster import Cluster
from repro.mpc.stats import RoundStats, RunStats
from repro.mpc.trace import busiest_server, load_histogram, round_table, trace
from repro.testing.scalar_reference import send_row


def sample_stats():
    stats = RunStats(3)
    stats.rounds.append(RoundStats("shuffle", [10, 4, 2]))
    stats.rounds.append(RoundStats("join", [0, 6, 6]))
    return stats


class TestRoundTable:
    def test_contains_rows_and_totals(self):
        text = round_table(sample_stats())
        assert "shuffle" in text and "join" in text
        assert "TOTAL" in text
        assert "r=2" in text

    def test_empty_run(self):
        text = round_table(RunStats(2))
        assert "TOTAL" in text and "r=0" in text

    def test_long_labels_truncated_and_aligned(self):
        stats = RunStats(2)
        stats.rounds.append(
            RoundStats("a-very-long-round-label-that-overflows-the-column", [3, 1])
        )
        stats.rounds.append(RoundStats("short", [1, 1]))
        text = round_table(stats)
        header, long_row, short_row, total = text.splitlines()
        # Every row keeps the same column positions despite the long label.
        assert len(long_row) == len(short_row) == len(header)
        assert "…" in long_row
        assert "a-very-long-round-label-that" not in text  # actually truncated

    def test_undelivered_round_flagged(self):
        stats = RunStats(2)
        stats.rounds.append(RoundStats("over-cap", [9, 0], delivered=False))
        text = round_table(stats)
        assert "over-cap !" in text
        assert "r=0" in text  # undelivered rounds don't count


class TestHistogram:
    def test_bars_scale_with_load(self):
        text = load_histogram(RoundStats("x", [10, 5, 0]))
        lines = text.splitlines()[1:]
        assert lines[0].count("█") > lines[1].count("█")
        assert "█" not in lines[2] and "▌" not in lines[2]

    def test_uses_block_chars_not_hash(self):
        text = load_histogram(RoundStats("x", [10, 5, 0]))
        assert "#" not in text

    def test_half_block_for_fractional_remainder(self):
        # Peak 16 at width 24: load 11 scales to 16.5 -> 16 full + a half.
        text = load_histogram(RoundStats("x", [16, 11, 10]))
        lines = text.splitlines()[1:]
        assert lines[0].count("█") == 24 and "▌" not in lines[0]
        assert lines[1].count("█") == 16 and lines[1].count("▌") == 1
        # Load 10 scales to 15.0 exactly: no half block.
        assert lines[2].count("█") == 15 and "▌" not in lines[2]

    def test_tiny_nonzero_load_gets_a_tick(self):
        text = load_histogram(RoundStats("x", [1000, 1]))
        lines = text.splitlines()[1:]
        assert "▏" in lines[1]

    def test_shows_values(self):
        text = load_histogram(RoundStats("x", [7]))
        assert "7" in text and "s00" in text


class TestTrace:
    def test_without_histograms(self):
        text = trace(sample_stats())
        assert "server loads" not in text

    def test_with_histograms_skips_silent_rounds(self):
        stats = sample_stats()
        stats.rounds.append(RoundStats("quiet", [0, 0, 0]))
        text = trace(stats, histograms=True)
        assert text.count("server loads") == 2

    def test_histograms_skip_undelivered_rounds(self):
        stats = sample_stats()
        stats.rounds.append(RoundStats("rejected", [99, 0, 0], delivered=False))
        text = trace(stats, histograms=True)
        assert text.count("server loads") == 2

    def test_audited_run_appends_summary(self):
        cluster = Cluster(2, audit=True)
        with cluster.round("r") as rnd:
            send_row(rnd, 0, "A", (1,))
        text = trace(cluster.stats)
        assert "audit:" in text and "0 violations" in text

    def test_real_run_traces(self):
        from repro.data.generators import uniform_relation
        from repro.joins import parallel_hash_join

        r = uniform_relation("R", ["x", "y"], 100, 30, seed=1)
        s = uniform_relation("S", ["y", "z"], 100, 30, seed=2)
        run = parallel_hash_join(r, s, p=4)
        text = trace(run.stats, histograms=True)
        assert "hash-shuffle" in text


class TestBusiestServer:
    def test_identifies_hotspot(self):
        # Totals: s0 = 10, s1 = 10, s2 = 8; ties resolve to the lower id.
        sid, total = busiest_server(sample_stats())
        assert (sid, total) == (0, 10)

    def test_unambiguous_hotspot(self):
        stats = RunStats(2)
        stats.rounds.append(RoundStats("a", [1, 9]))
        assert busiest_server(stats) == (1, 9)

    def test_ignores_undelivered_rounds(self):
        stats = RunStats(2)
        stats.rounds.append(RoundStats("a", [1, 2]))
        stats.rounds.append(RoundStats("b", [50, 0], delivered=False))
        assert busiest_server(stats) == (1, 2)

    def test_empty(self):
        assert busiest_server(RunStats(4)) == (0, 0)


class TestBusiestServerBeyondP:
    """A round may list more servers than ``stats.p`` (or fewer): the totals
    follow it."""

    def test_sort_join_with_a_straddling_key(self):
        from repro.data.relation import Relation
        from repro.joins.sort_join import sort_join

        r = Relation("R", ["x", "y"], [(i, 0 if i % 2 else i) for i in range(40)])
        s = Relation("S", ["y", "z"], [(0 if i % 2 else i, i) for i in range(40)])
        stats = sort_join(r, s, 4).stats
        # The heavy products follow the boundary report, on all p servers;
        # a round may list fewer servers than p too.
        assert [len(rd.received) for rd in stats.rounds] == [4, 4, 4, 4, 4]
        stats.rounds.append(RoundStats("short", [0, 90]))
        totals = [sum(rd.received[sid] for rd in stats.rounds if sid < len(rd.received))
                  for sid in range(4)]
        assert busiest_server(stats) == (totals.index(max(totals)), max(totals))

    def test_oversubscribed_skewhc(self):
        from repro.data.relation import Relation
        from repro.multiway.skewhc import skewhc_join
        from repro.query.cq import triangle_query

        n = 12
        relations = {
            "R": Relation("R", ["x", "y"], [(0 if i % 2 else i, i % 5) for i in range(n)]),
            "S": Relation("S", ["y", "z"], [(i % 5, 0 if i % 2 else i) for i in range(n)]),
            "T": Relation("T", ["z", "x"], [(i % 4, 0 if i % 3 else i) for i in range(n)]),
        }
        stats = skewhc_join(triangle_query(), relations, 2).stats
        (only,) = stats.rounds
        assert stats.p == 2 and len(only.received) == 3
        assert busiest_server(stats) == (only.received.index(only.max_load), only.max_load)

    def test_oversubscribed_skewhc_on_three_servers(self):
        from repro.data.relation import Relation
        from repro.multiway.skewhc import skewhc_join
        from repro.query.cq import triangle_query

        n = 16
        relations = {
            "R": Relation("R", ["x", "y"], [(0 if i % 2 else i, i % 5) for i in range(n)]),
            "S": Relation("S", ["y", "z"], [(i % 5, 0 if i % 2 else i) for i in range(n)]),
            "T": Relation("T", ["z", "x"], [(i % 4, 0 if i % 3 else i) for i in range(n)]),
        }
        stats = skewhc_join(triangle_query(), relations, 3).stats
        (only,) = stats.rounds
        assert stats.p == 3 and len(only.received) == 4
        assert busiest_server(stats) == (only.received.index(only.max_load), only.max_load)
