"""Tests for the skew-aware join (slides 29–30)."""

import math

import pytest

from repro.data.generators import (
    single_value_relation,
    skewed_relation,
    uniform_relation,
)
from repro.data.relation import Relation
from repro.joins.heavy import allocate_servers
from repro.joins.skew_join import find_heavy_keys, skew_join


def reference(r, s):
    return sorted(r.join(s).rows())


class TestFindHeavyKeys:
    def test_detects_heavy_in_either_side(self):
        r = Relation("R", ["x", "y"], [(i, 7) for i in range(10)] + [(0, 1)])
        s = Relation("S", ["y", "z"], [(2, i) for i in range(10)] + [(1, 0)])
        heavy = find_heavy_keys(r, s, ("y",), threshold=5)
        assert heavy == [(2,), (7,)]

    def test_high_threshold_no_heavy(self):
        r = Relation("R", ["x", "y"], [(1, 2)])
        s = Relation("S", ["y", "z"], [(2, 3)])
        assert find_heavy_keys(r, s, ("y",), threshold=5) == []


class TestAllocateServers:
    def test_proportional(self):
        alloc = allocate_servers([3.0, 1.0], 8)
        assert alloc == [6, 2]

    def test_minimum_one(self):
        alloc = allocate_servers([1000.0, 0.001], 8)
        assert alloc[1] >= 1

    def test_empty(self):
        assert allocate_servers([], 8) == []

    def test_total_near_p(self):
        alloc = allocate_servers([5, 5, 5, 5], 9)
        assert sum(alloc) <= 9 + 4  # ≥1 floor may force a small overshoot

    def test_strict_takes_back_what_the_floor_overshoots(self):
        assert allocate_servers([100, 1, 1], 3) == [2, 1, 1]
        assert allocate_servers([100, 1, 1], 3, strict=True) == [1, 1, 1]
        assert allocate_servers([100, 7, 1, 1], 6, strict=True) == [3, 1, 1, 1]
        assert allocate_servers([1] * 5, 3, strict=True) == [1] * 5  # forced


class TestPeeling:
    def test_only_the_join_key_is_peeled(self):
        # x = 0 and z = 0 are heavy too, but only y's heavy keys take pools:
        # the run lists at most p servers (it listed 23 at p = 8 when x and z
        # were peeled as well).
        rows = [(i, 0) for i in range(8)] + [(i, 1) for i in range(3)]
        rows += [(0, 10 + i) for i in range(13)]
        r = Relation("R", ["x", "y"], rows)
        s = Relation("S", ["y", "z"], [(y, x) for x, y in rows])
        run = skew_join(r, s, p=8)
        assert sorted(run.output.rows()) == reference(r, s)
        assert len(run.stats.pools) == 3 and sum(run.stats.pools) == 8
        assert all(len(rd.received) <= 8 for rd in run.stats.rounds)

    def test_at_most_p_minus_one_keys_the_largest(self):
        # Ten heavy keys on four servers: the three largest take pools, the
        # rest stay in the light residual's hash join.
        r = Relation("R", ["x", "y"], [(i, i % 10) for i in range(100)]
                     + [(-i, 3) for i in range(20)] + [(-i, 7) for i in range(10)])
        s = Relation("S", ["y", "z"], [(i % 10, i) for i in range(100)] + [(5, -1)] * 15)
        run = skew_join(r, s, p=4, threshold=5)
        assert sorted(run.output.rows()) == reference(r, s)
        assert len(run.stats.pools) == 4 and sum(run.stats.pools) == 4
        assert all(len(rd.received) <= 4 for rd in run.stats.rounds)


class TestCorrectness:
    def test_uniform_data(self):
        r = uniform_relation("R", ["x", "y"], 300, 40, seed=1)
        s = uniform_relation("S", ["y", "z"], 300, 40, seed=2)
        run = skew_join(r, s, p=8)
        assert sorted(run.output.rows()) == reference(r, s)

    def test_extreme_skew(self):
        r = single_value_relation("R", ["x", "y"], 60, "y")
        s = single_value_relation("S", ["y", "z"], 60, "y")
        run = skew_join(r, s, p=8)
        assert sorted(run.output.rows()) == reference(r, s)

    def test_zipf_skew(self):
        r = skewed_relation("R", ["x", "y"], 500, "y", universe=100, s=1.4, seed=1)
        s = skewed_relation("S", ["y", "z"], 500, "y", universe=100, s=1.4, seed=2)
        run = skew_join(r, s, p=8)
        assert sorted(run.output.rows()) == reference(r, s)

    def test_mixed_heavy_and_light(self):
        rows_r = [(i, 0) for i in range(50)] + [(i, i) for i in range(1, 30)]
        rows_s = [(0, i) for i in range(50)] + [(i, i) for i in range(1, 30)]
        r = Relation("R", ["x", "y"], rows_r)
        s = Relation("S", ["y", "z"], rows_s)
        run = skew_join(r, s, p=6)
        assert sorted(run.output.rows()) == reference(r, s)

    def test_degenerate_unary_s(self):
        # S adds no attributes: multiplicity semantics must be preserved.
        r = Relation("R", ["x", "y"], [(i, 0) for i in range(20)])
        s = Relation("S", ["y"], [(0,), (0,), (0,)])
        run = skew_join(r, s, p=4, threshold=2)
        assert sorted(run.output.rows()) == reference(r, s)

    def test_empty_input(self):
        r = Relation("R", ["x", "y"])
        s = Relation("S", ["y", "z"], [(1, 1)])
        run = skew_join(r, s, p=4)
        assert len(run.output) == 0


class TestCosts:
    def test_beats_hash_join_under_extreme_skew(self):
        # Slide 27 vs 30: hash join pays IN; skew join pays ~sqrt(OUT/p)+IN/p.
        from repro.joins.hash_join import parallel_hash_join

        n, p = 400, 16
        r = single_value_relation("R", ["x", "y"], n, "y")
        s = single_value_relation("S", ["y", "z"], n, "y")
        hj = parallel_hash_join(r, s, p=p)
        sj = skew_join(r, s, p=p)
        assert hj.load == 2 * n
        assert sj.load < hj.load / 2

    def test_load_tracks_sqrt_out_over_p(self):
        n, p = 400, 16
        r = single_value_relation("R", ["x", "y"], n, "y")
        s = single_value_relation("S", ["y", "z"], n, "y")
        run = skew_join(r, s, p=p)
        out = n * n
        bound = math.sqrt(out / p) + 2 * n / p
        assert run.load <= 4 * bound

    def test_single_round_in_model(self):
        # Light join and heavy products run on disjoint pools: 1 round.
        n, p = 200, 8
        r = single_value_relation("R", ["x", "y"], n, "y")
        s = single_value_relation("S", ["y", "z"], n, "y")
        run = skew_join(r, s, p=p)
        assert run.rounds <= 2

    def test_no_skew_matches_hash_join_load_scale(self):
        from repro.joins.hash_join import parallel_hash_join

        r = uniform_relation("R", ["x", "y"], 800, 400, seed=5)
        s = uniform_relation("S", ["y", "z"], 800, 400, seed=6)
        hj = parallel_hash_join(r, s, p=8)
        sj = skew_join(r, s, p=8)
        assert sj.load <= 2 * hj.load
