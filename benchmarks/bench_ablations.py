"""Ablations for the design choices DESIGN.md calls out.

1. Share rounding — the best integral grid vs naive floor rounding:
   load inflation of bad roundings at awkward p.
2. Heavy-hitter threshold in the skew join — IN/p vs looser/tighter.
3. PSRS splitter source — regular sampling vs random sampling.
4. GYM GHD depth — already covered by bench_f6; here: join-tree
   flattening on the star query (GYO chain vs depth-minimized tree).
"""

import math

import numpy as np
import pytest

from repro.data import (
    random_edges,
    skewed_relation,
    triangle_relations,
    uniform_relation,
)
from repro.joins import skew_join
from repro.multiway import gym, hypercube_join
from repro.query import star_query, triangle_query, width1_ghd
from repro.sorting import psrs_sort

from common import print_table


def share_rounding_ablation():
    q = triangle_query()
    edges = random_edges(2000, 1000, seed=3)
    r, s, t = triangle_relations(edges)
    rels = {"R": r, "S": s, "T": t}
    rows = []
    for p in (27, 30, 60):
        optimal = hypercube_join(q, rels, p=p)
        # Naive rounding: floor(p^(1/3)) per dimension.
        share = max(1, int(p ** (1 / 3)))
        naive = hypercube_join(q, rels, p=p, shares={"x": share, "y": share, "z": share})
        rows.append((p, str(optimal.details["shares"]), optimal.load,
                     f"{share}^3", naive.load))
    return rows


def threshold_ablation():
    r = skewed_relation("R", ["x", "y"], 3000, "y", universe=600, s=1.3, seed=5)
    s = skewed_relation("S", ["y", "z"], 3000, "y", universe=600, s=1.3, seed=6)
    p = 16
    in_size = len(r) + len(s)
    rows = []
    for label, factor in (("IN/p (paper)", 1.0), ("4·IN/p", 4.0), ("IN/(4p)", 0.25)):
        run = skew_join(r, s, p=p, threshold=factor * in_size / p)
        rows.append((label, run.load, run.rounds))
    return rows


def psrs_sampling_ablation():
    rng = np.random.default_rng(8)
    items = rng.integers(0, 10**9, size=6000).tolist()
    rows = []
    for label, random_sampling in (("regular sample", False), ("random sample", True)):
        out, stats = psrs_sort(items, p=12, use_random_sampling=random_sampling)
        assert out == sorted(items)
        partition = next(r for r in stats.rounds if r.label == "psrs-partition")
        rows.append((label, partition.max_load, round(partition.imbalance, 3)))
    return rows


def ghd_flatten_ablation():
    q = star_query(5)
    rels = {
        f"R{i}": uniform_relation(f"R{i}", ["A0", f"A{i}"], 200, 60, seed=i)
        for i in range(1, 6)
    }
    rows = []
    for label, flatten in (("GYO chain", False), ("depth-minimized", True)):
        ghd = width1_ghd(q, flatten=flatten)
        run = gym(q, rels, p=8, ghd=ghd, variant="optimized")
        rows.append((label, ghd.depth, run.rounds, run.load))
    return rows


def test_ablation_share_rounding(benchmark):
    rows = benchmark.pedantic(share_rounding_ablation, rounds=1, iterations=1)
    print_table(
        "Ablation: share rounding (triangle HyperCube)",
        ["p", "searched shares", "L", "naive shares", "naive L"],
        rows,
    )
    # Searched rounding never loses to the naive cube rounding.
    for _p, _shares, load, _naive_shares, naive_load in rows:
        assert load <= naive_load * 1.05


def test_ablation_heavy_threshold(benchmark):
    rows = benchmark.pedantic(threshold_ablation, rounds=1, iterations=1)
    print_table(
        "Ablation: skew-join heavy-hitter threshold",
        ["threshold", "L", "rounds"],
        rows,
    )
    paper = rows[0][1]
    # The paper's IN/p is within 2x of the best of the three.
    best = min(row[1] for row in rows)
    assert paper <= 2 * best


def test_ablation_psrs_sampling(benchmark):
    rows = benchmark.pedantic(psrs_sampling_ablation, rounds=1, iterations=1)
    print_table(
        "Ablation: PSRS splitter source",
        ["sampling", "partition L", "imbalance"],
        rows,
    )
    regular, random_ = rows
    # Regular sampling's determinism keeps imbalance modest; random is
    # close but noisier. Both stay within 2x of perfect balance.
    assert regular[2] < 2.0
    assert random_[2] < 2.5


def test_ablation_ghd_flatten(benchmark):
    rows = benchmark.pedantic(ghd_flatten_ablation, rounds=1, iterations=1)
    print_table(
        "Ablation: join-tree depth minimization (star-5, optimized GYM)",
        ["join tree", "depth", "rounds", "L"],
        rows,
    )
    chain, flattened = rows
    assert flattened[1] <= chain[1]
    assert flattened[2] <= chain[2]


if __name__ == "__main__":
    print_table("share rounding", ["p", "shares", "L", "naive", "naive L"],
                share_rounding_ablation())
    print_table("heavy threshold", ["threshold", "L", "r"], threshold_ablation())
    print_table("psrs sampling", ["sampling", "L", "imbalance"],
                psrs_sampling_ablation())
    print_table("ghd flatten", ["tree", "depth", "r", "L"], ghd_flatten_ablation())
