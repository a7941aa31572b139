"""T1 (slides 13–18): the cost-regime table of the MPC model.

The tutorial's opening table contrasts four ways to run a two-way join:

  Ideal       L = IN/p        r = 1
  Practical   L = IN/p^(1-ε)  r = O(1)
  Naive 1     L = IN          r = 1     (ship everything to one server)
  Naive 2     L = IN/p        r = p     (one fragment broadcast per round)

We execute all four strategies on the simulator and report measured
(L, r); the practical row is the HyperCube triangle join, whose ε is
1/τ* − … i.e. L = IN/p^(2/3) — the tutorial's canonical ε ∈ (0,1) case.
"""

import pytest

from repro.data import random_edges, triangle_relations, uniform_relation
from repro.joins import parallel_hash_join
from repro.mpc import Cluster
from repro.multiway import triangle_hypercube
from repro.mpc.server import held

from common import print_table

N = 4000
P = 16


def naive_one_server(r, s, p):
    """Naive 1: route every tuple to server 0, join there (r=1, L=IN)."""
    cluster = Cluster(p)
    cluster.scatter(r, "R")
    cluster.scatter(s, "S")
    with cluster.round("all-to-one") as rnd:
        for server in cluster.servers:
            rnd.send_columns(0, "R@0", held(server.take("R"), r.schema.arity))
            rnd.send_columns(0, "S@0", held(server.take("S"), s.schema.arity))
    return cluster.stats


def naive_sequential(r, s, p):
    """Naive 2: p rounds; round i broadcasts fragment i (r=p, L≈IN/p)."""
    cluster = Cluster(p)
    cluster.scatter(r, "R")
    cluster.scatter(s, "S")
    for i in range(p):
        with cluster.round(f"fragment-{i}") as rnd:
            holder = cluster.servers[i]
            rnd.send_columns((i + 1) % p, "R@seq", held(holder.get("R"), r.schema.arity))
            rnd.send_columns((i + 1) % p, "S@seq", held(holder.get("S"), s.schema.arity))
    return cluster.stats


def run_experiment(n=N, p=P):
    r = uniform_relation("R", ["x", "y"], n, 4 * n, seed=1)
    s = uniform_relation("S", ["y", "z"], n, 4 * n, seed=2)
    in_size = len(r) + len(s)

    ideal = parallel_hash_join(r, s, p=p)
    edges = random_edges(n, n, seed=3)
    tri_r, tri_s, tri_t = triangle_relations(edges)
    practical = triangle_hypercube(tri_r, tri_s, tri_t, p=p)
    naive1 = naive_one_server(r, s, p)
    naive2 = naive_sequential(r, s, p)

    rows = [
        ("Ideal (hash join)", "IN/p", in_size / p, ideal.load, 1, ideal.rounds),
        (
            "Practical (HyperCube Δ)",
            "IN/p^(2/3)",
            3 * n / p ** (2 / 3),
            practical.load,
            "O(1)",
            practical.rounds,
        ),
        ("Naive 1 (all-to-one)", "IN", in_size, naive1.max_load, 1, naive1.num_rounds),
        ("Naive 2 (sequential)", "IN/p", in_size / p, naive2.max_load, "p", naive2.num_rounds),
    ]
    return in_size, rows


def test_t1_cost_regimes(benchmark):
    in_size, rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        f"T1 cost regimes (two-way join, IN={in_size}, p={P})",
        ["strategy", "paper L", "predicted", "measured L", "paper r", "measured r"],
        rows,
    )
    ideal, practical, naive1, naive2 = rows
    # Shape: ideal ≈ IN/p, naive1 = IN, naive2 ≈ IN/p over p rounds.
    assert ideal[3] < 2 * in_size / P
    assert naive1[3] == in_size
    assert naive1[5] == 1
    assert naive2[5] == P
    assert naive2[3] <= 2 * in_size / P
    # Practical sits between ideal and naive1.
    assert ideal[3] / 3 < practical[3] < naive1[3]


if __name__ == "__main__":
    in_size, rows = run_experiment()
    print_table(
        f"T1 cost regimes (IN={in_size}, p={P})",
        ["strategy", "paper L", "predicted", "measured L", "paper r", "measured r"],
        rows,
    )
