"""X3 — recovery overhead vs. fault rate.

The fault-injection layer (:mod:`repro.mpc.faults`) promises that a run
under a seeded :class:`~repro.mpc.faults.FaultPlan` with recovery
enabled produces the *same* output and the *same* nominal loads as the
fault-free run — the price of the faults appears only in the recovery
counters. This bench measures that price:

- X3a sweeps the per-slot fault rate on a one-round hash join and a
  one-round HyperCube triangle, reporting injected faults and the
  recovery load as a fraction of the nominal communication ``C``;
- X3b varies the checkpoint interval on a multi-round shuffle pipeline
  with a late crash, showing the checkpoint-cost vs. replay-cost
  trade-off (sparser checkpoints mean more logged rounds to roll
  forward at crash time).

Outputs are re-verified against the fault-free run in every cell, so
the table doubles as an end-to-end recovery correctness check.
"""

from repro.data.generators import uniform_relation
from repro.data.graphs import random_edges, triangle_relations
from repro.data.relation import Relation
from repro.joins.hash_join import parallel_hash_join
from repro.kernels.partition import try_route
from repro.mpc import (
    Cluster,
    CrashFault,
    FaultPlan,
    RecoveryPolicy,
    faulty,
)
from repro.mpc.server import held
from repro.multiway.hypercube import hypercube_join
from repro.query import triangle_query

from common import print_table


def _hash_join_workload(p=16, n=4000, domain=400):
    r = uniform_relation("R", ("a", "b"), n, domain, seed=11)
    s = uniform_relation("S", ("b", "c"), n, domain, seed=12)
    return lambda: parallel_hash_join(r, s, p=p, seed=3)


def _triangle_workload(p=16, n=1500, nodes=120):
    edges = random_edges(n, nodes, seed=13)
    r, s, t = triangle_relations(edges)
    query = triangle_query()
    return lambda: hypercube_join(
        query, {"R": r, "S": s, "T": t}, p=p, seed=3
    )


def recovery_overhead_experiment(
    p=16, rates=(0.0, 0.05, 0.1, 0.2, 0.4), n_join=4000, n_tri=1500
):
    """X3a: injected faults and recovery load as the fault rate grows."""
    rows = []
    for label, make in (
        ("hash-join", _hash_join_workload(p, n=n_join)),
        ("triangle-hc", _triangle_workload(p, n=n_tri)),
    ):
        clean = make()
        baseline = sorted(clean.output.rows())
        for rate in rates:
            plan = FaultPlan.random(
                seed=1000 + int(rate * 100), p=p, rounds=3,
                crash_rate=rate, straggler_rate=rate,
                drop_rate=rate, duplicate_rate=rate / 2,
                scatter_crash_rate=rate / 2,
            )
            with faulty(plan):
                run = make()
            faults = run.stats.faults
            assert faults is not None and faults.clean
            assert sorted(run.output.rows()) == baseline
            nominal = run.stats.total_communication
            overhead = faults.recovery_load / nominal if nominal else 0.0
            rows.append(
                (label, f"{rate:.2f}", faults.injected,
                 run.stats.max_load, nominal, faults.recovery_load,
                 f"{overhead:.0%}")
            )
    return rows


def _shuffle_pipeline(p, n, depth, plan=None):
    """``depth`` chained re-hash shuffles — a pure-shuffle pipeline, so
    recovery stays exact at any checkpoint interval."""
    cluster = Cluster(p, seed=5, faults=plan)
    cluster.scatter(Relation("F0", ["a", "b"], [(i, i % 97) for i in range(n)]))
    for step in range(depth):
        h = cluster.hash_function(step, p)
        with cluster.round(f"shuffle-{step}") as rnd:
            for server in cluster.servers:
                try_route(rnd, held(server.take(f"F{step}"), 2), (0,), h, f"F{step + 1}")
    return sorted(cluster.gather(f"F{depth}")), cluster.stats


def checkpoint_interval_experiment(p=16, n=4000, depth=6, intervals=(1, 2, 3, 6)):
    """X3b: checkpoint cost vs. replay cost around a crash in the last round."""
    baseline, _ = _shuffle_pipeline(p, n, depth)
    rows = []
    for interval in intervals:
        plan = FaultPlan(
            crashes=(CrashFault(depth - 1, 2),),
            recovery=RecoveryPolicy(checkpoint_interval=interval),
        )
        output, stats = _shuffle_pipeline(p, n, depth, plan=plan)
        faults = stats.faults
        assert faults is not None and faults.clean
        assert output == baseline
        rows.append(
            (interval, faults.checkpoints_taken, faults.rounds_replayed,
             faults.recovery_load, stats.total_communication)
        )
    return rows


def test_x3_recovery_overhead(benchmark):
    rows = benchmark.pedantic(recovery_overhead_experiment, rounds=1, iterations=1)
    print_table(
        "X3a recovery overhead vs fault rate (outputs oracle-identical)",
        ["workload", "rate", "injected", "L", "C", "recovery load", "overhead"],
        rows,
    )
    by_rate = [r for r in rows if r[0] == "hash-join"]
    # A zero-rate plan injects nothing and costs nothing…
    assert by_rate[0][2] == 0 and by_rate[0][5] == 0
    # …and the nominal L and C are invariant under every fault rate.
    assert len({r[3] for r in by_rate}) == 1
    assert len({r[4] for r in by_rate}) == 1
    # More faults cost more recovery work at the extremes of the sweep.
    assert by_rate[-1][5] > by_rate[0][5]


def test_x3_checkpoint_interval(benchmark):
    rows = benchmark.pedantic(checkpoint_interval_experiment, rounds=1, iterations=1)
    print_table(
        "X3b checkpoint interval vs replay work (crash in final round)",
        ["interval", "checkpoints", "rounds replayed", "recovery load", "C"],
        rows,
    )
    # Denser checkpoints, fewer rounds to roll forward — and vice versa.
    assert rows[0][1] >= rows[-1][1]
    assert rows[0][2] <= rows[-1][2]
    # Interval 1 replays only the crashed round itself.
    assert rows[0][2] == 1


if __name__ == "__main__":
    print_table(
        "X3a recovery overhead",
        ["workload", "rate", "injected", "L", "C", "recovery load", "overhead"],
        recovery_overhead_experiment(),
    )
    print_table(
        "X3b checkpoint interval",
        ["interval", "checkpoints", "rounds replayed", "recovery load", "C"],
        checkpoint_interval_experiment(),
    )
