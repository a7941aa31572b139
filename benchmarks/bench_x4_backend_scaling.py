"""X4 — multi-core execution backend: speedup vs worker count.

The ``process`` backend (:mod:`repro.exec`) runs each round's per-server
local computation on a persistent pool of forked workers, moving column
arrays through ``multiprocessing.shared_memory``. Its contract is
*observational identity*: outputs, per-server loads, round counts, and
audits are byte-identical to the inline backend — only the wall clock
may differ.

The sweep runs the pool at 1/2/4/8 workers on a hash join and a
HyperCube triangle, reporting wall time and speedup over inline. The
identity columns are asserted; the speedup is *reported*, because it is
a property of the machine: with fewer physical cores than workers the
pool adds IPC cost but no parallelism (on a single-core host every
process run is a slowdown — the honest number).

The committed BENCH_5 artifact is produced by the measured counterpart:
``python -m repro bench --x4`` (see :mod:`repro.bench.runner`).
"""

import os
import time

from repro.data.generators import uniform_relation
from repro.data.graphs import random_edges, triangle_relations
from repro.exec.config import use_backend
from repro.joins.hash_join import parallel_hash_join
from repro.multiway.hypercube import hypercube_join
from repro.query import triangle_query

from common import print_table


def _hash_join_workload(p=16, n=6000, domain=600):
    r = uniform_relation("R", ("a", "b"), n, domain, seed=21)
    s = uniform_relation("S", ("b", "c"), n, domain, seed=22)
    return lambda: parallel_hash_join(r, s, p=p, seed=3)


def _triangle_workload(p=16, n=2000, nodes=140):
    edges = random_edges(n, nodes, seed=23)
    r, s, t = triangle_relations(edges)
    query = triangle_query()
    return lambda: hypercube_join(query, {"R": r, "S": s, "T": t}, p=p, seed=3)


def _timed(run):
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, result


def worker_scaling_experiment(p=16, workers=(1, 2, 4, 8), n_join=6000, n_tri=2000):
    """Wall time and identity vs pool size, per workload."""
    rows = []
    for label, make in (
        ("hash-join", _hash_join_workload(p, n=n_join)),
        ("triangle-hc", _triangle_workload(p, n=n_tri)),
    ):
        with use_backend("inline"):
            base_s, base = _timed(make)
        rows.append((label, "inline", 1, base_s, 1.0, True))
        for count in workers:
            with use_backend("process", workers=count):
                run_s, run = _timed(make)
            identical = (
                run.output == base.output
                and run.stats.max_load == base.stats.max_load
                and [r.received for r in run.stats.rounds]
                == [r.received for r in base.stats.rounds]
            )
            assert identical, f"{label}: process(w={count}) diverged from inline"
            rows.append((label, "process", count, run_s, base_s / run_s, True))
    return rows


def test_x4_worker_scaling(benchmark):
    rows = benchmark.pedantic(worker_scaling_experiment, rounds=1, iterations=1)
    print_table(
        "X4 backend scaling (outputs/loads/rounds identical to inline)",
        ["workload", "backend", "workers", "seconds", "speedup", "identical"],
        rows,
    )
    # Identity is the asserted contract (also checked inside the sweep);
    # the wall-clock ordering is machine-dependent and only reported.
    assert all(row[5] for row in rows)
    # Every configuration actually ran: inline + one row per pool size.
    assert sum(1 for row in rows if row[0] == "hash-join") == 5
    if (os.cpu_count() or 1) == 1:
        print("  (single-core host: process-backend speedups < 1 expected)")


if __name__ == "__main__":
    print_table(
        "X4 backend scaling",
        ["workload", "backend", "workers", "seconds", "speedup", "identical"],
        worker_scaling_experiment(),
    )
