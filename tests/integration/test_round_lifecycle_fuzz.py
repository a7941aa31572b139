"""Fuzz-style stress test of the round lifecycle and audit layer.

Runs randomized sequences of shuffles, broadcasts, free placements,
mid-round exceptions, and deliberate load-cap violations against one
long-lived audited cluster, asserting that the cluster survives every
failure mode with consistent accounting — the exception-safety guarantee
of :mod:`repro.mpc.cluster` under adversarial interleavings.
"""

import random

import numpy as np
import pytest

from repro.data.generators import skewed_relation, uniform_relation
from repro.errors import LoadExceededError
from repro.joins.broadcast_join import broadcast_join
from repro.joins.hash_join import parallel_hash_join
from repro.joins.skew_join import skew_join
from repro.joins.sort_join import sort_join
from repro.matmul.multi_round import square_block_matmul
from repro.matmul.sql import sql_matmul
from repro.mpc.audit import audited
from repro.mpc.cluster import Cluster
from repro.multiway.hypercube import triangle_hypercube
from repro.sorting.psrs import psrs_sort
from repro.testing.scalar_reference import send_row

pytestmark = [pytest.mark.fuzz, pytest.mark.slow]


class _Abort(Exception):
    """Deliberate mid-round failure injected by the fuzzer."""


def _fuzz_one_cluster(seed: int, steps: int = 60) -> None:
    rng = random.Random(seed)
    p = rng.randint(2, 6)
    cap = rng.randint(4, 8)
    c = Cluster(p, seed=seed, load_cap=cap, audit=True)

    delivered = 0
    aborted = 0
    rejected = 0
    for step in range(steps):
        action = rng.choice(["shuffle", "broadcast", "free", "abort", "overload"])
        label = f"{action}-{step}"
        if action == "shuffle":
            with c.round(label) as rnd:
                # Round-robin destinations keep each load under the cap.
                for i in range(rng.randint(0, (cap // 2) * p)):
                    send_row(rnd, i % p, "D", (step, i))
            delivered += 1
        elif action == "broadcast":
            with c.round(label) as rnd:
                for _ in range(rng.randint(1, max(1, cap // 2))):
                    for dest in range(p):
                        send_row(rnd, dest, "B", (step,))
            delivered += 1
        elif action == "free":
            with c.free_round(label) as rnd:
                for i in range(rng.randint(0, 3 * cap)):
                    send_row(rnd, i % p, "F", (step, i))
            delivered += 1
        elif action == "abort":
            with pytest.raises(_Abort):
                with c.round(label) as rnd:
                    send_row(rnd, rng.randrange(p), "X", (step,))
                    raise _Abort
            aborted += 1
        else:  # overload: guaranteed cap violation, rejected at the barrier
            victim = rng.randrange(p)
            with pytest.raises(LoadExceededError):
                with c.round(label) as rnd:
                    for i in range(cap + rng.randint(1, 3)):
                        send_row(rnd, victim, "X", (step, i))
            rejected += 1

    report = c.stats.audit
    assert report is not None and report.ok, report.summary()
    assert report.rounds_audited == delivered
    assert c.stats.aborted == aborted
    assert len(report.aborted_rounds) == aborted
    assert len(report.rejected_rounds) == rejected
    undelivered = [rd for rd in c.stats.rounds if not rd.delivered]
    assert len(undelivered) == rejected
    # Aggregates only see delivered rounds, and the cap held for them.
    assert c.stats.max_load <= cap
    # The injected "X" fragment never survived an abort or rejection.
    assert c.gather("X") == []
    # The cluster is still fully usable at the end.
    with c.round("final") as rnd:
        for dest in range(p):
            send_row(rnd, dest, "done", (1,))
    assert all(list(s.get("done")) == [(1,)] for s in c.servers)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_round_lifecycle(seed):
    _fuzz_one_cluster(seed)


class TestAlgorithmsUnderAudit:
    """End-to-end: real algorithms pass every conservation check."""

    def test_joins_audited(self):
        r = uniform_relation("R", ["x", "y"], 120, universe=40, seed=1)
        s = uniform_relation("S", ["y", "z"], 120, universe=40, seed=2)
        with audited():
            for algo in (parallel_hash_join, broadcast_join, sort_join):
                run = algo(r, s, p=4)
                assert run.stats.audit is not None
                assert run.stats.audit.ok, run.stats.audit.summary()
                assert run.stats.audit.rounds_audited > 0

    def test_skew_join_audited(self):
        r = skewed_relation("R", ["x", "y"], 200, key_attribute="y",
                            universe=50, s=1.2, seed=3)
        s = uniform_relation("S", ["y", "z"], 200, universe=50, seed=4)
        with audited():
            run = skew_join(r, s, p=4)
        assert run.stats.audit is not None and run.stats.audit.ok

    def test_multiway_audited(self):
        r = uniform_relation("R", ["x", "y"], 80, universe=15, seed=5)
        s = uniform_relation("S", ["y", "z"], 80, universe=15, seed=6)
        t = uniform_relation("T", ["z", "x"], 80, universe=15, seed=7)
        with audited():
            run = triangle_hypercube(r, s, t, p=8)
        assert run.stats.audit is not None and run.stats.audit.ok

    def test_sorting_audited(self):
        values = [((i * 37) % 101,) for i in range(150)]
        with audited():
            out, stats = psrs_sort(values, p=4)
        assert out == sorted(values)
        assert stats.audit is not None and stats.audit.ok

    def test_matmul_audited(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        with audited():
            c1, s1 = square_block_matmul(a, b, p=4, block_size=4)
            c2, s2 = sql_matmul(a, b, p=4)
        np.testing.assert_allclose(c1, a @ b, atol=1e-9)
        np.testing.assert_allclose(c2, a @ b, atol=1e-9)
        for stats in (s1, s2):
            assert stats.audit is not None and stats.audit.ok
