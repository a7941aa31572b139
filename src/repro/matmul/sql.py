"""Matrix multiplication as a SQL query on the MPC simulator (slide 108).

    SELECT A.i, B.k, sum(A.v * B.v)
    FROM A, B
    WHERE A.j = B.j
    GROUP BY A.i, B.k

Two rounds: a hash join on ``j`` (each server emits the partial products
of its j-bucket) followed by a hash aggregation on ``(i, k)``. This is
the element-wise view of the conventional algorithm — every one of the
n³ elementary products is materialized, so the aggregation round carries
the full n³ product stream and the approach only makes sense for sparse
inputs. The blocked algorithms of :mod:`repro.matmul.one_round` and
:mod:`repro.matmul.multi_round` avoid exactly this blow-up.
"""

from __future__ import annotations

import numpy as np

from repro.matmul.blocks import matrix_as_relation_rows
from repro.mpc.cluster import Cluster, combine_sequential
from repro.mpc.stats import RunStats


def sql_matmul(
    a: np.ndarray,
    b: np.ndarray,
    p: int,
    seed: int = 0,
) -> tuple[np.ndarray, RunStats]:
    """Multiply dense (or sparse) matrices via join + group-by on ``p`` servers.

    Returns ``(C, stats)`` with C = A·B computed exactly (up to float
    association order).
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} × {b.shape}")
    a_rows = matrix_as_relation_rows(a)
    b_rows = matrix_as_relation_rows(b)

    # Round 1: join on j.
    cluster = Cluster(p, seed=seed)
    cluster.scatter_rows(a_rows, "A@in")
    cluster.scatter_rows(b_rows, "B@in")
    h = cluster.hash_function(0)
    with cluster.round("join-j") as rnd:
        for server in cluster.servers:
            for i, j, v in server.take("A@in"):
                rnd.send(h(j), "A@j", (i, j, v))
            for j, k, v in server.take("B@in"):
                rnd.send(h(j), "B@j", (j, k, v))

    # The n³ elementary products dominate the run; the exec backend
    # computes each server's block concurrently and returns (i, k, v)
    # *arrays* — through shared memory under the process backend — that
    # the coordinator zips back into tuples (int64/float64 round-trips
    # are exact, so the partials match the historical loop bit-for-bit).
    payloads = [(server.take("A@j"), server.take("B@j")) for server in cluster.servers]
    partials: list[tuple[int, int, float]] = []
    for iis, ks, vs in cluster.map_servers("matmul.partials", payloads):
        partials.extend(zip(iis.tolist(), ks.tolist(), vs.tolist()))
    join_stats = cluster.stats

    # Round 2: aggregate by (i, k).
    agg = Cluster(p, seed=seed + 1)
    agg.scatter_rows(partials, "P@in")
    h2 = agg.hash_function(1)
    with agg.round("groupby-ik") as rnd:
        for server in agg.servers:
            for i, k, v in server.take("P@in"):
                rnd.send(h2((i, k)), "P@j", (i, k, v))

    c = np.zeros((a.shape[0], b.shape[1]))
    sum_payloads = [server.take("P@j") for server in agg.servers]
    for iis, ks, vs in agg.map_servers("matmul.sums", sum_payloads):
        c[iis, ks] = vs

    stats = combine_sequential(p, [join_stats, agg.stats])
    return c, stats


def matmul_partials_chunk(payloads: list, common) -> list:
    """Exec task ``matmul.partials``: per-server join-side products.

    Returns ``(i, k, v)`` int64/int64/float64 arrays per server, in the
    exact emission order of the historical tuple loop; products are
    computed on Python floats before array packing, so values are
    bit-identical to the inline path.
    """
    out = []
    for a_rows, b_rows in payloads:
        index: dict[int, list[tuple[int, float]]] = {}
        for j, k, v in b_rows:
            index.setdefault(j, []).append((k, v))
        iis: list[int] = []
        ks: list[int] = []
        vs: list[float] = []
        for i, j, av in a_rows:
            for k, bv in index.get(j, ()):
                iis.append(i)
                ks.append(k)
                vs.append(av * bv)
        out.append(
            (
                np.asarray(iis, dtype=np.int64),
                np.asarray(ks, dtype=np.int64),
                np.asarray(vs, dtype=np.float64),
            )
        )
    return out


def matmul_sums_chunk(payloads: list, common) -> list:
    """Exec task ``matmul.sums``: per-server (i, k) group sums.

    Sums accumulate on Python floats in arrival order (matching the
    historical dict loop's association order) and are returned as
    arrays in first-arrival key order.
    """
    out = []
    for rows in payloads:
        sums: dict[tuple[int, int], float] = {}
        for i, k, v in rows:
            sums[(i, k)] = sums.get((i, k), 0.0) + v
        iis = np.asarray([i for i, _ in sums], dtype=np.int64)
        ks = np.asarray([k for _, k in sums], dtype=np.int64)
        vs = np.asarray(list(sums.values()), dtype=np.float64)
        out.append((iis, ks, vs))
    return out
