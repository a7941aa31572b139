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

from repro.data.relation import Relation
from repro.kernels.columnar import pack_columns
from repro.kernels.join import code_key_columns, join_indices
from repro.kernels.memo import route
from repro.kernels.partition import try_route_grid
from repro.mpc.cluster import Cluster, row_bounds, server_column
from repro.mpc.server import held
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

    # Round 1: join on j, routed by h(j) — the scalar spec, not h((j,)):
    # the HyperCube over (i, j, k) with shares (1, p, 1), where only j hashes.
    cluster = Cluster(p, seed=seed)
    cluster.scatter(_nonzero(a, "A", ["i", "j", "v"]), "A@in")
    cluster.scatter(_nonzero(b, "B", ["j", "k", "v"]), "B@in")
    salt = cluster.hash_function(0).salt
    with cluster.round("join-j") as rnd:
        for server in cluster.servers:
            for side, dims in (("A", (0, 1)), ("B", (1, 2))):
                try_route_grid(rnd, held(server.take(f"{side}@in"), 3), dims,
                               (salt,) * 3, (1, p, 1), (p, 1, 1), f"{side}@j")

    # The n³ elementary products dominate the run; the exec backend
    # computes each server's block concurrently and returns (i, k, v)
    # arrays — through shared memory under the process backend.
    partials, _bounds = cluster.compute("matmul.partials", [("A@j", 3), ("B@j", 3)])

    # Round 2: aggregate by (i, k), on the same servers under the next seed.
    c = np.zeros((a.shape[0], b.shape[1]))
    products = Relation.from_columns("P", ["i", "k", "v"], partials)
    with cluster.step(seed + 1) as agg:
        agg.scatter(products, "P@in")
        with agg.round("groupby-ik") as rnd:
            route(agg, rnd, "P@in", (0, 1), agg.hash_function(1), "P@j", products)
        (iis, ks, vs), _bounds = agg.compute("matmul.sums", [("P@j", 3)])
        c[iis, ks] = vs
    return c, cluster.stats


def _nonzero(matrix: np.ndarray, name: str, attributes: list[str]) -> Relation:
    """The non-zero entries as (row, column, value) columns, in
    ``np.nonzero`` order — the slide-108 view of a matrix as a relation."""
    rows, cols = np.nonzero(matrix)
    return Relation.from_columns(name, attributes, [rows, cols, matrix[rows, cols].astype(float)])


def matmul_partials_chunk(chunk: list, common) -> tuple:
    """Exec task ``matmul.partials``: a chunk's join-side products.

    One join on ``(server, j)``: for each A entry in arrival order, its
    products with the B entries of its server and ``j`` in arrival order
    (:func:`~repro.kernels.join.join_indices`'s nested-loop order), each
    one IEEE multiply, as a tuple loop over Python floats makes it. (A
    relation holds floats as an ``object`` column; ``float64`` holds them
    exactly.) Returned as ``(i, k, v)`` columns.
    """
    ((a_i, a_j, a_v), a_bounds), ((b_j, b_k, b_v), b_bounds) = chunk
    servers = server_column(a_bounds)
    left, right = join_indices(*code_key_columns([servers, a_j], [server_column(b_bounds), b_j]))
    return ([a_i[left], b_k[right], _floats(a_v)[left] * _floats(b_v)[right]],
            row_bounds(servers[left], len(a_bounds) - 1))


def matmul_sums_chunk(chunk: list, common) -> tuple:
    """Exec task ``matmul.sums``: a chunk's group sums, grouped once on
    ``(server, i, k)``.

    ``np.bincount``'s weights accumulate from 0.0 in arrival order, as a
    dict of running Python float sums does, so every sum is bit-identical;
    returned as ``(i, k, sum)`` columns, one row per group.
    """
    [((iis, ks, vs), bounds)] = chunk
    servers = server_column(bounds)
    _, first, groups = np.unique(
        pack_columns([servers, iis, ks], dense=True)[0], return_index=True, return_inverse=True
    )
    sums = np.bincount(groups.reshape(-1), weights=_floats(vs), minlength=len(first))
    return [iis[first], ks[first], sums], row_bounds(servers[first], len(bounds) - 1)


def _floats(column: np.ndarray) -> np.ndarray:
    return np.asarray(column, dtype=np.float64)
