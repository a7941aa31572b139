"""Shared plumbing for the distributed join algorithms.

Every two-way join algorithm follows the same contract: take the two
input relations and a server count, run rounds on a fresh
:class:`~repro.mpc.cluster.Cluster`, and return a :class:`JoinRun`
bundling the (gathered) output relation with the run's cost statistics.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError
from repro.kernels.config import kernels_enabled
from repro.kernels.join import join_rows_columnar
from repro.kernels.memo import key_degrees
from repro.mpc.server import Server
from repro.mpc.stats import RunStats


@dataclass
class JoinRun:
    """Output and cost of one distributed join execution."""

    output: Relation
    stats: RunStats

    @property
    def load(self) -> int:
        return self.stats.max_load

    @property
    def rounds(self) -> int:
        return self.stats.num_rounds


def join_schemas(r: Relation, s: Relation) -> tuple[tuple[str, ...], Schema]:
    """The shared attributes and the natural-join output schema of R, S."""
    shared = r.schema.common(s.schema)
    extra = [a for a in s.schema.attributes if a not in r.schema]
    return shared, Schema(list(r.schema.attributes) + extra)


def estimate_join_size(
    r: Relation, s: Relation, keys: Iterable[tuple] | None = None
) -> int:
    """Exact |R ⋈ S| = Σ_k deg_R(k)·deg_S(k) from the memoized key degrees.

    ``keys`` restricts the sum to those join-key values (the skew join
    sizes its heavy part this way, without building the light relations'
    degrees). The simulator computes this exactly; a real system would
    use sampled frequency sketches — the quantity, not its provenance,
    is what the planner and the skew join's server allocation need.
    Disjoint schemas share the empty key, which every row carries: the
    sum is |R|·|S|.
    """
    shared = r.schema.common(s.schema)
    r_degrees = key_degrees(r, r.schema.indices(shared))
    s_degrees = key_degrees(s, s.schema.indices(shared))
    if keys is None:
        keys = r_degrees
    return sum(r_degrees[k] * s_degrees[k] for k in keys)


def require_join_key(r: Relation, s: Relation) -> tuple[str, ...]:
    """The shared attributes, or an error if the join is a pure product."""
    shared, _schema = join_schemas(r, s)
    if not shared:
        raise QueryError(
            f"{r.name} and {s.name} share no attributes; use the Cartesian "
            f"product algorithm instead"
        )
    return shared


def join_fragment_rows(
    l_rows: list,
    l_cols,
    r_rows: list,
    r_cols,
    left_name: str,
    left_schema: Schema,
    right_name: str,
    right_schema: Schema,
) -> list:
    """Join two already-taken fragments; the pure core of a local join.

    Shared verbatim by the inline path and the process-backend workers
    (via the ``join.fragments`` task), which is what makes their outputs
    byte-identical. ``l_cols``/``r_cols`` are the delivery side-cars of
    the shared key columns, or ``None`` for the tuple path.
    """
    shared = left_schema.common(right_schema)
    if kernels_enabled() and shared:
        l_idx = left_schema.indices(shared)
        r_idx = right_schema.indices(shared)
        extra = [a for a in right_schema.attributes if a not in left_schema]
        joined_rows = join_rows_columnar(
            l_rows,
            r_rows,
            l_idx,
            r_idx,
            right_schema.indices(extra),
            left_cols=l_cols,
            right_cols=r_cols,
        )
        if joined_rows is not None:
            return joined_rows
    l_rel = Relation.wrap(left_name, left_schema, l_rows)
    r_rel = Relation.wrap(right_name, right_schema, r_rows)
    return l_rel.join(r_rel).rows()


def join_fragment_chunk(payloads: list, common) -> list:
    """Exec task ``join.fragments``: elementwise local joins of a chunk."""
    left_name, left_schema, right_name, right_schema = common
    return [
        join_fragment_rows(
            l_rows, l_cols, r_rows, r_cols,
            left_name, left_schema, right_name, right_schema,
        )
        for l_rows, l_cols, r_rows, r_cols in payloads
    ]


def _take_join_inputs(
    server: Server,
    left_fragment: str,
    right_fragment: str,
    left: Relation,
    right: Relation,
) -> tuple[list, object, list, object]:
    """Consume both fragments (with side-cars on the kernel path)."""
    shared = left.schema.common(right.schema)
    if kernels_enabled() and shared:
        l_rows, l_cols = server.take_with_columns(
            left_fragment, tuple(left.schema.indices(shared))
        )
        r_rows, r_cols = server.take_with_columns(
            right_fragment, tuple(right.schema.indices(shared))
        )
        return l_rows, l_cols, r_rows, r_cols
    return server.take(left_fragment), None, server.take(right_fragment), None


def local_join(
    server: Server,
    left_fragment: str,
    right_fragment: str,
    left: Relation,
    right: Relation,
    out_fragment: str,
) -> None:
    """Join the server's two local fragments and store the result locally.

    ``left`` and ``right`` supply the schemas; only the fragments' rows
    are read. Consumes both input fragments. When a kernel-routed shuffle
    delivered the fragments with their key-column side-cars, the columnar
    join kernel reuses them directly.
    """
    l_rows, l_cols, r_rows, r_cols = _take_join_inputs(
        server, left_fragment, right_fragment, left, right
    )
    server.fragment(out_fragment).extend(
        join_fragment_rows(
            l_rows, l_cols, r_rows, r_cols,
            left.name, left.schema, right.name, right.schema,
        )
    )


def distributed_local_join(
    cluster,
    left_fragment: str,
    right_fragment: str,
    left: Relation,
    right: Relation,
    out_fragment: str,
) -> None:
    """Run every server's local join through the cluster's exec backend.

    The computation-phase counterpart of a shuffle round: with the
    ``process`` backend the per-server joins run concurrently on the
    worker pool (key-column side-cars travel via shared memory); with
    ``inline`` this is exactly the historical ``for server: local_join``
    loop, sharing :func:`join_fragment_rows` either way.
    """
    payloads = [
        _take_join_inputs(server, left_fragment, right_fragment, left, right)
        for server in cluster.servers
    ]
    results = cluster.map_servers(
        "join.fragments",
        payloads,
        (left.name, left.schema, right.name, right.schema),
    )
    for server, rows in zip(cluster.servers, results):
        server.fragment(out_fragment).extend(rows)
