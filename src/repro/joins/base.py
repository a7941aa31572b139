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
from repro.mpc.server import Server, pick_columns
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


def step_result(relation: Relation) -> "list | tuple":
    """A local step's result, as :meth:`Server.append_result` takes it: the
    columns as a tuple while the step stayed columnar, else the row list."""
    return tuple(relation.columns()) if relation.is_columnar else relation.rows()


def join_fragments(
    l_rows: list | None,
    l_cols,
    r_rows: list | None,
    r_cols,
    left_name: str,
    left_schema: Schema,
    right_name: str,
    right_schema: Schema,
) -> "list | tuple":
    """Join two already-taken fragments; the pure core of a local join.

    Shared verbatim by the inline path and the process-backend workers
    (via the ``join.fragments`` task), which is what makes their outputs
    byte-identical. ``l_cols``/``r_cols`` are the delivery side-cars of
    the shared key columns, or ``None`` for the tuple path — or, in a
    columns-only payload (``l_rows is None``: both side-cars arrived
    whole), every column, joined column-natively.
    """
    if l_rows is None:
        return step_result(
            Relation.from_columns(left_name, left_schema, l_cols).join(
                Relation.from_columns(right_name, right_schema, r_cols)
            )
        )
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
    return [join_fragments(*payload, *common) for payload in payloads]


def _take_join_inputs(
    server: Server,
    left_fragment: str,
    right_fragment: str,
    left: Relation,
    right: Relation,
) -> tuple[list | None, object, list | None, object]:
    """Consume both fragments into one ``join.fragments`` payload: on the
    kernel path columns-only when both side-cars arrived whole, else the
    rows with whatever key columns the side-cars hold."""
    shared = left.schema.common(right.schema)
    if not (kernels_enabled() and shared):
        return server.take(left_fragment), None, server.take(right_fragment), None
    l_rows, l_idx, l_cols = server.take_side_car(left_fragment)
    r_rows, r_idx, r_cols = server.take_side_car(right_fragment)
    l_all = pick_columns(l_idx, l_cols, range(left.schema.arity))
    r_all = pick_columns(r_idx, r_cols, range(right.schema.arity))
    if l_all is not None and r_all is not None:
        return None, l_all, None, r_all
    return (
        l_rows, pick_columns(l_idx, l_cols, left.schema.indices(shared)),
        r_rows, pick_columns(r_idx, r_cols, right.schema.indices(shared)),
    )


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
    delivered the fragments with their side-cars, the columnar join
    kernel reuses them directly.
    """
    payload = _take_join_inputs(server, left_fragment, right_fragment, left, right)
    server.append_result(
        out_fragment,
        join_fragments(*payload, left.name, left.schema, right.name, right.schema),
    )


def _local_joins(cluster, left_fragment, right_fragment, left, right, out_fragment, run):
    """Every server's local join: build the payloads (counted by shape),
    ``run(payloads, common)`` them, store each result on its server."""
    payloads = [
        _take_join_inputs(server, left_fragment, right_fragment, left, right)
        for server in cluster.servers
    ]
    if kernels_enabled():
        memo = cluster.stats.memo
        for l_rows, _l_cols, r_rows, _r_cols in payloads:
            memo.fused_payloads += l_rows is None
            memo.row_payloads += bool(l_rows and r_rows)
    results = run(payloads, (left.name, left.schema, right.name, right.schema))
    for server, result in zip(cluster.servers, results):
        server.append_result(out_fragment, result)


def inline_local_join(
    cluster, left_fragment: str, right_fragment: str,
    left: Relation, right: Relation, out_fragment: str,
) -> None:
    """:func:`local_join` on every server, on the coordinator itself."""
    _local_joins(
        cluster, left_fragment, right_fragment, left, right, out_fragment,
        join_fragment_chunk,
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
    worker pool (side-car columns travel via shared memory); with
    ``inline`` this is exactly :func:`inline_local_join`, sharing
    :func:`join_fragments` either way.
    """
    _local_joins(
        cluster, left_fragment, right_fragment, left, right, out_fragment,
        lambda payloads, common: cluster.map_servers("join.fragments", payloads, common),
    )
