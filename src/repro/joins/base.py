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
from repro.mpc.server import ChunkedColumns, Server
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
    byte-identical. The fragments come both as columns (``l_rows is
    None``), joined column-natively, or both as rows.
    """
    if l_rows is None:
        return step_result(
            Relation.from_columns(left_name, left_schema, l_cols).join(
                Relation.from_columns(right_name, right_schema, r_cols)
            )
        )
    shared = left_schema.common(right_schema)
    if kernels_enabled() and shared:
        extra = [a for a in right_schema.attributes if a not in left_schema]
        joined_rows = join_rows_columnar(
            l_rows, r_rows, left_schema.indices(shared), right_schema.indices(shared),
            right_schema.indices(extra),
        )
        if joined_rows is not None:
            return joined_rows
    l_rel = Relation.wrap(left_name, left_schema, l_rows)
    r_rel = Relation.wrap(right_name, right_schema, r_rows)
    return step_result(l_rel.join(r_rel))


def join_fragment_chunk(payloads: list, common) -> list:
    """Exec task ``join.fragments``: elementwise local joins of a chunk."""
    return [join_fragments(*payload, *common) for payload in payloads]


def as_rows(fragment: "list | ChunkedColumns") -> list:
    """A fragment's tuples as rows, column blocks decoded."""
    return list(fragment) if isinstance(fragment, ChunkedColumns) else fragment


def _take_join_inputs(
    server: Server, left_fragment: str, right_fragment: str
) -> tuple[list | None, object, list | None, object]:
    """Consume both fragments into one ``join.fragments`` payload: whole
    columns when both are column blocks, else rows (blocks meeting rows
    are decoded — not when a side is empty: that joins to nothing)."""
    left, right = server.take(left_fragment), server.take(right_fragment)
    if isinstance(left, ChunkedColumns) and isinstance(right, ChunkedColumns):
        return None, left.arrays(), None, right.arrays()
    if not (len(left) and len(right)):
        return [], None, [], None
    return as_rows(left), None, as_rows(right), None


def local_join(
    server: Server,
    left_fragment: str,
    right_fragment: str,
    left: Relation,
    right: Relation,
    out_fragment: str,
) -> None:
    """Join the server's two local fragments and store the result locally.

    ``left`` and ``right`` supply the schemas; only the fragments' tuples
    are read. Consumes both input fragments.
    """
    payload = _take_join_inputs(server, left_fragment, right_fragment)
    server.append_result(
        out_fragment,
        join_fragments(*payload, left.name, left.schema, right.name, right.schema),
    )


def _local_joins(cluster, left_fragment, right_fragment, left, right, out_fragment, run):
    """Every server's local join: build the payloads (counted by shape),
    ``run(payloads, common)`` them, store each result on its server."""
    payloads = [
        _take_join_inputs(server, left_fragment, right_fragment)
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
    worker pool (column blocks travel via shared memory); with
    ``inline`` this is exactly :func:`inline_local_join`, sharing
    :func:`join_fragments` either way.
    """
    _local_joins(
        cluster, left_fragment, right_fragment, left, right, out_fragment,
        lambda payloads, common: cluster.map_servers("join.fragments", payloads, common),
    )
