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
from repro.kernels.join import TAG, cut_at_tags, stack_tagged
from repro.kernels.memo import key_degrees
from repro.mpc.server import Server, held
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


def stacked(name: str, attributes: tuple[str, ...], fragments: list) -> Relation:
    """A chunk's fragments of one relation as one, server-major behind the
    tag attribute (:func:`stack_tagged`)."""
    lead = (TAG,) if len(fragments) > 1 else ()
    return Relation.from_columns(name, lead + attributes, stack_tagged(fragments))


def join_fragment_chunk(payloads: list, common) -> list:
    """Exec task ``join.fragments``: the local joins of a chunk of servers.

    A payload is both fragments' columns. The chunk is joined in one pass
    keyed on ``(server, join key)``: ``join_indices`` emits left rows in
    input order, each one's matches in right-row order, and a tagged row only
    meets rows of its own server, so the output *is* the per-server outputs,
    concatenated (a product is the join on the server alone). The inline
    path (a chunk is all p servers) and the process backend's workers (a
    contiguous range each) share it verbatim: their outputs are
    byte-identical.
    """
    left_name, left_schema, right_name, right_schema = common
    left = stacked(left_name, left_schema.attributes, [l_cols for l_cols, _ in payloads])
    right = stacked(right_name, right_schema.attributes, [r_cols for _, r_cols in payloads])
    return cut_at_tags(left.join(right).columns(), len(payloads))


def _take_join_inputs(
    server: Server, left_fragment: str, right_fragment: str, left: Relation, right: Relation,
) -> tuple[list, list]:
    """Consume both fragments into one ``join.fragments`` payload: their columns."""
    return (
        held(server.take(left_fragment), left.schema.arity),
        held(server.take(right_fragment), right.schema.arity),
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

    ``left`` and ``right`` supply the schemas; only the fragments' tuples
    are read. Consumes both input fragments.
    """
    payload = _take_join_inputs(server, left_fragment, right_fragment, left, right)
    common = (left.name, left.schema, right.name, right.schema)
    server.append_result(out_fragment, join_fragment_chunk([payload], common)[0])


def _local_joins(cluster, left_fragment, right_fragment, left, right, out_fragment, run):
    """Every server's local join: build the payloads, ``run(payloads,
    common)`` them, store each result on its server."""
    payloads = [
        _take_join_inputs(server, left_fragment, right_fragment, left, right)
        for server in cluster.servers
    ]
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
    worker pool (column blocks ride the worker's frame); with
    ``inline`` this is exactly :func:`inline_local_join`, sharing
    :func:`join_fragment_chunk` either way.
    """
    _local_joins(
        cluster, left_fragment, right_fragment, left, right, out_fragment,
        lambda payloads, common: cluster.map_servers("join.fragments", payloads, common),
    )
