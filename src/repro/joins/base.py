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
from repro.kernels.columnar import zip_rows
from repro.kernels.join import TAG, cut_at_tags, join_rows_columnar, stack_tagged
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
    return tuple(relation.columns()) if relation.is_columnar else relation.rows_readonly()


def stacked(name: str, attributes: tuple[str, ...], fragments: list) -> Relation | None:
    """A chunk's fragments of one relation as one, server-major behind the
    tag attribute (:func:`stack_tagged`; ``None`` where they do not stack)."""
    columns = stack_tagged(fragments)
    lead = (TAG,) if len(fragments) > 1 else ()
    return None if columns is None else Relation.from_columns(name, lead + attributes, columns)


def chunk_step(payloads: list, fused, one_pass, by_rows) -> list:
    """A chunk's local step: ``one_pass`` over all its ``fused`` (columns-only)
    payloads — the chunk, not the server, is the unit of local work. Where
    they cannot be stacked as one (``None``: a column's dtype differs between
    servers) each is passed alone; what does not pass alone, and every row
    payload, goes ``by_rows``."""
    at = [i for i, payload in enumerate(payloads) if fused(payload)]
    passed = one_pass([payloads[i] for i in at]) if at else []
    if passed is None:  # (a chunk of one has just been tried alone)
        alone = [(i, one_pass([payloads[i]])) for i in at if len(at) > 1]
        results = {i: result[0] for i, result in alone if result is not None}
    else:
        results = dict(zip(at, passed))
    return [results[i] if i in results else by_rows(p) for i, p in enumerate(payloads)]


def join_fragment_chunk(payloads: list, common) -> list:
    """Exec task ``join.fragments``: the local joins of a chunk of servers.

    A payload is both fragments as columns (``l_rows is None``) or both as
    rows. The columnar ones are joined in one pass keyed on ``(server, join
    key)``: ``join_indices`` emits left rows in input order, each one's matches
    in right-row order, and a tagged row only meets rows of its own server, so
    the output *is* the per-server outputs, concatenated. The inline path (a
    chunk is all p servers) and the process backend's workers (a contiguous
    range each) share it verbatim: their outputs are byte-identical.
    """
    left_name, left_schema, right_name, right_schema = common
    shared = left_schema.common(right_schema)

    def one_pass(chunk: list) -> list | None:
        left = stacked(left_name, left_schema.attributes, [p[1] for p in chunk])
        right = stacked(right_name, right_schema.attributes, [p[3] for p in chunk])
        if left is None or right is None:
            return None
        return cut_at_tags(left.join(right).columns(), len(chunk))

    def by_rows(payload: tuple) -> "list | tuple":
        l_rows, l_cols, r_rows, r_cols = payload
        if l_rows is None:
            l_rows, r_rows = zip_rows(l_cols), zip_rows(r_cols)
        if shared:
            extra = [a for a in right_schema.attributes if a not in left_schema]
            return join_rows_columnar(
                l_rows, r_rows, left_schema.indices(shared), right_schema.indices(shared),
                right_schema.indices(extra),
            )
        # A product: no key to code.
        l_rel = Relation.wrap(left_name, left_schema, l_rows)
        r_rel = Relation.wrap(right_name, right_schema, r_rows)
        return step_result(l_rel.join(r_rel))

    def fused(payload: tuple) -> bool:  # (a product has no key to tag, and emits rows)
        return payload[0] is None and bool(shared)

    return chunk_step(payloads, fused, one_pass, by_rows)


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
    common = (left.name, left.schema, right.name, right.schema)
    server.append_result(out_fragment, join_fragment_chunk([payload], common)[0])


def _local_joins(cluster, left_fragment, right_fragment, left, right, out_fragment, run):
    """Every server's local join: build the payloads (counted by shape),
    ``run(payloads, common)`` them, store each result on its server."""
    payloads = [
        _take_join_inputs(server, left_fragment, right_fragment)
        for server in cluster.servers
    ]
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
    :func:`join_fragment_chunk` either way.
    """
    _local_joins(
        cluster, left_fragment, right_fragment, left, right, out_fragment,
        lambda payloads, common: cluster.map_servers("join.fragments", payloads, common),
    )
