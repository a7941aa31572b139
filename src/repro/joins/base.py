"""Shared plumbing for the distributed join algorithms.

Every two-way join algorithm follows the same contract: take the two
input relations and a server count, run rounds on a fresh
:class:`~repro.mpc.cluster.Cluster`, and return a :class:`JoinRun`
bundling the (gathered) output relation with the run's cost statistics.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError
from repro.kernels.join import lookup_codes
from repro.kernels.memo import counts_at, degree_view
from repro.mpc.cluster import SERVER, row_bounds, server_column
from repro.mpc.stats import RunStats


@dataclass
class JoinRun:
    """Output and cost of one distributed execution, a join's or a
    multiway plan's (``MultiwayRun`` is this class); ``details`` says how
    a plan ran."""

    output: Relation
    stats: RunStats
    details: dict[str, Any] = field(default_factory=dict)

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
    """Exact |R ⋈ S| = Σ_k deg_R(k)·deg_S(k): a dot product of the memoized
    degree views over their common keys.

    ``keys`` restricts the sum to those join-key values (the skew join
    sizes its heavy part this way). The simulator computes this exactly;
    a real system would use sampled frequency sketches — the quantity, not
    its provenance, is what the planner and the skew join's server
    allocation need. Disjoint schemas share the empty key, which every row
    carries: the sum is |R|·|S|. Past ``int64`` it is summed in Python ints.
    """
    shared = r.schema.common(s.schema)
    if not shared:
        return len(r) * len(s)
    (r_keys, r_counts), s_view = (degree_view(rel, rel.schema.indices(shared)) for rel in (r, s))
    if keys is not None:
        r_counts = r_counts * (lookup_codes(r_keys, list(keys)) >= 0)
    pair = (r_counts, counts_at(s_view, r_keys))
    return int(np.dot(*(c.astype(object) for c in pair) if len(r) * len(s) >> 63 else pair))


def require_join_key(r: Relation, s: Relation) -> tuple[str, ...]:
    """The shared attributes, or an error if the join is a pure product."""
    shared, _schema = join_schemas(r, s)
    if not shared:
        raise QueryError(
            f"{r.name} and {s.name} share no attributes; use the Cartesian "
            f"product algorithm instead"
        )
    return shared


def served(name: str, attributes: tuple[str, ...], table) -> Relation:
    """A chunk's table of one fragment as a relation keyed first on the
    server a row sits on (:data:`~repro.mpc.cluster.SERVER`)."""
    columns, bounds = table
    return Relation.from_columns(name, (SERVER, *attributes), [server_column(bounds), *columns])


def join_fragment_chunk(chunk: list, common) -> tuple:
    """Exec task ``join.fragments``: the local joins of a chunk of servers.

    The chunk is both fragments' tables, joined in one pass keyed on
    ``(server, join key)``: ``join_indices`` emits left rows in input
    order, each one's matches in right-row order, and a row only meets
    rows of its own server, so the output *is* the per-server outputs, in
    server order (a product is the join on the server alone). The inline
    path (a chunk is all p servers) and the process backend's workers (a
    contiguous range each) share it verbatim: their outputs are
    byte-identical.
    """
    left, right = chunk
    left_name, left_schema, right_name, right_schema = common
    columns = served(left_name, left_schema.attributes, left).join(
        served(right_name, right_schema.attributes, right)).columns()
    return columns[1:], row_bounds(columns[0], len(left[1]) - 1)


def local_join(
    cluster, left_fragment: str, right_fragment: str,
    left: Relation, right: Relation, name: str,
) -> Relation:
    """Every server's local join, the computation phase of a shuffle round:
    one local step (:meth:`~repro.mpc.cluster.Cluster.compute`, on the
    backend) that consumes both fragments and returns the joined relation
    ``name``, in server order. ``left`` and ``right`` supply the schemas."""
    columns, _bounds = cluster.compute(
        "join.fragments",
        [(left_fragment, left.schema.arity), (right_fragment, right.schema.arity)],
        (left.name, left.schema, right.name, right.schema),
    )
    return Relation.from_columns(name, join_schemas(left, right)[1], columns)
