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
from repro.kernels.join import TAG, cut_at_tags, lookup_codes, stack_tagged
from repro.kernels.memo import counts_at, degree_view
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


def local_join(
    cluster, left_fragment: str, right_fragment: str,
    left: Relation, right: Relation, out_fragment: str,
) -> None:
    """Every server's local join: one local step
    (:meth:`~repro.mpc.cluster.Cluster.compute`) that consumes both
    fragments and appends each server's result to its ``out_fragment``.
    ``left`` and ``right`` supply only the schemas.

    The computation phase of a shuffle round: with the ``process`` backend
    the per-server joins run on the worker pool (column blocks ride the
    worker's frame); either way :func:`join_fragment_chunk` computes them.
    """
    cluster.compute(
        "join.fragments",
        ((left_fragment, left.schema.arity), (right_fragment, right.schema.arity)),
        (left.name, left.schema, right.name, right.schema),
        out=out_fragment,
    )
