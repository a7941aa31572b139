"""Cardinality and skew statistics feeding the plan chooser.

The tutorial's algorithms all branch on a handful of data statistics:
relation sizes, the degree profile of the join keys (heavy hitters), and
the expected output size. A real engine maintains these as sketches;
the simulator computes them exactly by default — the *decisions* they
drive are what the planner reproduces. For the optimizer
(:mod:`repro.planner.optimizer`) this module also provides per-relation
and per-query statistics with the paper's heavy-hitter rule ("Skew in
Parallel Query Processing", arXiv:1401.1872): a value is a heavy hitter
in relation R iff its frequency *exceeds* m/p, with m = |R| — the
threshold is relative to the relation it appears in, not to the combined
input. :func:`relation_statistics` optionally estimates the degree
profile from a uniform row sample, modelling the sketch a real engine
would maintain.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from repro.data.relation import Relation
from repro.errors import DecompositionError
from repro.joins.base import estimate_join_size
from repro.kernels.columnar import column_of, concatenated
from repro.kernels.memo import Later, OnRead, counts_at, degree_view, grouped, ordered
from repro.query.shape import shape


@dataclass(frozen=True)
class JoinStatistics:
    """Statistics of one binary natural join R ⋈ S."""

    r_size: int
    s_size: int
    shared: tuple[str, ...]
    out_size: int
    max_degree_r: int
    max_degree_s: int

    @property
    def in_size(self) -> int:
        return self.r_size + self.s_size

    def has_heavy_hitter(self, p: int) -> bool:
        """Whether some join value is heavy at the paper's per-relation m/p
        threshold: its frequency strictly exceeds |R|/p (or |S|/p), *not*
        IN/p — |R|/p copies already overload a hash server relative to R's
        fair share, however large the other relation is."""
        return self.max_degree_r > self.r_size / p or self.max_degree_s > self.s_size / p


def join_statistics(r: Relation, s: Relation) -> JoinStatistics:
    """Exact statistics of R ⋈ S (a real system would estimate these), read
    from the degree views of the shared key."""
    shared = r.schema.common(s.schema)
    return JoinStatistics(len(r), len(s), shared, estimate_join_size(r, s), *(
        int(degree_view(rel, rel.schema.indices(shared))[1].max(initial=0)) for rel in (r, s)
    ))


# ------------------------------------------------------- optimizer statistics


@dataclass(frozen=True)
class RelationStats:
    """One relation's cardinality and per-attribute degree profile.

    ``heavy`` maps each profiled attribute to its heavy-hitter values —
    the values whose (possibly sample-estimated) frequency strictly
    exceeds |R|/p. ``max_degree`` maps each attribute to the largest
    single-value frequency. When built from a sample both are estimates
    scaled back to the full cardinality.
    """

    name: str
    size: int
    heavy: Mapping[str, tuple] = field(default_factory=dict)
    max_degree: Mapping[str, int] = field(default_factory=dict)
    sampled: bool = False

    def heavy_values(self, attribute: str) -> tuple:
        return self.heavy.get(attribute, ())


def relation_statistics(
    rel: Relation,
    p: int,
    attributes: tuple[str, ...] | None = None,
    sample: int | None = None,
    seed: int = 0,
) -> RelationStats:
    """Degree statistics of ``rel`` at the paper's m/p heavy threshold.

    Exact by default; with ``sample`` set, degrees are counted on a
    uniform ``sample``-row subset and scaled by m/sample — the sketch a
    real engine would maintain (arXiv:1401.1872 detects heavy hitters
    from exactly such a sample, with the usual Chernoff confidence).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    attrs = tuple(attributes) if attributes is not None else tuple(rel.schema.attributes)
    m = len(rel)
    sampled = sample is not None and 0 < sample < m
    # The positions sample(list(rows), k) would draw its rows from.
    positions = random.Random(seed).sample(range(m), sample) if sampled else None
    heavy, max_degree = {}, {}
    for attr in attrs:
        index = rel.schema.index(attr)
        view = grouped([rel.columns()[index][positions]]) if sampled else degree_view(rel, (index,))
        (keys,), counts = view
        estimates = counts * (m / sample if sampled else 1.0)
        heavy[attr] = tuple(ordered(keys[estimates > m / p].tolist()))
        max_degree[attr] = int(round(float(estimates.max(initial=0))))
    return RelationStats(rel.name, m, heavy, max_degree, sampled=sampled)


@dataclass(frozen=True)
class QueryStatistics(OnRead):
    """Everything the cost model reads about one query's input profile.

    ``out_estimate`` is the output size; a cyclic query's is computed on
    first read (:func:`_exact_out`), since no ranking reads it.

    ``heavy_join_values`` maps each *join* variable (shared by ≥ 2
    atoms) to the union of the heavy values found for it in any atom's
    relation — each tested against its own relation's m/p threshold.
    ``max_joint_degree`` is the largest total frequency (summed across
    the atoms sharing the variable) of any single value on any join
    variable: a hard floor on hash-partitioned load, because every tuple
    carrying that value meets on one server. ``heavy_joint_degrees``
    keeps, per join variable, each heavy value's joint degree — what the
    skew-handling strategies need to price their per-value grid
    products.
    """

    _deferred = ("out_estimate",)

    p: int
    in_size: int
    out_estimate: int
    sizes: Mapping[str, int]
    heavy_join_values: Mapping[str, tuple]
    max_joint_degree: int
    per_relation: tuple[RelationStats, ...]
    sampled: bool = False
    heavy_joint_degrees: Mapping[str, tuple] = field(default_factory=dict)

    @property
    def skewed(self) -> bool:
        return any(self.heavy_join_values.values())


def _exact_out(query, relations: Mapping[str, Relation]) -> int | Later:
    """The exact output size: an acyclic query's counted by Yannakakis over
    its join tree (the query's :func:`~repro.query.shape.shape` keeps it),
    bottom up (two atoms: Σₖ deg_R(k)·deg_S(k)), in exact integers (Python
    ints past ``int64``); a cyclic query's is its evaluation's, made on
    first read over the relations' columns as they are now — not the
    relations: an ``extend`` after planning moves their columns, not
    these, and a cached plan keeps no input alive."""
    try:
        parent = shape(query).join_tree(query)
    except DecompositionError:
        bound = {a.name: relations[a.name] for a in query.atoms}
        held = {name: (rel.name, rel.schema, tuple(rel.columns())) for name, rel in bound.items()}
        return Later(lambda: len(query.evaluate(
            {name: Relation.from_columns(*columns) for name, columns in held.items()}
        )))
    dtype = object if math.prod(len(relations[a.name]) for a in query.atoms) >> 63 else np.int64
    root = next(name for name, up in parent.items() if up == name)
    return int(_subtree(root, (), parent, relations, dtype)[1].sum())


def _subtree(name: str, on: tuple, parent: Mapping, relations: Mapping[str, Relation], dtype) -> tuple:
    """The degree view over ``on`` of the join of atom ``name``'s subtree. A
    leaf's is its relation's degree view; an inner atom's rows each weigh the
    product of its children's counts at their keys, summed per value of
    ``on`` by one grouping of the rows — never a view over every variable the
    atom shares, whose span no table holds — or left ungrouped with no
    ``on``, since every caller of that view only sums it."""
    rel = relations[name]
    children = [child for child, up in parent.items() if up == name != child]
    if not children:
        keys, counts = degree_view(rel, rel.schema.indices(on))
        return keys, counts.astype(dtype)
    columns, counts = dict(zip(rel.schema.attributes, rel.columns())), np.ones(len(rel), dtype)
    for child in children:
        shared = tuple(v for v in relations[child].schema.attributes if v in rel.schema)
        below = _subtree(child, shared, parent, relations, dtype)
        weight = counts_at(below, [columns[v] for v in shared]) if shared else below[1].sum()
        counts = counts * weight
    return grouped([columns[v] for v in on], counts) if on else ((), counts)


def collect_query_statistics(
    query,
    relations: Mapping[str, Relation],
    p: int,
    out_estimate: int | None = None,
    sample: int | None = None,
    seed: int = 0,
) -> QueryStatistics:
    """Gather :class:`QueryStatistics` for ``query`` over ``relations``.

    ``out_estimate`` defaults to the exact output size (:func:`_exact_out`:
    counted for an acyclic query, evaluated on first read for a cyclic
    one); pass an estimate to model a sketch-based engine. ``sample`` is
    forwarded to :func:`relation_statistics`. A join variable's joint
    degrees are one grouping of its atoms' degree views, by their counts.
    """
    join_vars = tuple(v for v in query.variables if len(query.atoms_with(v)) >= 2)
    rels = [relations[atom.name] for atom in query.atoms]
    per_relation = tuple(
        relation_statistics(rel, p, tuple(v for v in a.variables if v in join_vars), sample, seed)
        for a, rel in zip(query.atoms, rels)
    )
    heavy_joint, max_joint = {}, 0
    for v in join_vars:
        holders = [(r, st) for a, r, st in zip(query.atoms, rels, per_relation) if v in a.variables]
        views = [degree_view(rel, rel.schema.indices((v,))) for rel, _ in holders]
        joint = grouped([concatenated([keys[0] for keys, _ in views])],
                        np.concatenate([counts for _, counts in views]))
        max_joint = max(max_joint, int(joint[1].max(initial=0)))
        heavy = list(dict.fromkeys(x for _, st in holders for x in st.heavy_values(v)))
        degrees = counts_at(joint, [column_of(heavy)]).tolist() if heavy else []
        heavy_joint[v] = tuple(ordered(zip(heavy, degrees), key=itemgetter(0)))
    if out_estimate is None:
        out_estimate = _exact_out(query, relations)
    return QueryStatistics(
        p=p, in_size=sum(map(len, rels)), out_estimate=out_estimate,
        sizes={atom.name: len(rel) for atom, rel in zip(query.atoms, rels)},
        heavy_join_values={v: tuple(x for x, _ in pairs) for v, pairs in heavy_joint.items()},
        max_joint_degree=max_joint, per_relation=per_relation, sampled=sample is not None,
        heavy_joint_degrees=heavy_joint,
    )
