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

import random
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.data.relation import Relation
from repro.kernels.memo import key_degrees, value_degrees


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
        """Whether some join value is heavy at the paper's m/p threshold.

        arXiv:1401.1872's rule is per relation: a value is heavy in R iff
        its frequency strictly exceeds |R|/p (and likewise for S). The
        threshold is *not* IN/p — a value occurring |R|/p times already
        overloads its hash server relative to R's fair share even when
        the other relation is much larger.
        """
        return (
            self.max_degree_r > self.r_size / p
            or self.max_degree_s > self.s_size / p
        )


def join_statistics(r: Relation, s: Relation) -> JoinStatistics:
    """Exact statistics of R ⋈ S (a real system would estimate these)."""
    shared = r.schema.common(s.schema)
    if len(shared) == 1:  # the value-degree views the query profile reads
        r_degrees, s_degrees = (value_degrees(rel, shared[0]) for rel in (r, s))
    else:
        r_degrees, s_degrees = (
            key_degrees(rel, rel.schema.indices(shared)) for rel in (r, s)
        )
    return JoinStatistics(
        r_size=len(r),
        s_size=len(s),
        shared=shared,
        out_size=sum(count * s_degrees[k] for k, count in r_degrees.items()),
        max_degree_r=max(r_degrees.values(), default=0),
        max_degree_s=max(s_degrees.values(), default=0),
    )


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
    threshold = m / p
    heavy: dict[str, tuple] = {}
    max_degree: dict[str, int] = {}
    sampled = sample is not None and 0 < sample < m
    if sampled:
        assert sample is not None
        rows = random.Random(seed).sample(list(rel.rows_readonly()), sample)
        scale = m / sample
    else:
        scale = 1.0
    for attr in attrs:
        if sampled:
            index = rel.schema.indices((attr,))[0]
            degrees = Counter(row[index] for row in rows)
        else:
            degrees = value_degrees(rel, attr)
        estimates = {value: count * scale for value, count in degrees.items()}
        heavy[attr] = tuple(
            sorted(v for v, est in estimates.items() if est > threshold)
        )
        max_degree[attr] = int(round(max(estimates.values(), default=0)))
    return RelationStats(rel.name, m, heavy, max_degree, sampled=sampled)


@dataclass(frozen=True)
class QueryStatistics:
    """Everything the cost model reads about one query's input profile.

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


def _exact_out(query, relations: Mapping[str, Relation]) -> int:
    """The exact output size; two atoms are counted, never materialised.

    |R ⋈ S| = Σₖ deg_R(k)·deg_S(k), as :func:`join_statistics` counts it:
    over the value-degree views the profile has just read when one
    variable joins the atoms, else over the key-degree views (|R|·|S|
    for disjoint schemas).
    """
    if len(query.atoms) != 2:
        return len(query.evaluate(relations))
    return join_statistics(*(relations[atom.name] for atom in query.atoms)).out_size


def collect_query_statistics(
    query,
    relations: Mapping[str, Relation],
    p: int,
    out_estimate: int | None = None,
    sample: int | None = None,
    seed: int = 0,
) -> QueryStatistics:
    """Gather :class:`QueryStatistics` for ``query`` over ``relations``.

    ``out_estimate`` defaults to the exact output size (counted from the
    memoized degree views for two atoms, evaluated for three or more);
    pass an estimate to model a sketch-based engine. ``sample`` is
    forwarded to :func:`relation_statistics`.
    """
    join_vars = tuple(
        v for v in query.variables if len(query.atoms_with(v)) >= 2
    )
    per_relation = []
    heavy_join: dict[str, set] = {v: set() for v in join_vars}
    joint_degree: dict[tuple, int] = {}
    for atom in query.atoms:
        rel = relations[atom.name]
        profiled = tuple(v for v in atom.variables if v in join_vars)
        stats = relation_statistics(
            rel, p, attributes=profiled, sample=sample, seed=seed
        )
        per_relation.append(stats)
        for variable in profiled:
            heavy_join[variable].update(stats.heavy_values(variable))
            for value, count in value_degrees(rel, variable).items():
                key = (variable, value)
                joint_degree[key] = joint_degree.get(key, 0) + count
    if out_estimate is None:
        out_estimate = _exact_out(query, relations)
    heavy_joint = {
        v: tuple(
            (value, joint_degree[(v, value)]) for value in sorted(heavy_join[v])
        )
        for v in join_vars
    }
    return QueryStatistics(
        p=p,
        in_size=sum(len(relations[a.name]) for a in query.atoms),
        out_estimate=out_estimate,
        sizes={a.name: len(relations[a.name]) for a in query.atoms},
        heavy_join_values={v: tuple(sorted(s)) for v, s in heavy_join.items()},
        max_joint_degree=max(joint_degree.values(), default=0),
        per_relation=tuple(per_relation),
        sampled=sample is not None,
        heavy_joint_degrees=heavy_joint,
    )
