"""Differential testing of every MPC algorithm against the oracle.

Generates randomized instances (uniform, Zipf-skewed, and graph-shaped,
via :mod:`repro.data`), executes each of the sixteen algorithm entry
points on every instance it applies to — under the conservation audits
of :mod:`repro.mpc.audit` — and compares outputs to the trusted
single-node oracle as multisets. Each execution is also checked against
the tutorial's analytic cost formulas where the theory makes a claim:

- measured ``L`` within a constant factor of the
  :mod:`repro.theory.loads` prediction for that algorithm/profile;
- relational outputs never exceeding the AGM bound
  (:mod:`repro.query.agm`) — a theorem, so any violation is a bug.

The registry :data:`ALGORITHMS` is the canonical list of entry points;
``python -m repro selftest`` (:mod:`repro.testing.selftest`) drives this
module as the repo-wide correctness gate.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.data.generators import (
    matching_relation,
    skewed_relation,
    uniform_relation,
)
from repro.data.graphs import power_law_edges, random_edges, triangle_relations
from repro.data.relation import Relation, Row
from repro.joins.broadcast_join import broadcast_join
from repro.joins.cartesian import cartesian_product, predicted_cartesian_load
from repro.joins.hash_join import parallel_hash_join
from repro.joins.skew_join import skew_join
from repro.joins.sort_join import sort_join
from repro.matmul.multi_round import square_block_matmul
from repro.matmul.one_round import rectangle_block_matmul
from repro.matmul.sql import sql_matmul
from repro.mpc.audit import audited
from repro.mpc.faults import FaultPlan, faulty
from repro.mpc.hashing import splitmix64
from repro.mpc.stats import RunStats
from repro.multiway.binary_plans import binary_join_plan
from repro.multiway.gym import gym
from repro.multiway.hypercube import hypercube_join
from repro.multiway.reduced import reduced_hypercube
from repro.multiway.skewhc import skewhc_join
from repro.planner.statistics import collect_query_statistics
from repro.query.agm import agm_ratio, output_within_agm
from repro.query.cq import ConjunctiveQuery, path_query, star_query, triangle_query
from repro.query.parser import parse_query
from repro.sorting.band_join import band_join
from repro.sorting.multiround import multiround_sort
from repro.sorting.psrs import psrs_sort
from repro.testing.oracle import (
    MultisetDiff,
    matrices_close,
    multiset_diff,
    oracle_band_join,
    oracle_join,
    oracle_matmul,
    oracle_product,
    oracle_sort,
)
from repro.theory.loads import load_conforms, multi_round_load_bound, one_round_load_bound

RELATIONAL_KINDS = ("two_way", "product", "triangle", "path", "star")
KINDS = RELATIONAL_KINDS + ("sort", "band", "matmul")

# Data profiles: ``skewed`` marks the ones whose degree distributions
# void the skew-free analytic claims.
SKEWED_PROFILES = ("zipf", "graph-zipf")


# ------------------------------------------------------------------ instances


@dataclass
class Instance:
    """One randomized workload for the differential harness."""

    kind: str                  # member of KINDS
    profile: str               # "uniform" | "zipf" | "matching" | "graph-*" ...
    p: int
    seed: int
    query: ConjunctiveQuery | None = None
    relations: dict[str, Relation] = field(default_factory=dict)
    items: list = field(default_factory=list)
    epsilon: float = 0.0       # band join window
    matrices: tuple | None = None

    @property
    def label(self) -> str:
        return f"{self.kind}/{self.profile}#{self.seed}(p={self.p})"

    @property
    def in_size(self) -> int:
        if self.kind == "matmul":
            a, b = self.matrices  # type: ignore[misc]
            return a.size + b.size
        if self.kind in ("sort",):
            return len(self.items)
        if self.kind == "band":
            return sum(len(r) for r in self.relations.values())
        return sum(len(r) for r in self.relations.values())

    @property
    def sizes(self) -> dict[str, int]:
        return {name: len(rel) for name, rel in self.relations.items()}

    def max_degree(self) -> int:
        """Largest total degree of any single value on any join attribute.

        A lower bound on L for hash-partitioned rounds (all tuples of one
        value meet at one server), hence the natural additive slack for
        the skew-sensitive conformance checks.
        """
        if self.query is None:
            return 0
        stats = collect_query_statistics(self.query, self.relations, 1, out_estimate=0)
        return stats.max_joint_degree


def _two_way(rng: random.Random, profile: str, p: int, seed: int) -> Instance:
    n = rng.randrange(80, 200)
    if profile == "matching":
        r = matching_relation("R", ["x", "y"], n)
        s = matching_relation("S", ["y", "z"], n)
    elif profile == "zipf":
        s_param = rng.uniform(1.1, 1.6)
        r = skewed_relation("R", ["x", "y"], n, "y", max(n // 4, 8), s_param, seed=seed)
        s = skewed_relation("S", ["y", "z"], n, "y", max(n // 4, 8), s_param, seed=seed + 1)
    else:
        universe = rng.randrange(n // 2, 2 * n)
        r = uniform_relation("R", ["x", "y"], n, universe, seed=seed)
        s = uniform_relation("S", ["y", "z"], n, universe, seed=seed + 1)
    return Instance(
        "two_way", profile, p, seed,
        query=parse_query("R(x, y), S(y, z)"),
        relations={"R": r, "S": s},
    )


def _product(rng: random.Random, profile: str, p: int, seed: int) -> Instance:
    n_r = rng.randrange(8, 30)
    n_s = rng.randrange(8, 30)
    r = uniform_relation("R", ["x", "y"], n_r, 4 * n_r, seed=seed)
    s = uniform_relation("S", ["z", "w"], n_s, 4 * n_s, seed=seed + 1)
    return Instance(
        "product", profile, p, seed,
        query=parse_query("R(x, y), S(z, w)"),
        relations={"R": r, "S": s},
    )


def _triangle(rng: random.Random, profile: str, p: int, seed: int) -> Instance:
    m = rng.randrange(40, 110)
    if profile == "graph-zipf":
        edges = power_law_edges(m, max(m // 2, 8), rng.uniform(1.1, 1.5), seed=seed)
    else:
        edges = random_edges(m, max(m // 2, 8), seed=seed)
    r, s, t = triangle_relations(edges)
    return Instance(
        "triangle", profile, p, seed,
        query=triangle_query(),
        relations={"R": r, "S": s, "T": t},
    )


def _chain_like(rng: random.Random, kind: str, profile: str, p: int, seed: int) -> Instance:
    query = path_query(3) if kind == "path" else star_query(3)
    n = rng.randrange(60, 140)
    relations: dict[str, Relation] = {}
    for index, atom in enumerate(query.atoms):
        attrs = list(atom.variables)
        if profile == "matching":
            relations[atom.name] = matching_relation(atom.name, attrs, n)
        elif profile == "zipf":
            # Skew the join attribute shared with the neighbours.
            key = attrs[0] if kind == "star" else attrs[index > 0]
            relations[atom.name] = skewed_relation(
                atom.name, attrs, n, key, max(n // 3, 8),
                rng.uniform(1.05, 1.3), seed=seed + index,
            )
        else:
            universe = rng.randrange(n // 2, n)
            relations[atom.name] = uniform_relation(
                atom.name, attrs, n, universe, seed=seed + index
            )
    return Instance(kind, profile, p, seed, query=query, relations=relations)


def _sort(rng: random.Random, profile: str, p: int, seed: int) -> Instance:
    n = rng.randrange(150, 400)
    if profile == "zipf":
        universe = max(n // 20, 4)   # heavy duplication
    else:
        universe = 4 * n
    values_rng = random.Random(seed)
    items = [values_rng.randrange(universe) for _ in range(n)]
    return Instance("sort", profile, p, seed, items=items)


def _band(rng: random.Random, profile: str, p: int, seed: int) -> Instance:
    n = rng.randrange(50, 120)
    epsilon = rng.uniform(0.0, 25.0)
    r = uniform_relation("R", ["a", "x"], n, 1000, seed=seed)
    s = uniform_relation("S", ["b", "y"], n, 1000, seed=seed + 1)
    return Instance(
        "band", profile, p, seed,
        relations={"R": r, "S": s},
        epsilon=epsilon,
    )


def _matmul(rng: random.Random, profile: str, p: int, seed: int) -> Instance:
    import numpy as np

    n = rng.randrange(6, 13)
    matrix_rng = np.random.default_rng(seed)
    a = matrix_rng.random((n, n))
    b = matrix_rng.random((n, n))
    if profile == "sparse":
        a = a * (matrix_rng.random((n, n)) < 0.3)
        b = b * (matrix_rng.random((n, n)) < 0.3)
    return Instance("matmul", profile, p, seed, matrices=(a, b))


_SCHEDULE: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("two_way", ("uniform", "zipf", "matching")),
    ("triangle", ("graph-uniform", "graph-zipf")),
    ("path", ("uniform", "zipf", "matching")),
    ("star", ("uniform", "zipf")),
    ("product", ("uniform",)),
    ("sort", ("uniform", "zipf")),
    ("band", ("uniform",)),
    ("matmul", ("uniform", "sparse")),
)

_BUILDERS: dict[str, Callable[[random.Random, str, int, int], Instance]] = {
    "two_way": _two_way,
    "product": _product,
    "triangle": _triangle,
    "path": lambda rng, pr, p, s: _chain_like(rng, "path", pr, p, s),
    "star": lambda rng, pr, p, s: _chain_like(rng, "star", pr, p, s),
    "sort": _sort,
    "band": _band,
    "matmul": _matmul,
}


def generate_instances(
    count: int, seed: int = 0, kinds: Sequence[str] | None = None
) -> list[Instance]:
    """``count`` deterministic randomized instances cycling kind × profile."""
    rng = random.Random(seed)
    pool: list[tuple[str, str]] = [
        (kind, profile)
        for kind, profiles in _SCHEDULE
        for profile in profiles
        if kinds is None or kind in kinds
    ]
    if not pool:
        raise ValueError(f"no instance kinds selected from {kinds!r}")
    instances = []
    for index in range(count):
        kind, profile = pool[index % len(pool)]
        p = rng.choice((4, 8, 16))
        instance_seed = seed * 100_003 + index
        instances.append(_BUILDERS[kind](rng, profile, p, instance_seed))
    return instances


# ---------------------------------------------------------------- references


def reference_output(instance: Instance):
    """The oracle's answer for one instance (rows, list, or matrix)."""
    if instance.kind == "product":
        return oracle_product(instance.relations["R"], instance.relations["S"]).rows()
    if instance.kind in RELATIONAL_KINDS:
        assert instance.query is not None
        return oracle_join(instance.query, instance.relations).rows()
    if instance.kind == "sort":
        return oracle_sort(instance.items)
    if instance.kind == "band":
        return oracle_band_join(
            instance.relations["R"], instance.relations["S"], "a", "b",
            instance.epsilon,
        )
    if instance.kind == "matmul":
        a, b = instance.matrices  # type: ignore[misc]
        return oracle_matmul(a.tolist(), b.tolist())
    raise ValueError(f"unknown instance kind {instance.kind!r}")


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class LoadClaim:
    """An analytic load prediction with its conformance slack."""

    predicted: float
    factor: float
    additive: float

    def conforms(self, measured: float) -> bool:
        return load_conforms(measured, self.predicted, self.factor, self.additive)

    def ratio(self, measured: float) -> float:
        ceiling = self.factor * self.predicted + self.additive
        return measured / ceiling if ceiling else float(measured > 0)


@dataclass
class CaseRun:
    """One algorithm execution: comparable output + measured cost."""

    rows: list[Row] | None
    matrix: object | None
    stats: RunStats
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AlgorithmCase:
    """One entry point: how to run it, where it applies, what it promises."""

    name: str
    family: str                       # "joins" | "multiway" | "sorting" | "matmul"
    kinds: tuple[str, ...]
    run: Callable[[Instance, int], CaseRun]
    claim: Callable[[Instance, CaseRun, int], LoadClaim | None]

    def applies(self, instance: Instance) -> bool:
        return instance.kind in self.kinds


def _join_case(runner) -> Callable[[Instance, int], CaseRun]:
    def run(instance: Instance, seed: int) -> CaseRun:
        result = runner(instance.relations["R"], instance.relations["S"],
                        instance.p, seed=seed)
        return CaseRun(result.output.rows(), None, result.stats)
    return run


def _multiway_case(runner) -> Callable[[Instance, int], CaseRun]:
    def run(instance: Instance, seed: int) -> CaseRun:
        assert instance.query is not None
        result = runner(instance.query, instance.relations, instance.p, seed=seed)
        # Normalize to the query's variable order for the multiset compare.
        rows = result.output.project(list(instance.query.variables)).rows()
        return CaseRun(rows, None, result.stats, dict(result.details))
    return run


def _skew_robust_claim(factor: float):
    """√(OUT/p) + IN/p — the skew join / sort join guarantee on any input."""
    def claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim:
        predicted = math.sqrt(max(out_size, 1) / instance.p) + instance.in_size / instance.p
        additive = instance.p ** 2 + instance.max_degree() + 8
        return LoadClaim(predicted, factor, additive)
    return claim


def _hash_claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim | None:
    if instance.profile in SKEWED_PROFILES:
        return None            # the IN/p promise assumes no heavy hitters
    predicted = instance.in_size / instance.p
    return LoadClaim(predicted, 4.0, instance.max_degree() + 8)


def _broadcast_claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim:
    small = min(len(rel) for rel in instance.relations.values())
    return LoadClaim(float(small), 1.5, 4)


def _cartesian_claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim:
    r, s = instance.relations["R"], instance.relations["S"]
    return LoadClaim(predicted_cartesian_load(len(r), len(s), instance.p), 3.0, 8)


def _one_round_claim(skewed_ok: bool, factor: float):
    """IN/p^{1/τ*} on skew-free data; IN/p^{1/ψ*} when the algorithm
    promises skew resilience (SkewHC); no claim otherwise."""
    def claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim | None:
        assert instance.query is not None
        skewed = instance.profile in SKEWED_PROFILES
        if skewed and not skewed_ok:
            return None
        jobs = run.details.get("jobs")
        if jobs is not None and jobs > instance.p:
            # The IN/p^{1/ψ*} analysis allocates each residual its
            # proportional server share; with more residual jobs than
            # servers some run on a single server and the formula makes
            # no promise (the toy threshold N/p finds "heavy" values
            # even on uniform data at these sizes).
            return None
        predicted = one_round_load_bound(
            instance.query, instance.in_size, instance.p, skewed=skewed
        )
        additive = instance.p + 8.0
        if skewed_ok:
            # SkewHC peels heavy values by measured degree on every
            # profile; residual jobs pay the output-driven product cost.
            additive += math.sqrt(max(out_size, 1) / instance.p) + instance.max_degree()
        return LoadClaim(predicted, factor, additive)
    return claim


def _gym_claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim:
    predicted = multi_round_load_bound(instance.in_size, out_size, instance.p)
    return LoadClaim(predicted, 6.0, instance.max_degree() + instance.p + 8)


def _binary_claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim:
    intermediates = run.details.get("intermediate_sizes", [])
    work = instance.in_size + sum(intermediates) + out_size
    return LoadClaim(work / instance.p, 4.0, instance.max_degree() + instance.p + 8)


def _reduced_claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim | None:
    if instance.profile in SKEWED_PROFILES:
        return None
    assert instance.query is not None
    predicted = (
        one_round_load_bound(instance.query, instance.in_size, instance.p)
        + instance.in_size / instance.p
    )
    return LoadClaim(predicted, 4.0, instance.max_degree() + instance.p + 8)


def _run_psrs(instance: Instance, seed: int) -> CaseRun:
    out, stats = psrs_sort(instance.items, instance.p, seed=seed)
    return CaseRun(out, None, stats)


def _run_multiround(instance: Instance, seed: int) -> CaseRun:
    cap = _multiround_cap(instance)
    out, stats = multiround_sort(instance.items, instance.p, cap, seed=seed)
    return CaseRun(out, None, stats, {"load_cap": cap})


def _multiround_cap(instance: Instance) -> int:
    return max(16, len(instance.items) // instance.p)


def _sort_claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim:
    predicted = len(instance.items) / instance.p
    return LoadClaim(predicted, 4.0, instance.p ** 2 + instance.p + 8)


def _multiround_claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim:
    cap = run.details.get("load_cap", _multiround_cap(instance))
    return LoadClaim(float(cap), 4.0, instance.p ** 2 + instance.p + 8)


def _run_band(instance: Instance, seed: int) -> CaseRun:
    result = band_join(
        instance.relations["R"], instance.relations["S"], "a", "b",
        instance.epsilon, instance.p, seed=seed,
    )
    return CaseRun(result.output.rows(), None, result.stats)


def _band_claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim:
    n = instance.in_size
    predicted = n / instance.p + out_size / instance.p
    # Wide ε-windows replicate items across whole ranges: every item can
    # appear on all p servers in the worst case, bounded by n.
    return LoadClaim(predicted, 6.0, instance.p ** 2 + min(n, 4 * out_size + 64))


def _run_sql_matmul(instance: Instance, seed: int) -> CaseRun:
    a, b = instance.matrices  # type: ignore[misc]
    c, stats = sql_matmul(a, b, instance.p, seed=seed)
    return CaseRun(None, c, stats)


def _sql_matmul_claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim:
    a, b = instance.matrices  # type: ignore[misc]
    n = a.shape[0]
    nonzero = int((a != 0).sum() + (b != 0).sum())
    join_load = nonzero / instance.p + 2 * n
    aggregate_load = n ** 3 / instance.p + n
    return LoadClaim(max(join_load, aggregate_load), 4.0, instance.p + 8)


def _matmul_groups(instance: Instance) -> int:
    a, _ = instance.matrices  # type: ignore[misc]
    return max(2, min(int(math.isqrt(instance.p)), a.shape[0]))


def _run_rectangle(instance: Instance, seed: int) -> CaseRun:
    a, b = instance.matrices  # type: ignore[misc]
    c, stats = rectangle_block_matmul(a, b, _matmul_groups(instance), seed=seed)
    return CaseRun(None, c, stats)


def _rectangle_claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim:
    a, _ = instance.matrices  # type: ignore[misc]
    n = a.shape[0]
    k = _matmul_groups(instance)
    predicted = 2.0 * math.ceil(n / k) * n     # the slide's exact per-server load
    return LoadClaim(predicted, 1.5, 8)


def _square_block_size(instance: Instance) -> int:
    a, _ = instance.matrices  # type: ignore[misc]
    return max(2, a.shape[0] // 3)


def _run_square(instance: Instance, seed: int) -> CaseRun:
    a, b = instance.matrices  # type: ignore[misc]
    c, stats = square_block_matmul(a, b, instance.p, _square_block_size(instance), seed=seed)
    return CaseRun(None, c, stats)


def _square_claim(instance: Instance, run: CaseRun, out_size: int) -> LoadClaim:
    a, _ = instance.matrices  # type: ignore[misc]
    n = a.shape[0]
    bs = _square_block_size(instance)
    h = math.ceil(n / bs)
    replicas = max(1, instance.p // (h * h))
    per_round_products = h * h * replicas
    predicted = 2.0 * bs * bs * math.ceil(per_round_products / instance.p)
    return LoadClaim(predicted, 3.0, 8)


ALGORITHMS: tuple[AlgorithmCase, ...] = (
    # ----- two-way joins
    AlgorithmCase("broadcast_join", "joins", ("two_way",),
                  _join_case(broadcast_join), _broadcast_claim),
    AlgorithmCase("parallel_hash_join", "joins", ("two_way",),
                  _join_case(parallel_hash_join), _hash_claim),
    AlgorithmCase("skew_join", "joins", ("two_way",),
                  _join_case(skew_join), _skew_robust_claim(6.0)),
    AlgorithmCase("sort_join", "joins", ("two_way",),
                  _join_case(sort_join), _skew_robust_claim(8.0)),
    AlgorithmCase("cartesian_product", "joins", ("product",),
                  _join_case(cartesian_product), _cartesian_claim),
    # ----- multiway joins
    AlgorithmCase("hypercube_join", "multiway",
                  ("two_way", "product", "triangle", "path", "star"),
                  _multiway_case(hypercube_join), _one_round_claim(False, 4.0)),
    AlgorithmCase("skewhc_join", "multiway",
                  ("two_way", "product", "triangle", "path", "star"),
                  _multiway_case(skewhc_join), _one_round_claim(True, 6.0)),
    AlgorithmCase("gym", "multiway", ("two_way", "path", "star"),
                  _multiway_case(gym), _gym_claim),
    AlgorithmCase("binary_join_plan", "multiway",
                  ("two_way", "product", "triangle", "path", "star"),
                  _multiway_case(binary_join_plan), _binary_claim),
    AlgorithmCase("reduced_hypercube", "multiway", ("two_way", "path", "star"),
                  _multiway_case(reduced_hypercube), _reduced_claim),
    # ----- sorting
    AlgorithmCase("psrs_sort", "sorting", ("sort",), _run_psrs, _sort_claim),
    AlgorithmCase("multiround_sort", "sorting", ("sort",),
                  _run_multiround, _multiround_claim),
    AlgorithmCase("band_join", "sorting", ("band",), _run_band, _band_claim),
    # ----- matrix multiplication
    AlgorithmCase("sql_matmul", "matmul", ("matmul",),
                  _run_sql_matmul, _sql_matmul_claim),
    AlgorithmCase("rectangle_block_matmul", "matmul", ("matmul",),
                  _run_rectangle, _rectangle_claim),
    AlgorithmCase("square_block_matmul", "matmul", ("matmul",),
                  _run_square, _square_claim),
)


def algorithm(name: str) -> AlgorithmCase:
    """Look up a registered entry point by name."""
    for case in ALGORITHMS:
        if case.name == name:
            return case
    raise KeyError(f"no algorithm case named {name!r}")


# -------------------------------------------------------------------- runner


@dataclass
class DifferentialRecord:
    """The outcome of one (algorithm, instance) execution."""

    algorithm: str
    instance: str
    kind: str
    out_size: int
    max_load: int
    rounds: int
    diff: MultisetDiff | None      # None = numeric compare (matmul)
    matrix_ok: bool = True
    agm_ok: bool = True
    agm_ratio: float = 0.0
    claim: LoadClaim | None = None
    load_ok: bool = True
    error: str | None = None

    @property
    def output_ok(self) -> bool:
        if self.error is not None:
            return False
        if self.diff is not None:
            return not self.diff
        return self.matrix_ok

    @property
    def ok(self) -> bool:
        return self.output_ok and self.agm_ok and self.load_ok

    def describe(self) -> str:
        if self.error is not None:
            return f"{self.algorithm} on {self.instance}: raised {self.error}"
        parts = []
        if self.diff is not None and self.diff:
            parts.append(f"output mismatch ({self.diff.summary()})")
        if self.diff is None and not self.matrix_ok:
            parts.append("matrix mismatch")
        if not self.agm_ok:
            parts.append(f"AGM bound exceeded (ratio {self.agm_ratio:.2f})")
        if not self.load_ok and self.claim is not None:
            parts.append(
                f"load {self.max_load} above {self.claim.factor:.1f}×"
                f"{self.claim.predicted:.1f}+{self.claim.additive:.0f}"
            )
        status = "; ".join(parts) if parts else "ok"
        return f"{self.algorithm} on {self.instance}: {status}"


def fault_plan_for(case_name: str, instance: Instance) -> FaultPlan:
    """The randomized fault plan one (algorithm, instance) pair runs under.

    Derived purely from the instance seed and the algorithm name, so a
    faulty sweep is reproducible and every entry point sees a *different*
    schedule on the same instance (the same plan on every algorithm would
    only exercise the round ordinals they share).
    """
    mix = splitmix64(instance.seed & ((1 << 64) - 1))
    for char in case_name:
        mix = splitmix64(mix ^ ord(char))
    return FaultPlan.random(mix, instance.p)


def run_case(
    case: AlgorithmCase,
    instance: Instance,
    reference=None,
    seed: int | None = None,
    audit: bool = True,
    faults: FaultPlan | None = None,
) -> DifferentialRecord:
    """Execute one entry point on one instance and check every contract.

    With ``faults`` the execution happens inside
    :func:`repro.mpc.faults.faulty`, so the cluster the algorithm builds
    runs under the plan — with recovery enabled the record must
    come out exactly as a fault-free one (same output, same loads, clean
    audit), which is precisely what ``selftest --faults`` asserts.
    """
    from contextlib import nullcontext

    if reference is None:
        reference = reference_output(instance)
    run_seed = instance.seed if seed is None else seed
    try:
        with faulty(faults) if faults is not None else nullcontext():
            if audit:
                with audited():
                    run = case.run(instance, run_seed)
            else:
                run = case.run(instance, run_seed)
    except Exception as exc:  # noqa: BLE001 - the record carries the failure
        return DifferentialRecord(
            case.name, instance.label, instance.kind, 0, 0, 0, None,
            error=f"{type(exc).__name__}: {exc}",
        )

    record = DifferentialRecord(
        case.name, instance.label, instance.kind,
        out_size=len(run.rows) if run.rows is not None else 0,
        max_load=run.stats.max_load,
        rounds=run.stats.num_rounds,
        diff=None,
    )
    if run.rows is not None:
        if instance.kind == "sort":
            # Sorted output is order-sensitive: exact sequence equality.
            record.diff = multiset_diff(
                [(i, v) for i, v in enumerate(reference)],
                [(i, v) for i, v in enumerate(run.rows)],
            )
        else:
            record.diff = multiset_diff(reference, run.rows)
    else:
        record.matrix_ok = matrices_close(reference, run.matrix.tolist())

    if instance.kind in RELATIONAL_KINDS and run.rows is not None:
        assert instance.query is not None
        record.agm_ok = output_within_agm(
            instance.query, instance.sizes, len(run.rows)
        )
        record.agm_ratio = agm_ratio(instance.query, instance.sizes, len(run.rows))

    out_size = len(reference) if isinstance(reference, list) else 0
    record.claim = case.claim(instance, run, out_size)
    if record.claim is not None:
        record.load_ok = record.claim.conforms(run.stats.max_load)
    return record


@dataclass
class DifferentialReport:
    """Aggregated outcome of a differential sweep."""

    records: list[DifferentialRecord] = field(default_factory=list)
    instances: int = 0

    @property
    def failures(self) -> list[DifferentialRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def mismatches(self) -> list[DifferentialRecord]:
        return [r for r in self.records if not r.output_ok]

    @property
    def bound_violations(self) -> list[DifferentialRecord]:
        return [r for r in self.records if r.output_ok and not (r.agm_ok and r.load_ok)]

    @property
    def ok(self) -> bool:
        return not self.failures

    def by_algorithm(self) -> dict[str, list[DifferentialRecord]]:
        grouped: dict[str, list[DifferentialRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.algorithm, []).append(record)
        return grouped


def run_differential(
    instances: Iterable[Instance],
    algorithms: Sequence[AlgorithmCase] = ALGORITHMS,
    audit: bool = True,
    faults: bool = False,
    on_record: Callable[[DifferentialRecord], None] | None = None,
) -> DifferentialReport:
    """Run every applicable entry point on every instance; collect records.

    ``faults=True`` runs each execution under its reproducible randomized
    :class:`~repro.mpc.faults.FaultPlan` (see :func:`fault_plan_for`).
    """
    report = DifferentialReport()
    for instance in instances:
        report.instances += 1
        reference = reference_output(instance)
        for case in algorithms:
            if not case.applies(instance):
                continue
            plan = fault_plan_for(case.name, instance) if faults else None
            record = run_case(
                case, instance, reference=reference, audit=audit, faults=plan
            )
            report.records.append(record)
            if on_record is not None:
                on_record(record)
    return report
