"""The cost-based adaptive planner: every strategy priced, cheapest wins.

Given a conjunctive query, its relation statistics
(:mod:`repro.planner.statistics`, heavy hitters at the m/p threshold of
arXiv:1401.1872), and the server count p, :func:`plan_query` enumerates
the full strategy menu —

- ``broadcast`` / ``hash`` / ``skew`` / ``cartesian`` for two-atom
  queries (the slide 23–32 decision surface, now priced instead of
  ruled);
- ``hypercube`` (one round, L = IN/p^{1/τ*} skew-free; under skew, its hash slices);
- ``skewhc`` (one round, L = IN/p^{1/ψ*} under skew; priced by its residual plan);
- ``gym`` (GHD multi-round, L = O((IN+OUT)/p), r = O(depth)) and
  ``semijoin`` (the vanilla one-node-per-round variant, r = O(#nodes))
  for acyclic connected queries

— predicts max-load L and round count for each from the closed forms of
:mod:`repro.theory.loads`, and picks the cheapest under an L-dominant
cost model with a round-count tiebreak (then a fixed precedence order,
so ties are deterministic). The result is an :class:`ExplainResult`
carrying every candidate's prediction, the statistics used, and the
arXiv:1602.06236 per-round load lower bound L ≥ OUT^{1/ρ*}/(r·p^{1/ρ*})
the predictions can be sanity-checked against. Every prediction also
carries its *conformance envelope* (factor, additive) — the constants
under which ``selftest --planner`` and the x7 bench hold the measured
L_max accountable.

:func:`execute_strategy` runs any executable strategy by name, so
``Engine.query(strategy="auto")`` and an explicitly forced strategy go
through the byte-identical code path.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.joins.broadcast_join import broadcast_join
from repro.joins.cartesian import cartesian_product, predicted_cartesian_load
from repro.joins.hash_join import parallel_hash_join
from repro.joins.skew_join import skew_join
from repro.kernels.memo import Later, OnRead, align, bound, cached_view
from repro.mpc.stats import RunStats
from repro.multiway.gym import gym
from repro.mpc.hashing import HashFamily
from repro.multiway.hypercube import hypercube_join, priced_load
from repro.multiway.skewhc import residual_loads, skewhc_join
from repro.planner.statistics import QueryStatistics, collect_query_statistics
from repro.query.cq import ConjunctiveQuery
# tau_star is not called here, but perfbench's tracer patches it in every
# importer, and perfbench/tests/test_tracing.py:79 checks this one.
from repro.query.fractional import psi_star, tau_star  # noqa: F401
from repro.query.shape import shape
from repro.query.shares import optimal_shares
from repro.theory.lower_bounds import join_load_lower_bound

__all__ = [
    "STRATEGIES",
    "BranchPricing",
    "CandidatePlan",
    "ExplainResult",
    "execute_strategy",
    "plan_and_execute",
    "plan_query",
    "price_branches",
]

# Deterministic tiebreak precedence (also the display order). One-round
# specialists come before the general one-round algorithms, which come
# before the multi-round family, so equal predictions resolve to the
# simplest machinery that achieves them.
STRATEGIES = (
    "scan",
    "broadcast",
    "hash",
    "skew",
    "cartesian",
    "hypercube",
    "skewhc",
    "gym",
    "semijoin",
)


@dataclass(frozen=True)
class CandidatePlan(OnRead):
    """One strategy's applicability verdict and cost prediction.

    SkewHC's ``envelope_additive`` reads OUT, so it is made on first read.
    """

    _deferred = ("envelope_additive",)

    strategy: str
    applicable: bool
    predicted_load: float | None
    predicted_rounds: int | None
    envelope_factor: float = 1.0
    # 0.0 by default, kept off the class so that a Later value is read.
    envelope_additive: float = field(default_factory=float)
    reason: str = ""

    @property
    def envelope(self) -> float | None:
        """The load ceiling ``factor · predicted + additive`` (None if n/a)."""
        if self.predicted_load is None:
            return None
        return self.envelope_factor * self.predicted_load + self.envelope_additive

    def within_envelope(self, measured: float) -> bool:
        """Whether a measured L_max honours this candidate's prediction."""
        ceiling = self.envelope
        return ceiling is not None and measured <= ceiling

    def describe(self) -> str:
        if not self.applicable:
            return f"{self.strategy:<10} inapplicable: {self.reason}"
        note = f"  ({self.reason})" if self.reason else ""
        return (
            f"{self.strategy:<10} L~{self.predicted_load:<9.1f} "
            f"r={self.predicted_rounds}{note}"
        )


@dataclass(frozen=True)
class ExplainResult(OnRead):
    """The optimizer's full decision record for one query.

    ``lower_bound`` reads OUT, so it is made on first read.
    """

    _deferred = ("lower_bound",)

    query: str
    p: int
    chosen: str
    candidates: tuple[CandidatePlan, ...]
    statistics: QueryStatistics
    tau_star: float
    rho_star: float
    psi_star: float | None
    acyclic: bool
    connected: bool
    lower_bound: float

    def candidate(self, strategy: str) -> CandidatePlan:
        for cand in self.candidates:
            if cand.strategy == strategy:
                return cand
        raise KeyError(f"no candidate named {strategy!r}")

    @property
    def chosen_plan(self) -> CandidatePlan:
        return self.candidate(self.chosen)

    @property
    def trace(self) -> tuple[str, ...]:
        """The decision trace, one line per fact (joined by describe())."""
        stats = self.statistics
        heavy = ", ".join(
            f"{var}({len(values)})"
            for var, values in stats.heavy_join_values.items()
            if values
        ) or "none"
        psi = f"{self.psi_star:.2f}" if self.psi_star is not None else "-"
        flag = lambda b: "yes" if b else "no"  # noqa: E731 - local formatter
        lines = [
            f"adaptive plan for {self.query}",
            (
                f"  p={self.p}  IN={stats.in_size}  OUT~{stats.out_estimate}  "
                f"skewed={flag(stats.skewed)}  acyclic={flag(self.acyclic)}  "
                f"connected={flag(self.connected)}"
            ),
            (
                f"  tau*={self.tau_star:.2f}  rho*={self.rho_star:.2f}  "
                f"psi*={psi}  max joint degree={stats.max_joint_degree}  "
                f"heavy join values: {heavy}"
            ),
            f"  lower bound (1 round): L >= {self.lower_bound:.1f}",
            "  candidates:",
        ]
        for cand in self.candidates:
            marker = "  <- chosen" if cand.strategy == self.chosen else ""
            lines.append(f"    {cand.describe()}{marker}")
        chosen = self.chosen_plan
        lines.append(
            f"  chosen: {self.chosen} (predicted L~{chosen.predicted_load:.1f}, "
            f"r={chosen.predicted_rounds}, envelope "
            f"{chosen.envelope_factor:.1f}x + {chosen.envelope_additive:.1f})"
        )
        return tuple(lines)

    def describe(self) -> str:
        """The golden-diffable explain trace."""
        return "\n".join(self.trace)


def _as_query(query: str | ConjunctiveQuery) -> ConjunctiveQuery:
    if isinstance(query, str):
        from repro.query.parser import parse_query

        return parse_query(query)
    return query


def _skew_predicted_load(stats: QueryStatistics, p: int) -> float:
    """The skew-join load prediction from the heavy-value degree profile.

    The executor peels heavy join values onto exclusive grid Cartesian
    products and hash-joins the light residue: a heavy value with a
    d_R x d_S rectangle on a g x h grid loads each server with
    d_R/g + d_S/h — at the optimal grid, 2*sqrt(area/servers). The area
    is estimated from the joint degree as (d/2)^2 (exact when the two
    sides are balanced, an overestimate otherwise — the safe direction),
    and the light residue pays IN_light/p. With no heavy values the
    prediction degenerates to IN/p, tying the plain hash join (which the
    precedence order then prefers).
    """
    joint = [
        degree
        for values in stats.heavy_joint_degrees.values()
        for _, degree in values
    ]
    heavy_area = sum((degree / 2.0) ** 2 for degree in joint)
    light_in = max(stats.in_size - sum(joint), 0)
    return 2.0 * math.sqrt(heavy_area / p) + light_in / p


def _hypercube_predicted_load(
    query: ConjunctiveQuery, relations: Mapping[str, Relation], skewed: bool, p: int, seed: int
) -> float:
    """HyperCube's load on the grid it will run (:func:`optimal_shares`'s
    integral one): the sum of a server's atom fragments, which prices the
    replication the LP ignores, and under skew each atom's heaviest slice
    where the run's hash functions send it (:func:`priced_load`)."""
    sizes = {a.name: len(relations[a.name]) for a in query.atoms}
    shares = optimal_shares(query, sizes, p).integral
    family = HashFamily(seed)
    salts = {v: family.function(i, 1).salt
             for i, v in enumerate(query.variables) if skewed and shares[v] > 1}
    return priced_load(query, relations, shares, salts)


def plan_query(
    query: str | ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    out_estimate: int | None = None,
    sample: int | None = None,
    seed: int = 0,
) -> ExplainResult:
    """Price every applicable strategy and pick the cheapest.

    The cost model is L-dominant: candidates are ranked by predicted
    max-load, then by predicted round count, then by the fixed
    :data:`STRATEGIES` precedence (so equal predictions resolve
    deterministically, independent of atom order). Statistics are
    gathered via
    :func:`~repro.planner.statistics.collect_query_statistics` (exactly,
    or from a ``sample``-row subset per relation).

    The decision is a function of the atoms, the bound relations'
    contents and the four scalars, so it is a memoized view of those
    relations (:func:`repro.kernels.memo.cached_view`): while every one
    is unchanged, a repeat returns the same frozen record
    without gathering statistics or pricing anything. The record is
    shared — read only.
    """
    cq = _as_query(query)
    if p <= 0:
        raise QueryError("the planner needs at least one server")
    if not cq.atoms:
        raise QueryError("cannot plan an empty query")
    return cached_view(
        tuple(bound(relations, atom.name) for atom in cq.atoms),
        ("plan", tuple(cq.atoms), p, out_estimate, sample, seed),
        lambda: _plan(cq, relations, p, out_estimate, sample, seed),
    )


def _plan(
    cq: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    out_estimate: int | None,
    sample: int | None,
    seed: int,
) -> ExplainResult:
    """The un-memoized body of :func:`plan_query`."""
    stats = collect_query_statistics(
        cq, relations, p, out_estimate=out_estimate, sample=sample, seed=seed
    )

    facts = shape(cq)
    tau, rho = facts.tau_star, facts.rho_star
    acyclic, connected = facts.acyclic, facts.connected
    in_size = stats.in_size
    maxdeg = stats.max_joint_degree
    skewed = stats.skewed
    psi = psi_star(cq) if skewed and len(cq.atoms) >= 2 else None
    # Only GYM's price reads OUT, and only an acyclic query (whose OUT is
    # counted) gets one: the bound and SkewHC's envelope read it when read.
    lower = Later(lambda: (
        join_load_lower_bound(stats.out_estimate, rho, p, rounds=1)
        if stats.out_estimate > 0
        else 0.0
    ))

    if len(cq.atoms) == 1:
        scan = CandidatePlan("scan", True, 0.0, 0, 1.0, 0.0, "single atom")
        return ExplainResult(
            str(cq), p, "scan", (scan,), stats, tau, rho, psi,
            acyclic, connected, 0.0,
        )

    atoms = cq.atoms
    two_atoms = len(atoms) == 2
    shared = (
        tuple(sorted(set(atoms[0].variables) & set(atoms[1].variables)))
        if two_atoms
        else ()
    )
    sizes = [stats.sizes[a.name] for a in atoms]
    candidates: list[CandidatePlan] = []

    def add(strategy: str, load: float, rounds: int,
            factor: float, additive: float | Later, reason: str = "") -> None:
        candidates.append(CandidatePlan(
            strategy, True, load, rounds, factor, additive, reason
        ))

    def skip(strategy: str, reason: str) -> None:
        candidates.append(CandidatePlan(strategy, False, None, None, reason=reason))

    # ----- two-atom specialists
    if two_atoms and shared:
        small = min(sizes)
        add("broadcast", float(small), 1, 1.5, 4.0)
        # Hash-partitioning floors at the heaviest joint key degree: all
        # tuples of one value meet on one server regardless of p.
        add("hash", max(in_size / p, float(maxdeg)), 1, 4.0, maxdeg + 8.0)
        skew_load = _skew_predicted_load(stats, p)
        add("skew", skew_load, 1, 6.0, p ** 2 + maxdeg + 8.0)
        skip("cartesian", "the atoms share variables")
    elif two_atoms:
        for name in ("broadcast", "hash", "skew"):
            skip(name, "the atoms share no join variable")
        add("cartesian", predicted_cartesian_load(sizes[0], sizes[1], p), 1, 3.0, 8.0)
    else:
        for name in ("broadcast", "hash", "skew", "cartesian"):
            skip(name, "only applies to two-atom queries")

    # ----- one-round share-based algorithms
    hypercube_load = _hypercube_predicted_load(cq, relations, skewed, p, seed)
    add("hypercube", hypercube_load, 1, 4.0, p + 8.0)
    # On two atoms SkewHC is the skew join (execute_strategy runs it): one price,
    # and the tie goes to the specialist by precedence. On more atoms it is
    # priced by its own plan, which its run then replays.
    try:
        pools = residual_loads(cq, relations, p, seed) if skewed and not two_atoms else []
    except QueryError as err:  # too many heavy combinations to plan
        skip("skewhc", str(err))
    else:
        single = sum(servers == 1 for servers, _ in pools)
        add(
            "skewhc",
            skew_load if skewed and two_atoms
            else max((load for _, load in pools), default=0.0) if skewed
            else hypercube_load,
            1, 6.0,
            Later(lambda: p + 8.0 + math.sqrt(max(stats.out_estimate, 1) / p) + maxdeg),
            f"{single} of {len(pools)} residuals on one-server pools of p={p}" if single else "",
        )

    # ----- multi-round GHD family
    if not acyclic:
        skip("gym", "the query is cyclic (no width-1 GHD)")
        skip("semijoin", "the query is cyclic (no width-1 GHD)")
    elif not connected:
        skip("gym", "the query hypergraph is disconnected")
        skip("semijoin", "the query hypergraph is disconnected")
    else:
        ghd = facts.ghd
        depth = max(ghd.depth, 1)
        nodes = len(ghd.nodes())
        gym_load = (in_size + stats.out_estimate) / p
        add("gym", gym_load, 3 * depth, 6.0, maxdeg + p + 8.0)
        add("semijoin", gym_load, 3 * max(nodes - 1, 1), 6.0, maxdeg + p + 8.0)

    ranked = sorted(
        (c for c in candidates if c.applicable),
        key=lambda c: (
            c.predicted_load, c.predicted_rounds, STRATEGIES.index(c.strategy)
        ),
    )
    if not ranked:
        raise QueryError(f"no strategy applies to {cq}")
    ordered = tuple(
        sorted(candidates, key=lambda c: STRATEGIES.index(c.strategy))
    )
    return ExplainResult(
        str(cq), p, ranked[0].strategy, ordered, stats, tau, rho, psi,
        acyclic, connected, lower,
    )


# ------------------------------------------------------------------ execution


_TWO_WAY_RUNNERS = {
    "broadcast": broadcast_join,
    "hash": parallel_hash_join,
    "skew": skew_join,
    "cartesian": cartesian_product,
}


def execute_strategy(
    query: str | ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    strategy: str,
    seed: int = 0,
) -> tuple[Relation, RunStats]:
    """Run one strategy by name; the output is ``OUT`` in query-variable order.

    This is the single dispatch point shared by ``strategy="auto"`` and
    explicitly forced strategies, so forcing the planner's choice is
    byte-identical to letting it decide. Strategies that cannot execute
    on the query's *shape* (atom count, shared variables, cyclicity)
    raise :class:`~repro.errors.QueryError`; strategies whose *guarantee*
    does not apply (e.g. HyperCube on skewed data) still run.
    """
    cq = _as_query(query)
    atoms = cq.atoms
    if strategy not in STRATEGIES:
        raise QueryError(
            f"unknown strategy {strategy!r} (choose from {', '.join(STRATEGIES)})"
        )
    bindings = {a.name: align(a, bound(relations, a.name)) for a in atoms}
    variables = list(cq.variables)

    if strategy == "scan":
        if len(atoms) != 1:
            raise QueryError("scan applies to single-atom queries only")
        # Always a copy: the input is the caller's own relation.
        return bindings[atoms[0].name].project(variables, name="OUT"), RunStats(p)
    if len(atoms) == 1:
        raise QueryError("single-atom queries only support the 'scan' strategy")

    shared = len(atoms) == 2 and set(atoms[0].variables) & set(atoms[1].variables)
    if strategy == "skewhc" and shared:
        strategy = "skew"  # SkewHC on two atoms is the skew join: one run
    if strategy in _TWO_WAY_RUNNERS:
        if len(atoms) != 2:
            raise QueryError(f"{strategy} applies to two-atom queries only")
        if strategy == "cartesian" and shared:
            raise QueryError("cartesian applies only when the atoms share no variables")
        if strategy != "cartesian" and not shared:
            raise QueryError(f"{strategy} needs a shared join variable")
        left, right = (bindings[a.name] for a in atoms)
        if strategy == "skew":  # at the m/p rule the statistics price
            threshold = (len(left) / p, len(right) / p)
            run = skew_join(left, right, p, seed=seed, threshold=threshold)
        else:
            run = _TWO_WAY_RUNNERS[strategy](left, right, p, seed=seed)
    elif strategy == "hypercube":
        run = hypercube_join(cq, bindings, p, seed=seed)
    elif strategy == "skewhc":
        run = skewhc_join(cq, bindings, p, seed=seed)
    else:  # gym | semijoin
        facts = shape(cq)
        if not facts.acyclic:
            raise QueryError(f"{strategy} needs an acyclic query")
        if not facts.connected:
            raise QueryError(f"{strategy} needs a connected query hypergraph")
        run = gym(
            cq, bindings, p, seed=seed,
            variant="optimized" if strategy == "gym" else "vanilla",
        )
    # The rule memo.align applies to inputs: what already is OUT in
    # query-variable order is returned as is (the run built it, nothing
    # else holds it); only a reordering or a rename pays for a projection.
    output = run.output
    if output.name != "OUT" or output.schema.attributes != cq.variables:
        output = output.project(variables, name="OUT")
    return output, run.stats


@dataclass(frozen=True)
class BranchPricing:
    """The optimizer's verdict on a k-way query split (see repro.service).

    ``explains`` holds one full :class:`ExplainResult` per branch — each
    branch is an independent query over its mod-partition of the split
    relation, so each gets its own statistics, heavy-hitter profile, and
    strategy choice. ``predicted_load`` is the *sum* of the branches'
    chosen predictions: the service executes branches as independent
    engine calls over the same ``p`` simulated servers, so per-server
    load accumulates across branches (the pessimistic, admission-safe
    reading; branches that run on disjoint server pools would cost the
    max instead).
    """

    branches: int
    explains: tuple[ExplainResult, ...]

    @property
    def predicted_load(self) -> float:
        return sum(
            e.chosen_plan.predicted_load or 0.0 for e in self.explains
        )

    @property
    def predicted_rounds(self) -> int:
        return sum(
            e.chosen_plan.predicted_rounds or 0 for e in self.explains
        )

    @property
    def chosen(self) -> tuple[str, ...]:
        return tuple(e.chosen for e in self.explains)


def price_branches(
    query: str | ConjunctiveQuery,
    branch_bindings: Sequence[Mapping[str, Relation]],
    p: int,
    seed: int = 0,
) -> BranchPricing:
    """Price every branch of a split query through the standard planner.

    The service's query splitter partitions one relation into k disjoint
    mod-based fragments; each element of ``branch_bindings`` is the full
    relation map for one branch. Pricing each branch independently is
    what makes the split *adaptive*: a branch that inherits a heavy
    hitter keeps the skew strategy while its uniform siblings drop to
    plain hash joins.
    """
    cq = _as_query(query)
    if not branch_bindings:
        raise QueryError("price_branches needs at least one branch")
    explains = tuple(
        plan_query(cq, bindings, p, seed=seed) for bindings in branch_bindings
    )
    return BranchPricing(len(explains), explains)


def plan_and_execute(
    query: str | ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    seed: int = 0,
    out_estimate: int | None = None,
    strategy: str = "auto",
    sample: int | None = None,
) -> tuple[ExplainResult, str, Relation, RunStats]:
    """Plan, then execute either the chosen or a forced strategy.

    Returns ``(explain, executed_strategy, output, stats)``.
    """
    cq = _as_query(query)
    explain = plan_query(
        cq, relations, p, out_estimate=out_estimate, sample=sample, seed=seed
    )
    executed = explain.chosen if strategy == "auto" else strategy
    output, stats = execute_strategy(cq, relations, p, executed, seed=seed)
    return explain, executed, output, stats
