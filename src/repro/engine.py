"""A small end-to-end facade: register relations, run queries.

Bundles the parser, the statistics/planner, and the algorithm menu into
the object a downstream user actually wants::

    from repro import Engine
    from repro.data import uniform_relation

    engine = Engine(p=16)
    engine.register(uniform_relation("R", ["x", "y"], 1000, 200, seed=1))
    engine.register(uniform_relation("S", ["y", "z"], 1000, 200, seed=2))
    result = engine.query("R(x, y), S(y, z)")
    print(result.output, result.plan, result.stats.summary())

Every query runs one pipeline: bind the atoms to registered relations,
align them to atom order (a memoized view), let the cost-based optimizer
(:func:`repro.planner.optimizer.plan_query`) price every applicable
strategy — broadcast / hash / skew / Cartesian for two atoms, HyperCube,
SkewHC, GYM and the vanilla semijoin plan in general — and execute the
cheapest, or the forced one, through the optimizer's one dispatch
(:func:`~repro.planner.optimizer.plan_and_execute`). The result carries
the output, the run's cost statistics, the full decision record
(``explain``) and ``plan``, a :class:`~repro.planner.two_way.TwoWayPlan`
or :class:`~repro.planner.multiway.MultiwayPlan` view of that record for
the strategy that ran. :func:`run_query` is that pipeline over explicit
bindings; the query service calls it per branch of a split query. Pass
``verify=True`` to cross-check the distributed result against the
single-node oracle (:mod:`repro.testing.oracle`); a disagreement raises
:class:`repro.errors.OracleMismatchError`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.data.relation import Relation
from repro.errors import OracleMismatchError, QueryError
from repro.kernels.memo import align, cached_view, forget
from repro.mpc.stats import MemoStats, RunStats
from repro.planner.multiway import MultiwayPlan
from repro.planner.optimizer import STRATEGIES, ExplainResult, plan_and_execute
from repro.planner.two_way import TwoWayPlan
from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.parser import parse_query
from repro.testing.oracle import multiset_diff, oracle_join


@dataclass
class QueryResult:
    """Output, chosen plan, and cost of one engine query.

    ``plan`` is a view of ``explain`` for the strategy that ran (the
    chosen one, or the forced one), so the two cannot disagree.
    ``align_cache_hits`` counts how many of this query's own
    input-alignment lookups were served from the view cache of
    :mod:`repro.kernels.memo` instead of re-deriving the projection.
    How many of the planner's LPs were actually solved rather than
    served from the value-keyed LP memo is process-wide, not per query:
    read :func:`repro.query.lp.counters`.
    """

    output: Relation
    plan: TwoWayPlan | MultiwayPlan
    stats: RunStats
    align_cache_hits: int = 0
    # The optimizer's full decision record.
    explain: ExplainResult | None = None

    @property
    def load(self) -> int:
        return self.stats.max_load

    @property
    def rounds(self) -> int:
        return self.stats.num_rounds


class Engine:
    """A registry of relations plus a planner-driven query runner."""

    def __init__(self, p: int, seed: int = 0) -> None:
        if p <= 0:
            raise QueryError("the engine needs at least one server")
        self.p = p
        self.seed = seed
        self._relations: dict[str, Relation] = {}

    # --------------------------------------------------------------- catalog

    def register(self, relation: Relation, name: str | None = None) -> None:
        """Add (or replace) a relation under ``name`` (default: its own)."""
        name = name or relation.name
        old = self._relations.get(name)
        if old is not None:
            # Memory hygiene only (identity+token keys already make a stale
            # hit impossible): the replaced — or mutated and re-registered —
            # relation's plans and views would otherwise idle in the LRUs.
            forget(old)
        self._relations[name] = relation

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise QueryError(
                f"no relation {name!r} registered (have {sorted(self._relations)})"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._relations)

    # --------------------------------------------------------------- queries

    def query(self, text_or_query: str | ConjunctiveQuery,
              out_estimate: int | None = None, verify: bool = False,
              strategy: str = "auto") -> QueryResult:
        """Plan and execute a conjunctive query over registered relations.

        ``strategy`` selects the planning path:

        - ``"auto"`` (the default): the cost-based optimizer
          (:mod:`repro.planner.optimizer`) prices every applicable
          strategy and runs the cheapest; the decision record is
          attached as :attr:`QueryResult.explain`;
        - an explicit strategy name (``"hash"``, ``"hypercube"``,
          ``"gym"``, ...): force that strategy through the same dispatch
          the optimizer uses — output is byte-identical to an ``"auto"``
          run that chose it.

        With ``verify=True`` the distributed output is compared — as a
        multiset — against the trusted single-node oracle; a mismatch
        raises :class:`~repro.errors.OracleMismatchError` carrying the
        inspectable bag difference.
        """
        cq, bindings = self._bind(text_or_query)
        result = run_query(cq, bindings, self.p, self.seed, out_estimate, strategy)
        if verify:
            diff = multiset_diff(
                oracle_join(cq, bindings).rows_readonly(),
                result.output.rows_readonly(),
            )
            if diff:
                raise OracleMismatchError(f"engine query {cq}", diff)
        return result

    def oracle(self, text_or_query: str | ConjunctiveQuery) -> Relation:
        """The trusted single-node answer (rows in query-variable order)."""
        return oracle_join(*self._bind(text_or_query))

    def _bind(
        self, text_or_query: str | ConjunctiveQuery
    ) -> tuple[ConjunctiveQuery, dict[str, Relation]]:
        """The parsed query and the registered relation of each atom."""
        if isinstance(text_or_query, str):
            cq = parse_query(text_or_query)
        else:
            cq = text_or_query
        return cq, {a.name: self.relation(a.name) for a in cq.atoms}


def run_query(
    cq: ConjunctiveQuery,
    bindings: Mapping[str, Relation],
    p: int,
    seed: int = 0,
    out_estimate: int | None = None,
    strategy: str = "auto",
) -> QueryResult:
    """Align, plan and execute ``cq`` over ``bindings``: the one pipeline."""
    if strategy != "auto" and strategy not in STRATEGIES:
        raise QueryError(
            f"unknown strategy {strategy!r} (choose 'auto' or one of "
            f"{', '.join(STRATEGIES)})"
        )
    # Per call, so a concurrent query's hits are never reported here.
    counts = MemoStats()
    aligned = {
        atom.name: _align(atom, bindings[atom.name], counts) for atom in cq.atoms
    }
    explain, executed, output, stats = plan_and_execute(
        cq, aligned, p, seed=seed, out_estimate=out_estimate, strategy=strategy
    )
    if len(cq.atoms) <= 2:
        plan = TwoWayPlan.view(explain, executed, *aligned.values())
    else:
        plan = MultiwayPlan.view(explain, executed)
    return QueryResult(output, plan, stats, counts.view_hits, explain)


def _align(atom: Atom, rel: Relation, counts: MemoStats) -> Relation:
    """:func:`repro.kernels.memo.align`, counting in-order inputs too.

    A reordering is the shared view entry the algorithms' own ``align``
    calls hit as well. For a relation already in atom order the engine
    additionally records that it was seen in order (a marker, never the
    relation itself: an entry holding its owner would keep it alive), so
    a repeat of the query over an unchanged catalog reports *every* atom
    as served from the memo — mutating a relation bumps its token and can
    never be served a stale alignment.
    """
    aligned = align(atom, rel, counts)
    if aligned is rel:
        cached_view(rel, ("in-order", atom.variables), lambda: True, counts)
    return aligned
