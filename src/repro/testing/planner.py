"""``selftest --planner`` — the optimizer's predicted-vs-measured gate.

Runs :func:`repro.planner.optimizer.plan_query` over the relational
slice of the differential-oracle corpus and holds every decision to
three contracts:

- **oracle byte-identity** — the auto-planned output, sorted, equals the
  single-node oracle's rows exactly (not merely as a multiset summary);
- **forced-strategy identity** — re-running the query while explicitly
  forcing the chosen strategy reproduces the same rows, L_max, and round
  count (``strategy="auto"`` is a pure shortcut, never a different
  executor);
- **envelope conformance** — the measured L_max is within the chosen
  candidate's constant envelope ``factor · predicted + additive``, the
  same slack discipline the differential claims use;

plus an internal-consistency check that the chosen strategy's predicted
load never exceeds any other applicable candidate's (the cost model
actually picked a minimum).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.planner.optimizer import ExplainResult, execute_strategy
from repro.testing.differential import RELATIONAL_KINDS, generate_instances
from repro.testing.oracle import oracle_join


@dataclass
class PlannerRecord:
    """One instance's planner verdicts."""

    instance: str
    kind: str
    chosen: str
    predicted_load: float
    predicted_rounds: int
    envelope: float
    measured_load: int
    measured_rounds: int
    out_size: int
    oracle_identical: bool
    forced_identical: bool
    envelope_ok: bool
    optimal_choice: bool
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.oracle_identical
            and self.forced_identical
            and self.envelope_ok
            and self.optimal_choice
        )

    def describe(self) -> str:
        if self.error is not None:
            return f"{self.instance}: raised {self.error}"
        parts = []
        if not self.oracle_identical:
            parts.append("output differs from the oracle")
        if not self.forced_identical:
            parts.append(f"forcing {self.chosen!r} diverged from auto")
        if not self.envelope_ok:
            parts.append(
                f"measured L {self.measured_load} above envelope "
                f"{self.envelope:.1f} (predicted {self.predicted_load:.1f})"
            )
        if not self.optimal_choice:
            parts.append("a rejected candidate predicted lower load")
        status = "; ".join(parts) if parts else "ok"
        return f"{self.instance}: chose {self.chosen} -> {status}"


@dataclass
class PlannerReport:
    """Aggregated outcome of one planner sweep."""

    records: list[PlannerRecord] = field(default_factory=list)
    instances: int = 0

    @property
    def failures(self) -> list[PlannerRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def ok(self) -> bool:
        return bool(self.records) and not self.failures

    def by_strategy(self) -> dict[str, list[PlannerRecord]]:
        grouped: dict[str, list[PlannerRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.chosen, []).append(record)
        return grouped

    def summary_table(self) -> str:
        header = (
            f"{'chosen strategy':<12} {'runs':>5} {'oracle':>7} {'forced':>7} "
            f"{'envelope':>9} {'optimal':>8} {'worst L/env':>12}"
        )
        lines = [header, "-" * len(header)]
        for name, records in sorted(self.by_strategy().items()):
            oracle_ok = sum(1 for r in records if r.oracle_identical)
            forced_ok = sum(1 for r in records if r.forced_identical)
            env_ok = sum(1 for r in records if r.envelope_ok)
            optimal = sum(1 for r in records if r.optimal_choice)
            worst = max(
                (r.measured_load / r.envelope for r in records if r.envelope > 0),
                default=0.0,
            )
            lines.append(
                f"{name:<12} {len(records):>5} {oracle_ok:>3}/{len(records):<3} "
                f"{forced_ok:>3}/{len(records):<3} {env_ok:>5}/{len(records):<3} "
                f"{optimal:>4}/{len(records):<3} {worst:>11.0%}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"instances={self.instances} failures={len(self.failures)} "
            f"verdict={'PASS' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines)


def check_instance(instance) -> PlannerRecord:
    """Plan, execute, and verify one differential-corpus instance.

    The auto and forced runs both go through the full
    :class:`~repro.engine.Engine` wiring (parser, alignment cache,
    optimizer, dispatch), so this exercises exactly what a user of
    ``Engine.query(strategy="auto")`` gets.
    """
    from repro.engine import Engine

    assert instance.query is not None
    try:
        engine = Engine(instance.p, seed=instance.seed)
        for name, relation in instance.relations.items():
            engine.register(relation, name=name)
        auto = engine.query(instance.query, strategy="auto")
        explain: ExplainResult = auto.explain  # type: ignore[assignment]
        assert explain is not None
        chosen = explain.chosen_plan
        forced = engine.query(instance.query, strategy=explain.chosen)
        # The standalone dispatch must agree with the engine path too.
        direct_out, direct_stats = execute_strategy(
            instance.query, instance.relations, instance.p,
            explain.chosen, seed=instance.seed,
        )
    except Exception as exc:  # noqa: BLE001 - the record carries the failure
        return PlannerRecord(
            instance.label, instance.kind, "?", 0.0, 0, 0.0, 0, 0, 0,
            False, False, False, False,
            error=f"{type(exc).__name__}: {exc}",
        )
    oracle_rows = sorted(oracle_join(instance.query, instance.relations).rows())
    auto_rows = sorted(auto.output.rows())
    forced_identical = (
        auto.output.rows() == forced.output.rows()
        and auto.output.rows() == direct_out.rows()
        and auto.stats.max_load == forced.stats.max_load
        and auto.stats.max_load == direct_stats.max_load
        and auto.stats.num_rounds == forced.stats.num_rounds
        and auto.stats.num_rounds == direct_stats.num_rounds
    )
    auto_stats = auto.stats
    rejected = [
        c for c in explain.candidates
        if c.applicable and c.strategy != explain.chosen
    ]
    optimal = all(
        c.predicted_load is None or chosen.predicted_load <= c.predicted_load
        for c in rejected
    )
    return PlannerRecord(
        instance=instance.label,
        kind=instance.kind,
        chosen=explain.chosen,
        predicted_load=float(chosen.predicted_load or 0.0),
        predicted_rounds=int(chosen.predicted_rounds or 0),
        envelope=float(chosen.envelope or 0.0),
        measured_load=auto_stats.max_load,
        measured_rounds=auto_stats.num_rounds,
        out_size=len(auto_rows),
        oracle_identical=auto_rows == oracle_rows,
        forced_identical=forced_identical,
        envelope_ok=chosen.within_envelope(auto_stats.max_load),
        optimal_choice=optimal,
    )


def run_planner_selftest(
    instances: int = 120,
    seed: int = 0,
    kinds: list[str] | None = None,
    verbose: bool = False,
    backend: str | None = None,
) -> PlannerReport:
    """Sweep the optimizer over the differential corpus's relational slice.

    ``kinds`` defaults to every relational kind; non-relational kinds
    (sort, band, matmul) have no conjunctive query to plan and are
    filtered out if requested.
    """
    from repro.exec.config import use_backend

    selected = [
        k for k in (kinds if kinds is not None else RELATIONAL_KINDS)
        if k in RELATIONAL_KINDS
    ]
    report = PlannerReport()
    workload = generate_instances(instances, seed=seed, kinds=selected)
    with use_backend(backend):
        for instance in workload:
            report.instances += 1
            record = check_instance(instance)
            report.records.append(record)
            if verbose:
                print(record.describe())
    return report
