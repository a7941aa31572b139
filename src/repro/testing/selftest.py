"""``python -m repro selftest`` — the repo-wide correctness gate.

One command that differentially validates all sixteen algorithm entry
points against the single-node oracle on a budget of randomized
instances (uniform, Zipf-skewed, graph-shaped), runs the metamorphic
checks on a sample of them, and verifies the analytic-bound conformance
(load formulas and the AGM output bound). Exit status 0 means every
check passed; the report table lists per-algorithm outcomes either way.

Intended uses:

- CI gate: ``python -m repro selftest`` (defaults: 120 instances);
- quick local smoke: ``python -m repro selftest --instances 16``;
- debugging one algorithm: ``python -m repro selftest --algorithm
  skew_join --verbose``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.testing.differential import (
    ALGORITHMS,
    DifferentialReport,
    algorithm,
    generate_instances,
    run_differential,
)
from repro.testing.properties import PropertyResult, run_metamorphic


@dataclass
class SelftestReport:
    """Everything one selftest run measured."""

    differential: DifferentialReport
    metamorphic: list[PropertyResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.differential.ok and all(r.ok for r in self.metamorphic)

    @property
    def failures(self) -> list[str]:
        lines = [r.describe() for r in self.differential.failures]
        lines += [r.describe() for r in self.metamorphic if not r.ok]
        return lines

    def summary_table(self) -> str:
        """Per-algorithm rollup of the differential sweep."""
        header = (
            f"{'algorithm':<24} {'runs':>5} {'output':>7} {'agm':>5} "
            f"{'load':>5} {'maxL':>6} {'claim-use':>10}"
        )
        lines = [header, "-" * len(header)]
        for name, records in sorted(self.differential.by_algorithm().items()):
            out_ok = sum(1 for r in records if r.output_ok)
            agm_ok = sum(1 for r in records if r.agm_ok)
            load_ok = sum(1 for r in records if r.load_ok)
            max_load = max((r.max_load for r in records), default=0)
            ratios = [r.claim.ratio(r.max_load) for r in records if r.claim is not None]
            worst = max(ratios, default=0.0)
            lines.append(
                f"{name:<24} {len(records):>5} {out_ok:>3}/{len(records):<3} "
                f"{agm_ok:>5} {load_ok:>5} {max_load:>6} {worst:>9.0%}"
            )
        meta_ok = sum(1 for r in self.metamorphic if r.ok)
        lines.append("-" * len(header))
        lines.append(
            f"instances={self.differential.instances} "
            f"executions={len(self.differential.records)} "
            f"metamorphic={meta_ok}/{len(self.metamorphic)} "
            f"verdict={'PASS' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines)


def run_selftest(
    instances: int = 120,
    seed: int = 0,
    kinds: list[str] | None = None,
    algorithms: list[str] | None = None,
    metamorphic_every: int = 8,
    monotonic_every: int = 24,
    audit: bool = True,
    verbose: bool = False,
    faults: bool = False,
    backend: str | None = None,
) -> SelftestReport:
    """Run the whole harness under one instance budget.

    Every instance goes through the differential sweep; every
    ``metamorphic_every``-th also gets the metamorphic checks and every
    ``monotonic_every``-th the (4-run) load-monotonicity ladder, keeping
    the total execution count proportional to the budget. ``backend``
    forces the execution backend for the whole run (``None`` keeps the
    ambient ``REPRO_BACKEND`` setting).
    ``faults=True`` runs every differential execution under a
    reproducible randomized :class:`~repro.mpc.faults.FaultPlan` with
    recovery enabled and demands the same outputs, loads, and clean
    audits as a fault-free run (metamorphic checks are skipped in this
    mode — their re-runs vary ``p`` and seeds, which would change the
    plans mid-comparison).
    """
    from repro.exec.config import use_backend

    with use_backend(backend):
        return _run_selftest(
            instances, seed, kinds, algorithms,
            0 if faults else metamorphic_every,
            0 if faults else monotonic_every,
            audit, verbose, faults,
        )


def _run_selftest(
    instances: int,
    seed: int,
    kinds: list[str] | None,
    algorithms: list[str] | None,
    metamorphic_every: int,
    monotonic_every: int,
    audit: bool,
    verbose: bool,
    faults: bool = False,
) -> SelftestReport:
    cases = (
        ALGORITHMS
        if algorithms is None
        else tuple(algorithm(name) for name in algorithms)
    )
    workload = generate_instances(instances, seed=seed, kinds=kinds)

    def narrate(record) -> None:
        if verbose:
            print(record.describe())

    differential = run_differential(
        workload, cases, audit=audit, faults=faults,
        on_record=narrate if verbose else None,
    )

    metamorphic: list[PropertyResult] = []
    if metamorphic_every:
        sample = workload[::metamorphic_every]
        metamorphic += run_metamorphic(sample, cases, monotonicity=False)
    if monotonic_every:
        sample = workload[::monotonic_every]
        metamorphic += run_metamorphic(sample, cases, checks=(), monotonicity=True)
    if verbose:
        for result in metamorphic:
            print(result.describe())
    return SelftestReport(differential, metamorphic)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro selftest",
        description="Differentially validate every MPC algorithm against the oracle.",
    )
    parser.add_argument("--instances", type=int, default=120,
                        help="randomized instance budget (default 120)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--kinds", nargs="*", default=None,
                        help="restrict instance kinds (two_way triangle path "
                             "star product sort band matmul)")
    parser.add_argument("--algorithm", action="append", dest="algorithms",
                        default=None, help="restrict to one entry point "
                        "(repeatable)")
    parser.add_argument("--no-metamorphic", action="store_true",
                        help="skip the metamorphic checks")
    parser.add_argument("--no-audit", action="store_true",
                        help="skip the cluster conservation audits")
    parser.add_argument("--verbose", action="store_true",
                        help="print every record as it completes")
    parser.add_argument("--faults", action="store_true",
                        help="run every execution under a reproducible "
                             "randomized fault plan (crashes, stragglers, "
                             "channel faults) with recovery enabled; outputs "
                             "and audits must match the fault-free contract")
    parser.add_argument("--backend", choices=("inline", "process", "both"),
                        default=None,
                        help="force the execution backend, or run the sweep "
                             "under both backends and cross-check outputs, "
                             "loads, and rounds (default: ambient "
                             "REPRO_BACKEND setting)")
    parser.add_argument("--service", action="store_true",
                        help="validate every entry point under concurrent "
                             "execution instead: the full sweep runs once "
                             "serially (audits on) and once across "
                             "--threads barrier-started threads, and every "
                             "concurrent result must be byte-identical to "
                             "its serial twin (see repro.testing.service)")
    parser.add_argument("--threads", type=int, default=4,
                        help="thread count for --service (default 4)")
    parser.add_argument("--planner", action="store_true",
                        help="validate the cost-based optimizer instead: "
                             "auto-planned output must be byte-identical to "
                             "the oracle and to the forced chosen strategy, "
                             "and measured L_max must sit within each "
                             "prediction's constant envelope (see "
                             "repro.testing.planner)")
    args = parser.parse_args(argv)

    if args.service:
        from repro.testing.service import run_service_selftest

        backend_mode = None if args.backend == "both" else args.backend
        from repro.exec.config import use_backend

        with use_backend(backend_mode):
            report = run_service_selftest(
                instances=args.instances if args.instances != 120 else 24,
                threads=args.threads, seed=args.seed, kinds=args.kinds,
                verbose=args.verbose,
            )
        print(report.summary_table())
        if not report.ok:
            print("\nfailures:", file=sys.stderr)
            for line in report.failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        return 0

    if args.planner:
        from repro.testing.planner import run_planner_selftest

        if args.backend == "both":
            status = 0
            for backend_mode in ("inline", "process"):
                print(f"=== planner / backend {backend_mode} ===")
                report = run_planner_selftest(
                    instances=args.instances, seed=args.seed,
                    kinds=args.kinds, verbose=args.verbose, backend=backend_mode,
                )
                print(report.summary_table())
                if not report.ok:
                    for record in report.failures:
                        print(f"  {record.describe()}", file=sys.stderr)
                    status = 1
            return status
        report = run_planner_selftest(
            instances=args.instances, seed=args.seed, kinds=args.kinds,
            verbose=args.verbose, backend=args.backend,
        )
        print(report.summary_table())
        if not report.ok:
            print("\nfailures:", file=sys.stderr)
            for record in report.failures:
                print(f"  {record.describe()}", file=sys.stderr)
            return 1
        return 0

    def run(backend: str | None) -> SelftestReport:
        return run_selftest(
            instances=args.instances,
            seed=args.seed,
            kinds=args.kinds,
            algorithms=args.algorithms,
            metamorphic_every=0 if args.no_metamorphic else 8,
            monotonic_every=0 if args.no_metamorphic else 24,
            audit=not args.no_audit,
            verbose=args.verbose,
            faults=args.faults,
            backend=backend,
        )

    def report_failures(report: SelftestReport) -> None:
        print("\nfailures:", file=sys.stderr)
        for line in report.failures:
            print(f"  {line}", file=sys.stderr)

    if args.backend != "both":
        report = run(args.backend)
        print(report.summary_table())
        if not report.ok:
            report_failures(report)
            return 1
        return 0

    # Both backends: each sweep must pass on its own, and the two must be
    # observationally identical (outputs, loads, and rounds).
    status = 0
    reports = {}
    for backend in ("inline", "process"):
        print(f"=== {backend} ===")
        reports[backend] = report = run(backend)
        print(report.summary_table())
        if not report.ok:
            report_failures(report)
            status = 1
    drift = cross_backend_drift(reports["inline"], reports["process"])
    if drift:
        print("\ninline/process drift:", file=sys.stderr)
        for line in drift:
            print(f"  {line}", file=sys.stderr)
        status = 1
    if status == 0:
        print("no cross-mode drift across the full backend sweep")
    return status


def cross_backend_drift(
    inline: SelftestReport, process: SelftestReport
) -> list[str]:
    """Differences between the inline and process execution backends.

    The backends must be observationally identical, not just load-equal:
    every execution is compared on output size, max load, *and* round
    count (output contents are already differentially validated against
    the oracle inside each sweep, so equal sizes + both oracle-exact
    means equal multisets).
    """
    a_records = inline.differential.records
    b_records = process.differential.records
    if len(a_records) != len(b_records):
        return [
            f"execution counts differ: {len(a_records)} inline, "
            f"{len(b_records)} process"
        ]
    drift = []
    for a, b in zip(a_records, b_records):
        if a.algorithm != b.algorithm or a.instance != b.instance:
            drift.append(
                f"sweep order diverged: {a.algorithm}/{a.instance} inline "
                f"vs {b.algorithm}/{b.instance} process"
            )
        elif (a.out_size, a.max_load, a.rounds) != (
            b.out_size, b.max_load, b.rounds
        ):
            drift.append(
                f"{a.algorithm} on {a.instance}: "
                f"(out={a.out_size}, L={a.max_load}, rounds={a.rounds}) "
                f"inline vs (out={b.out_size}, L={b.max_load}, "
                f"rounds={b.rounds}) process"
            )
    return drift


if __name__ == "__main__":
    raise SystemExit(main())
