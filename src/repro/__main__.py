"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # show available experiments
    python -m repro run t3 f5 ...        # run selected experiments
    python -m repro run all              # run everything (minutes)
    python -m repro selftest             # differential correctness gate
    python -m repro serve --clients 8    # concurrent query service + load

Each experiment prints the same rows the tutorial reports; the mapping
from ids to slides lives in DESIGN.md. ``selftest`` validates every
algorithm entry point against the single-node oracle on randomized
instances (see :mod:`repro.testing.selftest`); extra arguments are
forwarded, e.g. ``python -m repro selftest --instances 16``.
"""

from __future__ import annotations

import argparse
import runpy
import sys
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parent.parent.parent / "benchmarks"

_EXPERIMENTS = {
    "t1": "bench_t1_cost_regimes",
    "f1": "bench_f1_load_concentration",
    "f2": "bench_f2_skew_threshold",
    "t2": "bench_t2_cartesian",
    "t3": "bench_t3_skew_join",
    "f3": "bench_f3_triangle",
    "t4": "bench_t4_unequal",
    "f4": "bench_f4_speedup",
    "t5": "bench_t5_skewhc",
    "t6": "bench_t6_rounds",
    "t7": "bench_t7_agm",
    "f5": "bench_f5_hl_semijoin",
    "t8": "bench_t8_gym",
    "f6": "bench_f6_ghd_tradeoff",
    "t9": "bench_t9_sorting",
    "t10": "bench_t10_matmul",
    "f7": "bench_f7_matmul_frontier",
    "t11": "bench_t11_matmul_lb",
    "x1": "bench_x1_extensions",
    "x2": "bench_x2_open_problems",
    "x3": "bench_x3_faults",
    "x7": "bench_x7_planner",
    "ablations": "bench_ablations",
}


def _run_experiment(experiment_id: str) -> None:
    module_name = _EXPERIMENTS[experiment_id]
    path = _BENCH_DIR / f"{module_name}.py"
    if not path.exists():
        print(f"benchmark file not found: {path}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(_BENCH_DIR))
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.path.remove(str(_BENCH_DIR))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the tutorial's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run = sub.add_parser("run", help="run experiments by id (or 'all')")
    run.add_argument("ids", nargs="+", help="experiment ids, e.g. t3 f5, or 'all'")
    sub.add_parser(
        "selftest",
        help="differentially validate every algorithm against the oracle",
        add_help=False,
    )
    sub.add_parser(
        "serve",
        help="run the concurrent query service under a client load",
        add_help=False,
    )
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["selftest"]:
        # Forward everything after the subcommand to the selftest parser
        # (its own --help documents the options).
        from repro.testing.selftest import main as selftest_main

        return selftest_main(argv[1:])
    if argv[:1] == ["serve"]:
        from repro.service.cli import main as serve_main

        return serve_main(argv[1:])
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id, module in _EXPERIMENTS.items():
            print(f"  {experiment_id:<10} {module}")
        return 0

    ids = list(_EXPERIMENTS) if args.ids == ["all"] else args.ids
    unknown = [i for i in ids if i not in _EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        print(f"available: {sorted(_EXPERIMENTS)}", file=sys.stderr)
        return 2
    for experiment_id in ids:
        _run_experiment(experiment_id)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
