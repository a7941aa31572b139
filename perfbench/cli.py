"""``python -m perfbench``: run the workloads, print every metric by name.

With ``--workload W`` exactly one run is made — untraced (the eight
end-to-end metrics) or, with ``--trace 1``, traced (the per-layer
metrics) — and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Without it every
workload is run in turn (``--trace`` adds the traced run to each).
The exit status is non-zero if any op failed or any output differed
from the reference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from perfbench import runner, spec


def _print_report(report: dict) -> None:
    info = report["info"]
    print(
        f"# {report['workload']} seed={report['seed']} slots={info['slots']} "
        f"({info['p90_slots_beyond']} beyond p90) "
        f"timed replays per child={info['replays_per_child']} "
        f"executions={report['attempted']} failed={report['failed']}"
    )
    for name, value in report["metrics"].items():
        print(f"{report['workload']:<13} {name:<36} {value:>16.6g} {spec.UNITS[name]}")
    if "interference_ratio" in info:
        print(f"# {report['workload']} raw/min interference ratio "
              f"{info['interference_ratio']:.3f}, machine speed factor "
              f"{info['speed_factor']:.3f}, throughput before speed normalisation "
              f"{info['raw_throughput_ops_s']:.4g} 1/s")
    for counts in info["hit_counts"]:
        print(f"# {report['workload']} cache-hit counts of "
              f"{'every' if len(info['hit_counts']) == 1 else 'SOME'} timed replay: "
              + ", ".join(f"{key} {value}" for key, value in counts.items() if value))
    if "trace_file" in info:
        print(f"# {report['workload']} spans written to {info['trace_file']}")
    for reason in info["failures"]:
        print(f"# FAILED {reason}")


def _machine_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": spec.UNITS[name]}
            for name, value in report["metrics"].items()
        },
    })


RAW = "raw_throughput_ops_s"
HASH_SEEDS = (0, 2, 3)     # 2 is where GYM's set-order dependence shows at HEAD


def check_determinism(seed: int) -> int:
    """Replay ``cold_mix`` once under several hash seeds; L must not move."""
    sums = {}
    for hash_seed in HASH_SEEDS:
        sums[hash_seed] = runner.load_sum_under_hash_seed("cold_mix", seed, hash_seed)
        print(f"cold_mix PYTHONHASHSEED={hash_seed} mpc_load_sum {sums[hash_seed]} tuples")
    same = len(set(sums.values())) == 1
    print("mpc_load_sum is " + ("identical" if same else "DIFFERENT") + " across hash seeds")
    return 0 if same else 1


def repeatability(seed: int, sets: int = 2, runs: int = 5) -> int:
    """Two sets of default invocations of the same code must agree.

    Every run uses the same seed, so the spreads are the machine's and the
    exact metrics and cache-hit counts must be the same in all of them.
    """
    names = [name for name, _ in spec.WORKLOADS]
    values: dict[tuple[str, str], list[list[float]]] = {}
    hits: dict[str, list[list[dict]]] = {name: [] for name in names}
    ratios: list[float] = []
    for batch in range(sets):
        for run in range(runs):
            for workload in names:
                report = runner.run_workload(workload, seed)
                if not report["correct"]:
                    _print_report(report)
                    return 1
                ratios.append(report["info"]["interference_ratio"])
                hits[workload].append(report["info"]["hit_counts"])
                metrics = dict(report["metrics"], **{RAW: report["info"][RAW]})
                for metric, value in metrics.items():
                    values.setdefault((workload, metric), [[] for _ in range(sets)])[
                        batch
                    ].append(value)
            print(f"# set {batch + 1} run {run + 1} done", file=sys.stderr)

    def spread(sample: list[float]) -> float:
        low, _, high = statistics.quantiles(sample, n=4)
        return (high - low) / statistics.median(sample)

    worst = 0
    print("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name, _, better, bound in spec.END_TO_END:
        for workload in names:
            first, second = values[workload, name][:2]
            a, b = statistics.median(first), statistics.median(second)
            worse = (b - a) / a if better == "lower" else (a - b) / a
            ok = len(set(first + second)) == 1 if name in spec.EXACT else worse <= bound
            worst += not ok
            print(f"| {workload} | {name} | {a:.6g} | {b:.6g} | {worse:+.2%} | "
                  f"{spread(first):.2%} | {spread(second):.2%} | "
                  f"{'exact' if name in spec.EXACT else format(bound, '.0%')} | "
                  f"{'ok' if ok else 'FAIL'} |")
    print()
    for workload in names:      # what the speed normalisation is there for; not gated
        first, second = values[workload, RAW][:2]
        a, b = statistics.median(first), statistics.median(second)
        print(f"{workload}: throughput before the speed normalisation {a:.4g} / {b:.4g} 1/s, "
              f"B worse by {(a - b) / a:+.2%}, spread {spread(first):.2%} / {spread(second):.2%}")
    for workload in names:
        first = hits[workload][0]
        same = len(first) == 1 and all(counts == first for counts in hits[workload])
        worst += not same
        print(f"{workload}: cache-hit counts of a replay "
              f"{'identical in every replay of' if same else 'DIFFER over'} "
              f"all {len(hits[workload])} runs: "
              + ", ".join(f"{key} {value}" for key, value in first[0].items() if value))
    print(f"harness.interference_ratio over all runs: "
          f"{min(ratios):.3f} to {max(ratios):.3f}")
    return 1 if worst else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    parser.add_argument("--workload", choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="timed-replay budget of one run (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 16 slots, 1 process, 2 timed replays")
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--repeatability", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.check_determinism:
            return check_determinism(args.seed)
        if args.repeatability:
            return repeatability(args.seed)
        seconds = 0.0 if args.quick else args.seconds
        if args.workload:
            report = runner.run_workload(
                args.workload, args.seed, seconds, bool(args.trace), args.quick
            )
            _print_report(report)
            print(_machine_line(report))
            return 0 if report["correct"] else 1
        status = 0
        for workload, _ in spec.WORKLOADS:
            for trace in (False, True) if args.trace else (False,):
                report = runner.run_workload(workload, args.seed, seconds, trace, args.quick)
                _print_report(report)
                status |= not report["correct"]
        return status
    except runner.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
