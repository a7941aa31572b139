"""The parent side: spawn measuring children, check them, reduce to metrics.

One *run* of one workload starts ``spec.PROCESSES`` fresh children one
after the other (a traced run: one child), splits the time budget
between them, has the last one replay once more for verification, and
reduces all timed replays to the end-to-end metrics (or the traced
child's spans and counters to the per-layer metrics).

A timed execution counts as failed if it raised, or if its fingerprint
``[rows, L, r, tag]`` differs from the verify replay's; a verify
execution fails if its output differs from the reference. A slot with
any failed execution has infinite latency.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import estimator, spec

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
CHILD_TIMEOUT_S = 150


# Cache-hit counts of one replay that the script fixes: the same in every
# timed replay of every run. (``service.align_cache_hits`` is not one of
# them — every ``extend`` clears the align LRU, so it depends on how the two
# tenants' threads interleave.)
HIT_COUNTERS = (
    "engine.align_hits",
    "memo.partition_hits", "memo.partition_misses",
    "memo.view_hits", "memo.view_misses", "memo.hash_ops_saved",
    "exec.resident_hits", "exec.resident_misses",
    "service.cache.hits", "service.cache.misses",
)


class BenchmarkError(RuntimeError):
    """The benchmark could not run at all (no result is printed)."""


def _spawn(config: dict, hash_seed: int = 0) -> dict:
    """Run one child to completion and load its result file."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env.pop("REPRO_BACKEND", None)      # the workload, not the caller, picks
    OUT.mkdir(exist_ok=True)
    config = dict(config, spawned=time.time())
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", json.dumps(config)],
        cwd=ROOT, env=env, start_new_session=True,
    )
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    exited = None
    try:
        # Wait without reaping: an unreaped child keeps its pid, which is
        # also its process group's id, so the kill below cannot hit a
        # stranger that was given a recycled id.
        while exited is None and time.monotonic() < deadline:
            exited = os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT | os.WNOHANG)
            if exited is None:
                time.sleep(0.05)
    finally:
        # The child leads its own process group: take it (if it still runs:
        # timeout, ^C) and any pool worker it failed to stop down, then reap.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        code = child.wait()
    if exited is None:
        raise BenchmarkError(f"measuring child still ran after {CHILD_TIMEOUT_S} s; killed")
    if code != 0:
        raise BenchmarkError(f"measuring child exited with status {code}")
    with open(config["out"]) as handle:
        result = json.load(handle)
    os.unlink(config["out"])
    return result


def load_sum_under_hash_seed(workload: str, seed: int, hash_seed: int) -> int:
    """``mpc_load_sum`` of one replay in a child with that ``PYTHONHASHSEED``."""
    result = _spawn({
        "workload": workload, "seed": seed, "quick": False, "trace": False,
        "seconds": 0.0, "min_replays": 1, "verify": False,
        "out": str(OUT / f"child_{workload}_{os.getpid()}_hash{hash_seed}.json"),
    }, hash_seed)
    return sum(fp[1] for fp in result["replays"][0]["fingerprints"])


def _children(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> list[dict]:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro package under {ROOT / 'src'}; nothing to measure")
    processes = 1 if trace or quick else spec.PROCESSES
    results = []
    for index in range(processes):
        results.append(_spawn({
            "workload": workload, "seed": seed, "quick": quick, "trace": trace,
            "seconds": seconds / processes, "min_replays": spec.MIN_REPLAYS,
            "verify": index == processes - 1,
            "out": str(OUT / f"child_{workload}_{os.getpid()}_{index}.json"),
        }))
    return results


def _matrix(replays: list[dict], key: str) -> np.ndarray:
    return np.array(
        [[math.nan if v is None else v for v in replay[key]] for replay in replays],
        dtype=float,
    )


def _check(replays: list[dict], verify: dict) -> tuple[np.ndarray, int, list[str]]:
    """Failed-execution mask over (replay, slot), failure count, reasons."""
    expected = verify["fingerprints"]
    bad = np.zeros((len(replays), len(expected)), dtype=bool)
    reasons = [f"slot {slot}: {why}" for slot, why in verify["failed"].items()]
    for row, replay in enumerate(replays):
        for slot, why in replay["errors"].items():
            reasons.append(f"slot {slot}: {why}")
        for slot, (got, want) in enumerate(zip(replay["fingerprints"], expected)):
            if replay["latency_ns"][slot] is None:
                bad[row, slot] = True
            elif got != want:
                bad[row, slot] = True
                reasons.append(f"slot {slot}: fingerprint {got} != verify replay's {want}")
    for slot in verify["failed"]:
        bad[:, int(slot)] = True
    return bad, int(bad.sum()) + len(verify["failed"]), reasons


def run_workload(workload: str, seed: int, seconds: float = spec.RUN_SECONDS,
                 trace: bool = False, quick: bool = False) -> dict:
    """One run: ``{correct, attempted, failed, metrics, info}``."""
    children = _children(workload, seed, seconds, trace, quick)
    last = children[-1]
    slots = last["slots"]
    verify = last["verify"]
    replays = [replay for child in children for replay in child["replays"]]
    checked = replays + (last["trace"]["replays"] if trace else [])
    bad, failed, reasons = _check(checked, verify)
    speed = estimator.speed_factors(_matrix(replays, "probe_ns"))[:, None]
    raw = _matrix(replays, "latency_ns") / 1e6
    raw[bad[: len(replays)]] = math.nan
    latency = raw / speed
    minima = estimator.slot_minimum(latency)
    report = {
        "workload": workload, "seed": seed,
        "correct": failed == 0,
        "attempted": slots * (len(checked) + 1),
        "failed": failed,
        "info": {
            "slots": slots,
            "replays_per_child": [len(child["replays"]) for child in children],
            "p90_slots_beyond": estimator.slots_beyond(slots, 0.9),
            "speed_factor": float(np.median(speed)),
            # one entry per distinct outcome over the timed replays: one, if exact
            "hit_counts": _distinct(
                {name: replay["counters"].get(name, 0) for name in HIT_COUNTERS}
                for replay in replays
            ),
            "failures": reasons[:20],
        },
    }
    if trace:
        metrics = _per_layer(last, raw, minima)
        metrics["harness.speed_factor"] = report["info"]["speed_factor"]
        report["metrics"] = {name: metrics[name] for name, *_ in spec.PER_LAYER}
        report["info"]["trace_file"] = last["trace"]["file"]
        return report

    # CPU is taken per slot, on service_rw (slots overlap) per cycle: either
    # way the intervals tile a replay, so the minima add up to the replay's.
    cpu = float(estimator.slot_minimum(_matrix(replays, "cpu_ns") / speed).sum()) / slots / 1e6
    report["metrics"] = {
        "throughput_ops_s": estimator.throughput(minima / 1e3, last["clients"]),
        "latency_p50_ms": estimator.quantile(minima, 0.5),
        "latency_p90_ms": estimator.quantile(minima, 0.9),
        "cpu_ms_per_op": cpu,
        "peak_rss_mb": max(child["rss_mb"] for child in children),
        # Interference only adds time, to each phase on its own: the sum
        # of per-phase minima over the children is the undisturbed set-up.
        "setup_s": sum(
            min(phase) for phase in zip(*(
                [seconds / _warmup_speed(child) for seconds in child["setup_phases_s"]]
                for child in children
            ))
        ),
        "mpc_load_sum": sum(fp[1] for fp in verify["fingerprints"]),
        "mpc_rounds_sum": sum(fp[2] for fp in verify["fingerprints"]),
    }
    report["info"]["interference_ratio"] = estimator.interference_ratio(raw)
    report["info"]["raw_throughput_ops_s"] = estimator.throughput(
        estimator.slot_minimum(raw) / 1e3, last["clients"]
    )
    return report


def _distinct(items) -> list:
    seen: list = []
    for item in items:
        if item not in seen:
            seen.append(item)
    return seen


def _warmup_speed(child: dict) -> float:
    """Slowdown factor while the child set up: that of its warm-up replay."""
    return float(estimator.speed_factors([child["warmup"]["probe_ns"]])[0])


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _per_layer(child: dict, latency: np.ndarray, minima: np.ndarray) -> dict[str, float]:
    """Every per-layer metric from the traced child's quietest replay."""
    trace = child["trace"]
    slots = child["slots"]
    quiet = trace["quietest"]
    count = quiet["counters"]
    layers = trace["layers_ns"]
    metrics = {
        spec.layer_metric(layer): layers.get(layer, 0) / slots / 1e6
        for layer in spec.TIMED_LAYERS
    }
    traced_ms = sum(v for v in quiet["latency_ns"] if v is not None) / 1e6
    untraced_ms = float(np.nanmin(np.nansum(latency, axis=1)))
    program_us = float(minima[np.isfinite(minima)].sum()) * 1e3
    comm = count.get("mpc.comm_tuples", 0)
    load_rounds = count.get("model.load_rounds", 0)
    metrics.update({
        "planner.load_ratio_max": count.get("planner.load_ratio_max", 0.0),
        "engine.align_hit_rate": _ratio(
            count.get("engine.align_hits", 0),
            count.get("engine.align_lookups", 0) - count.get("engine.align_hits", 0),
        ),
        "mpc.comm_tuples": comm,
        "mpc.rounds": count.get("mpc.rounds", 0),
        "mpc.load_max": count.get("mpc.load_max", 0),
        "kernels.memo.partition_hit_rate": _ratio(
            count.get("memo.partition_hits", 0), count.get("memo.partition_misses", 0)
        ),
        "kernels.memo.view_hit_rate": _ratio(
            count.get("memo.view_hits", 0), count.get("memo.view_misses", 0)
        ),
        "kernels.memo.hash_ops": count.get("memo.hash_ops", 0),
        "kernels.memo.hash_ops_saved": count.get("memo.hash_ops_saved", 0),
        "kernels.memo.plan_entries": count.get("memo.plan_entries", 0),
        "exec.worker_busy_ms_per_op": count.get("exec.worker_seconds", 0.0) * 1e3 / slots,
        "exec.queue_messages": count.get("exec.queue_messages", 0),
        "exec.dispatch_bytes_out": count.get("exec.dispatch_bytes_out", 0),
        "exec.pickle_bytes_out": count.get("exec.pickle_bytes_out", 0),
        "exec.resident_hit_rate": _ratio(
            count.get("exec.resident_hits", 0), count.get("exec.resident_misses", 0)
        ),
        "exec.fallback_dispatches": count.get("exec.fallback_dispatches", 0),
        "exec.inline_fallbacks": count.get("exec.fallbacks", 0),
        "service.cache.hit_rate": _ratio(
            count.get("service.cache.hits", 0), count.get("service.cache.misses", 0)
        ),
        "service.cache.evictions": count.get("service.cache.evictions", 0),
        "service.cache.invalidations": count.get("service.cache.invalidations", 0),
        "service.rejected": count.get("service.rejected", 0),
        "service.align_cache_hits": count.get("service.align_cache_hits", 0),
        "model.us_per_comm_tuple": program_us / comm if comm else 0.0,
        "model.us_per_load_round": program_us / load_rounds if load_rounds else 0.0,
        "harness.interference_ratio": estimator.interference_ratio(latency),
        "harness.raw_p95_ms": estimator.quantile(
            latency[np.isfinite(latency)].tolist(), 0.95
        ),
        "harness.trace_overhead_ratio": traced_ms / untraced_ms,
        "harness.trace_coverage_ratio": sum(layers.values()) / 1e6 / traced_ms,
        "harness.verify_s": child["verify"]["seconds"],
        "harness.datagen_s": child["datagen_s"],
    })
    return metrics
