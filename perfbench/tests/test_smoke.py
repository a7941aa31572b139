"""``--quick`` end to end, the driver's interface, and failure detection."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import runner, spec

ROOT = Path(__file__).resolve().parents[2]


def _run(*args):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return done, time.perf_counter() - started


@pytest.mark.parametrize("workload", [name for name, _ in spec.WORKLOADS])
def test_quick_smoke_prints_exactly_the_end_to_end_metrics(workload):
    done, seconds = _run("--workload", workload, "--seed", "3", "--quick", "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert seconds < 20
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in spec.END_TO_END]
    for name, unit, _, _ in spec.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert f"{name} " in done.stdout          # printed by name, for people too


def test_quick_trace_prints_exactly_the_per_layer_metrics_and_writes_spans():
    done, seconds = _run("--workload", "service_rw", "--seed", "3", "--quick", "--trace", "1")
    assert done.returncode == 0, done.stderr
    assert seconds < 20
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [name for name, *_ in spec.PER_LAYER]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert 0.95 <= metrics["harness.trace_coverage_ratio"] <= 1.05
    assert metrics["exec.dispatch_ms_per_op"] == 0
    assert 0 < metrics["service.cache.hit_rate"] < 1
    with open(ROOT / "perfbench" / "out" / "trace_service_rw.json") as handle:
        trace = json.load(handle)
    assert trace["fields"] == ["id", "name", "start_ns", "end_ns", "parent", "op", "thread"]
    assert trace["spans"] and trace["meta"]["workload"] == "service_rw"


def test_same_seed_same_inputs_and_exact_metrics():
    first = runner.run_workload("cold_mix", 11, 0.0, quick=True)
    second = runner.run_workload("cold_mix", 11, 0.0, quick=True)
    other = runner.run_workload("cold_mix", 12, 0.0, quick=True)
    for name in spec.EXACT:
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["mpc_load_sum"] != other["metrics"]["mpc_load_sum"]


def test_cache_hit_counts_are_the_same_in_every_timed_replay():
    service = runner.run_workload("service_rw", 5, 0.0, quick=True)["info"]["hit_counts"]
    assert len(service) == 1                      # one distinct outcome
    assert service[0]["service.cache.hits"] > 0 and service[0]["service.cache.misses"] > 0
    warm = runner.run_workload("warm_repeat", 5, 0.0, quick=True)["info"]["hit_counts"]
    assert len(warm) == 1 and warm[0]["engine.align_hits"] > 0
    assert warm[0]["memo.partition_hits"] > 0


def test_fingerprint_mismatch_and_reference_mismatch_are_failed_ops():
    replay = {
        "latency_ns": [10, 20, None], "errors": {"2": "Boom: no"},
        "fingerprints": [[5, 3, 1, "hash"], [7, 4, 1, "skew"], [0, 0, 0, "error"]],
    }
    verify = {
        "fingerprints": [[5, 3, 1, "hash"], [7, 9, 1, "skew"], [2, 2, 1, "gym"]],
        "failed": {"0": "output differs"},
    }
    bad, failed, reasons = runner._check([replay], verify)
    assert bad.tolist() == [[True, True, True]]
    assert failed == 4           # slot 0 verify + its timed run, slot 1 drift, slot 2 error
    assert any("fingerprint" in reason for reason in reasons)


def test_a_child_that_overruns_is_killed_and_reported_as_a_benchmark_error(monkeypatch):
    monkeypatch.setattr(runner, "CHILD_TIMEOUT_S", 0.3)
    started = time.perf_counter()
    with pytest.raises(runner.BenchmarkError, match="still ran"):
        runner.run_workload("cold_mix", 3, 0.0, quick=True)
    assert time.perf_counter() - started < 5


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "cold_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{") and "correct" not in done.stdout
