"""Every benchmark experiment runs end-to-end at a tiny size.

The ``benchmarks/bench_*.py`` modules double as the paper's tables and
figures; nothing else executes their experiment functions under pytest
(the tier-1 suite only collects ``tests/``). This module imports each one
and calls its experiment entry points with the smallest sizes they
support, so a refactor that breaks a benchmark is caught before a
release run. The sweep is marked ``slow`` (~half a minute); the
inventory check and the x7 gate regression are tier-1.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

# (module, callable, kwargs) — tiny sizes where the experiment accepts
# them, defaults where it is already fast. bench_f1 requires n to be a
# multiple of its fixed degree of 256.
EXPERIMENTS = [
    ("bench_t1_cost_regimes", "run_experiment", {"n": 64}),
    ("bench_f1_load_concentration", "run_experiment", {"n": 512}),
    ("bench_f2_skew_threshold", "run_experiment", {}),
    ("bench_t2_cartesian", "run_experiment", {}),
    ("bench_t3_skew_join", "run_experiment", {}),
    ("bench_f3_triangle", "run_experiment", {"n": 64}),
    ("bench_t4_unequal", "run_experiment", {}),
    ("bench_f4_speedup", "run_experiment", {"n": 64}),
    ("bench_t5_skewhc", "residual_table", {}),
    ("bench_t5_skewhc", "run_measurement", {"n": 64}),
    ("bench_t6_rounds", "analytic_table", {}),
    ("bench_t6_rounds", "run_two_path_measurement", {}),
    ("bench_t7_agm", "run_experiment", {}),
    ("bench_f5_hl_semijoin", "run_experiment", {}),
    ("bench_t8_gym", "run_experiment", {}),
    ("bench_f6_ghd_tradeoff", "star_experiment", {}),
    ("bench_f6_ghd_tradeoff", "path_experiment", {}),
    ("bench_t9_sorting", "psrs_experiment", {"n": 512}),
    ("bench_t9_sorting", "multiround_experiment", {"n": 512}),
    # t10 slices n into fixed block sizes (12, 6, 4): n must divide them all.
    ("bench_t10_matmul", "run_experiment", {"n": 12}),
    ("bench_t11_matmul_lb", "run_experiment", {"n": 8}),
    ("bench_f7_matmul_frontier", "run_experiment", {"n": 8}),
    ("bench_x1_extensions", "rectangular_experiment", {}),
    ("bench_x1_extensions", "sparse_experiment", {}),
    ("bench_x1_extensions", "planner_experiment", {}),
    ("bench_x1_extensions", "groupby_experiment", {}),
    ("bench_x1_extensions", "reduced_experiment", {}),
    ("bench_x2_open_problems", "spider_exponents", {}),
    ("bench_x2_open_problems", "scalability_table", {}),
    ("bench_x2_open_problems", "blowup_experiment", {}),
    ("bench_x3_faults", "recovery_overhead_experiment",
     {"rates": (0.0, 0.2), "n_join": 400, "n_tri": 300}),
    ("bench_x3_faults", "checkpoint_interval_experiment",
     {"n": 400, "depth": 4, "intervals": (1, 4)}),
    ("bench_x7_planner", "planner_experiment", {"quick": True}),
    ("bench_ablations", "share_rounding_ablation", {}),
    ("bench_ablations", "threshold_ablation", {}),
    ("bench_ablations", "psrs_sampling_ablation", {}),
    ("bench_ablations", "ghd_flatten_ablation", {}),
]


@pytest.fixture(scope="module", autouse=True)
def _bench_on_path():
    sys.path.insert(0, str(_BENCH_DIR))
    try:
        yield
    finally:
        sys.path.remove(str(_BENCH_DIR))


def test_every_experiment_module_is_covered():
    """Each bench_* module contributes at least one smoke entry."""
    covered = {module for module, _, _ in EXPERIMENTS}
    on_disk = {p.stem for p in _BENCH_DIR.glob("bench_*.py")}
    assert on_disk - covered == set()


def test_x7_sweep_fails_on_a_wrong_regime(monkeypatch):
    """The planner gate (``python -m repro run x7``) can fail: a scenario
    whose expected winner is not the planner's choice is an error, not a
    printed line."""
    x7 = importlib.import_module("bench_x7_planner")
    scenario = x7.planner_scenarios(quick=True)[0]
    assert scenario.expect == "hash"
    monkeypatch.setattr(x7, "planner_scenarios", lambda quick: [scenario])
    assert {row[:3] for row in x7.planner_experiment(quick=True)} >= {
        (scenario.name, "hash", "chosen")
    }
    tampered = dataclasses.replace(scenario, expect="broadcast")
    monkeypatch.setattr(x7, "planner_scenarios", lambda quick: [tampered])
    with pytest.raises(AssertionError, match="regime winner is broadcast"):
        x7.planner_experiment(quick=True)


@pytest.mark.slow
@pytest.mark.parametrize(
    "module_name, function_name, kwargs",
    EXPERIMENTS,
    ids=[f"{m}.{f}" for m, f, _ in EXPERIMENTS],
)
def test_experiment_smoke(module_name, function_name, kwargs):
    module = importlib.import_module(module_name)
    result = getattr(module, function_name)(**kwargs)
    # Experiments return their table rows (or None after printing);
    # a non-exception return is the contract being smoke-tested.
    assert result is None or result is not None
