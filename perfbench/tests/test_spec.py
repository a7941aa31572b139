"""Names are well-formed and BENCHMARK.json is exactly what is printed."""

import json
import re
from pathlib import Path

from perfbench import spec
from perfbench.tracing import TARGETS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_and_units_are_well_formed_and_unique():
    names = (
        [name for name, _ in spec.WORKLOADS]
        + [name for name, *_ in spec.END_TO_END]
        + [name for name, *_ in spec.PER_LAYER]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in spec.UNITS.values():
        assert UNIT.fullmatch(unit), unit
    for _, why in spec.WORKLOADS:
        assert len(why) <= 200 and "\n" not in why


def test_limits_of_the_contract():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert 1 <= spec.RUN_SECONDS <= 60
    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert ("setup_s", "s", "lower", bounds["setup_s"]) in spec.END_TO_END


def test_benchmark_json_is_the_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        assert json.load(handle) == spec.benchmark_json()


def test_every_traced_layer_is_a_metric_and_the_other_way_round():
    traced = {name for name, _, _ in TARGETS}
    derived = {"service.execute", "service.queue_wait"}   # from ServiceResult.seconds
    assert traced | derived == set(spec.TIMED_LAYERS)
    metrics = {name for name, *_ in spec.PER_LAYER}
    assert {spec.layer_metric(layer) for layer in spec.TIMED_LAYERS} <= metrics
    assert spec.layer_metric("joins") == "joins.ms_per_op"
    assert spec.layer_metric("query.lp") == "query.lp_ms_per_op"
