"""The ``selftest --planner`` gate: record/report plumbing, the
per-instance checker, the sweep, and the CLI wiring."""

from __future__ import annotations

from repro.testing.differential import RELATIONAL_KINDS, generate_instances
from repro.testing.planner import (
    PlannerRecord,
    PlannerReport,
    check_instance,
    run_planner_selftest,
)
from repro.testing.selftest import main


def _record(**overrides) -> PlannerRecord:
    base = dict(
        instance="two_way/0", kind="two_way", chosen="hash",
        predicted_load=10.0, predicted_rounds=1, envelope=48.0,
        measured_load=12, measured_rounds=1, out_size=5,
        oracle_identical=True, forced_identical=True,
        envelope_ok=True, optimal_choice=True,
    )
    base.update(overrides)
    return PlannerRecord(**base)


# --------------------------------------------------------------- the record


def test_record_ok_requires_every_contract():
    assert _record().ok
    assert not _record(oracle_identical=False).ok
    assert not _record(forced_identical=False).ok
    assert not _record(envelope_ok=False).ok
    assert not _record(optimal_choice=False).ok
    assert not _record(error="QueryError: boom").ok


def test_record_describe_names_each_violation():
    assert "ok" in _record().describe()
    assert "oracle" in _record(oracle_identical=False).describe()
    assert "diverged from auto" in _record(forced_identical=False).describe()
    assert "envelope" in _record(envelope_ok=False).describe()
    assert "lower load" in _record(optimal_choice=False).describe()
    assert "raised" in _record(error="QueryError: boom").describe()


# --------------------------------------------------------------- the report


def test_report_pass_and_fail_verdicts():
    passing = PlannerReport(records=[_record()], instances=1)
    assert passing.ok and not passing.failures
    assert "verdict=PASS" in passing.summary_table()

    failing = PlannerReport(
        records=[_record(), _record(envelope_ok=False)], instances=2
    )
    assert not failing.ok and len(failing.failures) == 1
    assert "verdict=FAIL" in failing.summary_table()


def test_empty_report_is_not_ok():
    assert not PlannerReport().ok


def test_report_groups_by_strategy():
    report = PlannerReport(
        records=[_record(), _record(chosen="skew"), _record()], instances=3
    )
    grouped = report.by_strategy()
    assert len(grouped["hash"]) == 2 and len(grouped["skew"]) == 1
    table = report.summary_table()
    assert "hash" in table and "skew" in table


# --------------------------------------------------------- check_instance


def test_check_instance_passes_on_corpus_sample():
    for instance in generate_instances(4, seed=3, kinds=["two_way"]):
        record = check_instance(instance)
        assert record.ok, record.describe()
        assert record.chosen != "?"
        assert record.measured_load >= 0


def test_check_instance_reports_errors_as_records():
    instance = next(iter(generate_instances(1, seed=0, kinds=["two_way"])))
    object.__setattr__(instance, "query", "R(x, y), Missing(y, z)")
    record = check_instance(instance)
    assert record.error is not None and not record.ok
    assert "raised" in record.describe()


# ----------------------------------------------------------------- the sweep


def test_run_planner_selftest_small_budget():
    report = run_planner_selftest(instances=8, seed=2)
    assert report.instances == 8
    assert report.ok, [r.describe() for r in report.failures]
    kinds = {r.kind for r in report.records}
    assert kinds <= set(RELATIONAL_KINDS)


def test_run_planner_selftest_filters_non_relational_kinds():
    report = run_planner_selftest(instances=4, seed=2, kinds=["sort", "two_way"])
    assert {r.kind for r in report.records} == {"two_way"}


# -------------------------------------------------------------------- the CLI


def test_cli_planner_flag(capsys):
    assert main(["--planner", "--instances", "8", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "verdict=PASS" in out


def test_cli_planner_both_backends(capsys):
    assert main(["--planner", "--instances", "4", "--backend", "both"]) == 0
    out = capsys.readouterr().out
    assert "=== planner / backend inline ===" in out
    assert "=== planner / backend process ===" in out
