"""The ``python -m repro selftest`` gate: report plumbing, CLI, and the
engine's ``verify=True`` oracle cross-check."""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.data.generators import skewed_relation, uniform_relation
from repro.errors import OracleMismatchError
from repro.testing.differential import DifferentialRecord, DifferentialReport
from repro.testing.oracle import multiset_diff
from repro.testing.selftest import SelftestReport, main, run_selftest


# ----------------------------------------------------------------- run_selftest


def test_run_selftest_small_budget_passes():
    report = run_selftest(instances=6, seed=0, metamorphic_every=3,
                          monotonic_every=0)
    assert report.ok, report.failures
    assert report.metamorphic, "metamorphic sample was empty"
    table = report.summary_table()
    assert "verdict=PASS" in table
    assert "instances=6" in table


def test_run_selftest_restricted_to_one_algorithm():
    report = run_selftest(instances=4, seed=1, kinds=["sort"],
                          algorithms=["psrs_sort"], metamorphic_every=0,
                          monotonic_every=0)
    names = {r.algorithm for r in report.differential.records}
    assert names == {"psrs_sort"}
    assert report.ok, report.failures


# ----------------------------------------------------------------- the report


def _failing_record():
    return DifferentialRecord(
        "fake_algo", "fake/instance", "two_way", out_size=1, max_load=5,
        rounds=1, diff=multiset_diff([(1,)], [(2,)]),
    )


def test_report_failure_path():
    differential = DifferentialReport(records=[_failing_record()], instances=1)
    report = SelftestReport(differential)
    assert not report.ok
    assert report.failures
    assert "verdict=FAIL" in report.summary_table()


def test_report_counts_mismatch_in_table():
    ok_record = DifferentialRecord(
        "fake_algo", "fake/other", "two_way", out_size=1, max_load=5,
        rounds=1, diff=multiset_diff([(1,)], [(1,)]),
    )
    differential = DifferentialReport(
        records=[_failing_record(), ok_record], instances=2
    )
    table = SelftestReport(differential).summary_table()
    assert "1/2" in table


# ------------------------------------------------------------------------ CLI


def test_main_small_budget_exit_zero(capsys):
    rc = main(["--instances", "4", "--kinds", "two_way", "--no-metamorphic"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict=PASS" in out


def test_main_verbose_prints_records(capsys):
    rc = main(["--instances", "2", "--kinds", "sort", "--algorithm",
               "psrs_sort", "--no-metamorphic", "--verbose"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "psrs_sort" in out


def test_main_sweeps_both_backends(capsys):
    rc = main(["--instances", "2", "--kinds", "two_way", "--no-metamorphic",
               "--backend", "both"])
    out = capsys.readouterr().out
    assert rc == 0
    for cell in ("inline", "process"):
        assert f"=== {cell} ===" in out
    assert out.count("verdict=PASS") == 2
    assert "no cross-mode drift across the full backend sweep" in out


def test_main_has_no_kernels_switch(capsys):
    # The kernels take every value: there is no other rung to select.
    with pytest.raises(SystemExit) as exit_info:
        main(["--instances", "2", "--kernels", "on"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --kernels" in capsys.readouterr().err


def test_module_subcommand_dispatch(capsys):
    from repro.__main__ import main as repro_main

    rc = repro_main(["selftest", "--instances", "2", "--kinds", "two_way",
                     "--no-metamorphic"])
    assert rc == 0
    assert "verdict=PASS" in capsys.readouterr().out


# -------------------------------------------------------------- Engine.verify


def _engine():
    engine = Engine(p=8, seed=2)
    engine.register(uniform_relation("R", ["x", "y"], 150, 40, seed=1))
    engine.register(skewed_relation("S", ["y", "z"], 150, "y", 40, 1.1, seed=2))
    return engine


def test_engine_verify_passes_on_real_algorithms():
    engine = _engine()
    result = engine.query("R(x, y), S(y, z)", verify=True)
    assert len(result.output) == len(engine.oracle("R(x, y), S(y, z)"))


def test_engine_oracle_matches_distributed_output():
    engine = _engine()
    result = engine.query("R(x, y), S(y, z)")
    expected = engine.oracle("R(x, y), S(y, z)")
    assert not multiset_diff(expected.rows(), result.output.rows())


def test_engine_verify_raises_on_mismatch(monkeypatch):
    import repro.engine as engine_module

    engine = _engine()

    def broken_oracle(query, relations):
        from repro.data.relation import Relation

        return Relation("OUT", ["x", "y", "z"], [(-1, -1, -1)])

    monkeypatch.setattr(engine_module, "oracle_join", broken_oracle)
    with pytest.raises(OracleMismatchError) as excinfo:
        engine.query("R(x, y), S(y, z)", verify=True)
    assert excinfo.value.diff
    assert "missing" in str(excinfo.value)


def test_engine_verify_off_by_default():
    # No oracle cost, no exception machinery: plain query still works.
    engine = _engine()
    result = engine.query("R(x, y), S(y, z)")
    assert result.stats.max_load > 0


# ------------------------------------------------------------------- --faults


def test_run_selftest_with_faults_passes():
    report = run_selftest(instances=6, seed=3, faults=True)
    assert report.ok, report.failures
    # Faults mode skips the metamorphic re-runs (they vary p and seeds,
    # which would change the plans mid-comparison).
    assert report.metamorphic == []


def test_main_faults_flag_exit_zero(capsys):
    rc = main(["--instances", "4", "--kinds", "two_way", "--faults"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict=PASS" in out


def test_fault_plans_are_per_algorithm_and_reproducible():
    from repro.testing.differential import Instance, fault_plan_for

    instance = Instance(kind="two_way", profile="uniform", p=8, seed=5)
    again = Instance(kind="two_way", profile="uniform", p=8, seed=5)
    assert fault_plan_for("parallel_hash_join", instance) == \
        fault_plan_for("parallel_hash_join", again)
    assert fault_plan_for("parallel_hash_join", instance) != \
        fault_plan_for("sort_join", instance)
