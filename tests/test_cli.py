"""Tests for the `python -m repro` command-line interface."""

import subprocess
import sys

import pytest

from repro.__main__ import _EXPERIMENTS, main


class TestMainFunction:
    def test_list_returns_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("t1", "f7", "x1", "ablations"):
            assert experiment_id in out
        assert "x4" not in out

    def test_unknown_id_errors(self, capsys):
        assert main(["run", "zz"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_bench_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as unknown:
            main(["frobnicate"])
        with pytest.raises(SystemExit) as bench:
            main(["bench"])
        assert bench.value.code == unknown.value.code != 0
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_run_one_experiment(self, capsys):
        assert main(["run", "f2"]) == 0
        out = capsys.readouterr().out
        assert "degree threshold" in out

    def test_every_id_has_a_bench_file(self):
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        for module in _EXPERIMENTS.values():
            assert (bench_dir / f"{module}.py").exists(), module


class TestSubprocess:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "bench_t1_cost_regimes" in result.stdout

    def test_requires_command(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode != 0
