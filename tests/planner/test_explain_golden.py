"""Golden explain traces for the adaptive planner.

The ``ExplainResult.describe()`` text is a debugging surface whose
layout — statistics line, candidate table, chosen summary — is part of
the contract. Each canonical workload's trace is committed verbatim
under ``goldens/`` and diffed on the kernels and on the scalar rung
(:func:`tests.holdings.scalar_rung`): planning reads only statistics, so
which rung computes them must not change a single byte of the plan.

To regenerate after an intentional cost-model change::

    PYTHONPATH=src python tests/planner/test_explain_golden.py
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.data.generators import single_value_relation, uniform_relation
from repro.data.graphs import random_edges, triangle_relations
from repro.planner.optimizer import plan_query
from repro.query.parser import parse_query

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def _triangle_case():
    r, s, t = triangle_relations(random_edges(400, 60, seed=31))
    return "R(x, y), S(y, z), T(z, x)", {"R": r, "S": s, "T": t}


def _star_case():
    return "R(x, y), S(x, z), T(x, w)", {
        "R": uniform_relation("R", ("x", "y"), 400, 50, seed=41),
        "S": uniform_relation("S", ("x", "z"), 400, 50, seed=42),
        "T": uniform_relation("T", ("x", "w"), 400, 50, seed=43),
    }


def _chain_case():
    return "R(x, y), S(y, z), T(z, w)", {
        "R": uniform_relation("R", ("x", "y"), 300, 200, seed=51),
        "S": uniform_relation("S", ("y", "z"), 300, 200, seed=52),
        "T": uniform_relation("T", ("z", "w"), 300, 200, seed=53),
    }


def _skewed_join_case():
    return "R(x, y), S(y, z)", {
        "R": single_value_relation("R", ["x", "y"], 150, "y"),
        "S": single_value_relation("S", ["y", "z"], 150, "y"),
    }


CASES = {
    "triangle": _triangle_case,
    "star": _star_case,
    "chain": _chain_case,
    "skewed_join": _skewed_join_case,
}


def _trace(case: str) -> str:
    query, relations = CASES[case]()
    explain = plan_query(parse_query(query), relations, p=8, seed=7)
    return explain.describe() + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kernels", [False, True], ids=["python", "kernels"])
def test_explain_trace_matches_golden(case, kernels):
    from tests.holdings import scalar_rung  # (the file also runs as a script)

    golden = (GOLDEN_DIR / f"{case}.txt").read_text(encoding="utf-8")
    with nullcontext() if kernels else scalar_rung():
        assert _trace(case) == golden


def test_goldens_have_no_strays():
    """Every committed golden corresponds to a case (and vice versa)."""
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.txt")}
    assert on_disk == set(CASES)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CASES):
        path = GOLDEN_DIR / f"{name}.txt"
        path.write_text(_trace(name), encoding="utf-8")
        print(f"wrote {path}")
