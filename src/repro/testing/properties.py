"""Metamorphic properties of the MPC algorithms.

Differential testing (:mod:`repro.testing.differential`) checks *what*
an algorithm computes; metamorphic testing checks how the computation
responds to transformations that provably must not change the answer:

- **tuple permutation** — shuffling the input tuple order leaves the
  output multiset unchanged (the algorithms hash values, not positions);
- **seed invariance** — a different cluster hash seed routes tuples
  differently but yields the same output multiset;
- **p stability** — the output is independent of the server count;
- **load monotonicity** — more servers never make the per-server load
  substantially worse (up to the analytic additive terms: sampling
  overheads grow with p², heavy values floor the load at their degree).

Every check returns a :class:`PropertyResult` rather than raising, so a
sweep reports all violations at once.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

from repro.testing.differential import (
    ALGORITHMS,
    AlgorithmCase,
    Instance,
    reference_output,
    run_case,
)

P_LADDER = (2, 4, 8, 16)


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one metamorphic check."""

    check: str
    algorithm: str
    instance: str
    ok: bool
    detail: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else f"FAILED ({self.detail})"
        return f"{self.check}: {self.algorithm} on {self.instance}: {status}"


# ------------------------------------------------------- input transformations


def permuted_instance(instance: Instance, seed: int = 1) -> Instance:
    """A copy of the instance with every input's tuple order shuffled."""
    rng = random.Random(seed)
    relations = {}
    for name, rel in instance.relations.items():
        rows = list(rel.rows_readonly())
        rng.shuffle(rows)
        relations[name] = type(rel)(rel.name, rel.schema, rows)
    items = list(instance.items)
    rng.shuffle(items)
    return replace(instance, relations=relations, items=items)


def with_servers(instance: Instance, p: int) -> Instance:
    """A copy of the instance to be run on ``p`` servers."""
    return replace(instance, p=p)


# ---------------------------------------------------------------- the checks


def _outputs_agree(case: AlgorithmCase, base, other, kind: str) -> tuple[bool, str]:
    if base.diff is None or other.diff is None:
        # matmul: both compared against the oracle matrix already.
        ok = base.output_ok and other.output_ok
        return ok, "" if ok else "matrix outputs differ from oracle"
    if not base.output_ok:
        return False, f"baseline already mismatches: {base.diff.summary()}"
    if not other.output_ok:
        return False, f"transformed run mismatches: {other.diff.summary()}"
    return True, ""


def check_tuple_permutation(
    case: AlgorithmCase, instance: Instance, reference=None
) -> PropertyResult:
    """Shuffling input tuples must not change the output multiset."""
    if reference is None:
        reference = reference_output(instance)
    base = run_case(case, instance, reference=reference, audit=False)
    shuffled = permuted_instance(instance, seed=instance.seed + 17)
    other = run_case(case, shuffled, reference=reference, audit=False)
    ok, detail = _outputs_agree(case, base, other, instance.kind)
    return PropertyResult("tuple-permutation", case.name, instance.label, ok, detail)


def check_seed_invariance(
    case: AlgorithmCase, instance: Instance, reference=None, delta: int = 1009
) -> PropertyResult:
    """A different hash seed must not change the output multiset."""
    if reference is None:
        reference = reference_output(instance)
    base = run_case(case, instance, reference=reference, audit=False)
    other = run_case(
        case, instance, reference=reference, seed=instance.seed + delta, audit=False
    )
    ok, detail = _outputs_agree(case, base, other, instance.kind)
    return PropertyResult("seed-invariance", case.name, instance.label, ok, detail)


def check_p_stability(
    case: AlgorithmCase, instance: Instance, reference=None, p_other: int | None = None
) -> PropertyResult:
    """Changing the server count must not change the output multiset."""
    if reference is None:
        reference = reference_output(instance)
    if p_other is None:
        p_other = {4: 8, 8: 16, 16: 4}.get(instance.p, instance.p * 2)
    base = run_case(case, instance, reference=reference, audit=False)
    other = run_case(case, with_servers(instance, p_other), reference=reference, audit=False)
    ok, detail = _outputs_agree(case, base, other, instance.kind)
    return PropertyResult("p-stability", case.name, instance.label, ok, detail)


def check_load_monotonicity(
    case: AlgorithmCase,
    instance: Instance,
    reference=None,
    p_values: Sequence[int] = P_LADDER,
    slack: float = 2.0,
) -> PropertyResult:
    """Scaling out must not substantially increase the per-server load.

    The tutorial's formulas are all non-increasing in p; measured loads
    carry two legitimate counter-terms the check allows for: sampling /
    coordination overheads that grow like p², and the degree floor (all
    tuples of one heavy value meet at one server at any p).
    """
    if reference is None:
        reference = reference_output(instance)
    loads: list[tuple[int, int]] = []
    for p in p_values:
        record = run_case(case, with_servers(instance, p), reference=reference, audit=False)
        if record.error is not None:
            return PropertyResult(
                "load-monotonicity", case.name, instance.label, False,
                f"run at p={p} raised {record.error}",
            )
        loads.append((p, record.max_load))
    (p_lo, l_lo), (p_hi, l_hi) = loads[0], loads[-1]
    allowance = slack * l_lo + p_hi ** 2 + instance.max_degree() + 8
    ok = l_hi <= allowance
    detail = "" if ok else (
        f"L grew from {l_lo} (p={p_lo}) to {l_hi} (p={p_hi}), "
        f"allowance {allowance:.0f}; ladder {loads}"
    )
    return PropertyResult("load-monotonicity", case.name, instance.label, ok, detail)


METAMORPHIC_CHECKS = (
    check_tuple_permutation,
    check_seed_invariance,
    check_p_stability,
)


def run_metamorphic(
    instances: Iterable[Instance],
    algorithms: Sequence[AlgorithmCase] = ALGORITHMS,
    checks: Sequence = METAMORPHIC_CHECKS,
    monotonicity: bool = True,
) -> list[PropertyResult]:
    """All metamorphic checks on every applicable (algorithm, instance)."""
    results: list[PropertyResult] = []
    for instance in instances:
        reference = reference_output(instance)
        for case in algorithms:
            if not case.applies(instance):
                continue
            for check in checks:
                results.append(check(case, instance, reference=reference))
            if monotonicity:
                results.append(
                    check_load_monotonicity(case, instance, reference=reference)
                )
    return results

