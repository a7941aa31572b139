"""``selftest --service`` — concurrency validation of every entry point.

The differential harness (:mod:`repro.testing.differential`) proves each
of the sixteen algorithm entry points correct *in isolation*; this
module proves them correct *under contention*. The same workload is run
twice:

1. a **serial oracle pass** — one thread, audits on — establishing the
   expected output fingerprint, max load, and round count for every
   (algorithm, instance) execution;
2. a **concurrent pass** — the same executions dealt round-robin to k
   barrier-started threads, audits off (the conservation auditor is a
   module-global ambient and is exercised by the serial pass).

Every concurrent execution must be **byte-identical** to its serial
twin: same canonical output fingerprint (sorted rows; exact sequence
for sorting; matrix cells for matmul), same L_max, same round count.
Any drift — a racy cache, a shared-relation corruption, a cross-thread
config leak — shows up as a positional mismatch with both sides
printed.

Each worker thread runs inside its own copy of the submitting thread's
:mod:`contextvars` context, so ambient kernel/backend forcing applies
to the concurrent pass exactly as to the serial one (a ``Context`` is
single-entrant — one copy per thread, never shared).
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass, field

from repro.testing.differential import (
    ALGORITHMS,
    AlgorithmCase,
    Instance,
    generate_instances,
    reference_output,
)
from repro.testing.oracle import matrices_close, multiset_diff

__all__ = [
    "ServiceSelftestReport",
    "ServiceSweepRecord",
    "run_service_selftest",
]


@dataclass
class ServiceSweepRecord:
    """One execution's comparable identity: output bytes + measured cost."""

    algorithm: str
    instance: str
    fingerprint: tuple | None      # canonical output (None on error)
    out_size: int
    max_load: int
    rounds: int
    oracle_ok: bool
    error: str | None = None

    def identity(self) -> tuple:
        """What a serial and a concurrent run must agree on, byte for byte."""
        return (
            self.algorithm, self.instance, self.fingerprint,
            self.max_load, self.rounds,
        )

    def describe(self) -> str:
        if self.error is not None:
            return f"{self.algorithm} on {self.instance}: raised {self.error}"
        status = "ok" if self.oracle_ok else "oracle mismatch"
        return (
            f"{self.algorithm} on {self.instance}: {status} "
            f"(out={self.out_size}, L={self.max_load}, rounds={self.rounds})"
        )


@dataclass
class ServiceSelftestReport:
    """Serial-vs-concurrent comparison across the whole workload."""

    threads: int
    instances: int
    serial: list[ServiceSweepRecord] = field(default_factory=list)
    concurrent: list[ServiceSweepRecord] = field(default_factory=list)

    @property
    def drift(self) -> list[str]:
        """Positional serial/concurrent differences (must be empty)."""
        lines = []
        if len(self.serial) != len(self.concurrent):
            lines.append(
                f"execution counts differ: {len(self.serial)} serial, "
                f"{len(self.concurrent)} concurrent"
            )
            return lines
        for a, b in zip(self.serial, self.concurrent):
            if a.identity() != b.identity():
                what = []
                if a.fingerprint != b.fingerprint:
                    what.append(f"output bytes (sizes {a.out_size}/{b.out_size})")
                if a.max_load != b.max_load:
                    what.append(f"L_max {a.max_load}/{b.max_load}")
                if a.rounds != b.rounds:
                    what.append(f"rounds {a.rounds}/{b.rounds}")
                if (a.error is None) != (b.error is None):
                    what.append(f"errors {a.error}/{b.error}")
                lines.append(
                    f"{a.algorithm} on {a.instance}: serial vs concurrent "
                    f"differ on {', '.join(what) or 'identity'}"
                )
        return lines

    @property
    def failures(self) -> list[str]:
        lines = [r.describe() for r in self.serial if not r.oracle_ok]
        lines += [r.describe() for r in self.concurrent if not r.oracle_ok]
        lines += self.drift
        return lines

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_table(self) -> str:
        by_algorithm: dict[str, int] = {}
        for record in self.concurrent:
            by_algorithm[record.algorithm] = by_algorithm.get(record.algorithm, 0) + 1
        header = f"{'algorithm':<24} {'runs':>5}  serial==concurrent"
        lines = [header, "-" * len(header)]
        drift_by_algorithm = {
            line.split(" on ")[0] for line in self.drift if " on " in line
        }
        for name in sorted(by_algorithm):
            verdict = "DRIFT" if name in drift_by_algorithm else "byte-identical"
            lines.append(f"{name:<24} {by_algorithm[name]:>5}  {verdict}")
        lines.append("-" * len(header))
        lines.append(
            f"instances={self.instances} executions={len(self.concurrent)} "
            f"threads={self.threads} "
            f"verdict={'PASS' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines)


def _execute(case: AlgorithmCase, instance: Instance, reference) -> ServiceSweepRecord:
    """Run one entry point, audited, down to a canonical fingerprint."""
    from repro.mpc.audit import audited

    try:
        with audited():
            run = case.run(instance, instance.seed)
    except Exception as exc:  # noqa: BLE001 - the record carries the failure
        return ServiceSweepRecord(
            case.name, instance.label, None, 0, 0, 0, False,
            error=f"{type(exc).__name__}: {exc}",
        )
    if run.rows is not None:
        if instance.kind == "sort":
            # Sorting is order-sensitive: the sequence IS the bytes.
            fingerprint = tuple(run.rows)
            oracle_ok = list(run.rows) == list(reference)
        else:
            fingerprint = tuple(sorted(run.rows))
            oracle_ok = not multiset_diff(reference, run.rows)
        out_size = len(run.rows)
    else:
        cells = run.matrix.tolist()
        fingerprint = tuple(tuple(row) for row in cells)
        oracle_ok = matrices_close(reference, cells)
        out_size = len(cells)
    return ServiceSweepRecord(
        case.name, instance.label, fingerprint, out_size,
        run.stats.max_load, run.stats.num_rounds, oracle_ok,
    )


def run_service_selftest(
    instances: int = 24,
    threads: int = 4,
    seed: int = 0,
    kinds: list[str] | None = None,
    verbose: bool = False,
) -> ServiceSelftestReport:
    """Serial oracle pass, then the same sweep under k threads; compare.

    The concurrent pass deals executions round-robin across
    barrier-started threads, so neighbours in the serial order run on
    *different* threads at the *same* time — maximal interleaving of the
    shared relations, kernels, and planner paths. Both passes run
    audited.
    """
    if threads < 2:
        raise ValueError(f"a concurrency sweep needs at least 2 threads, got {threads}")
    workload = generate_instances(instances, seed=seed, kinds=kinds)
    items: list[tuple[AlgorithmCase, Instance, object]] = []
    for instance in workload:
        reference = reference_output(instance)
        for case in ALGORITHMS:
            if case.applies(instance):
                items.append((case, instance, reference))

    serial = [_execute(*item) for item in items]
    if verbose:
        for record in serial:
            print(f"serial: {record.describe()}")

    results: list[ServiceSweepRecord | None] = [None] * len(items)
    barrier = threading.Barrier(threads)
    errors: list[BaseException] = []

    def worker(thread_index: int, context: contextvars.Context) -> None:
        try:
            barrier.wait(timeout=30)
            for index in range(thread_index, len(items), threads):
                results[index] = context.run(_execute, *items[index])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    pool = [
        threading.Thread(
            target=worker,
            # One private context copy per thread: Contexts are
            # single-entrant, and each copy carries the submitter's
            # ambient kernel/backend forcing into the worker.
            args=(index, contextvars.copy_context()),
            name=f"service-selftest-{index}",
        )
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]

    report = ServiceSelftestReport(
        threads=threads,
        instances=len(workload),
        serial=serial,
        concurrent=[record for record in results if record is not None],
    )
    if verbose:
        for record in report.concurrent:
            print(f"concurrent: {record.describe()}")
    return report
