"""Historical-record reader for the committed ``BENCH_*.json`` files.

No writer, no CLI: :func:`validate_bench` checks a document against the
``repro-bench/1`` schema and :func:`compare_bench` diffs two of them.
Wall time is measured by ``python -m perfbench``; paper conformance
(``L``, ``r`` and the closed-form bounds) by ``python -m repro run``.
"""

from repro.bench.compare import BenchComparison, ComparisonEntry, compare_bench
from repro.bench.schema import SCHEMA_VERSION, validate_bench

__all__ = [
    "BenchComparison",
    "ComparisonEntry",
    "SCHEMA_VERSION",
    "compare_bench",
    "validate_bench",
]
