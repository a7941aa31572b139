"""Run-time timing wrappers around ``repro``'s public functions.

Nothing here is installed in an untraced run. :meth:`Tracer.install`
patches each target listed in :data:`TARGETS` — a module-level function
is replaced in its defining module, in every loaded ``repro.*`` module
that imported the name, and in module-level dispatch dicts that hold it;
a method is replaced on its class — and :meth:`Tracer.uninstall` puts
every original object back (``is``-identical, checked by the tests).

A span is ``(id, name, start_ns, end_ns, parent id, op, thread id)``
where ``op`` is the ``(replay, slot)`` the calling thread is serving, or
``None`` on service worker threads. Spans stay in memory until
:meth:`Tracer.dump`. A span's *self time* is its duration minus the part
of it covered by its direct children, so the self times of one thread's
spans add up to the time that thread spent inside traced code.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Iterable
from typing import Any

# (layer metric, "module:attr" or "module:Class.attr", mode). Mode "call"
# times the call; "enter" times entering the context manager the call
# returns (lock *wait*, not the time the lock is held).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("query.parse", "repro.query.parser:parse_query", "call"),
    ("query.lp", "repro.query.fractional:tau_star", "call"),
    ("query.lp", "repro.query.fractional:rho_star", "call"),
    ("query.lp", "repro.query.fractional:psi_star", "call"),
    ("query.lp", "repro.query.shares:optimal_shares", "call"),
    ("planner.plan", "repro.planner.optimizer:plan_query", "call"),
    ("planner.stats", "repro.planner.statistics:collect_query_statistics", "call"),
    ("planner.stats", "repro.planner.statistics:join_statistics", "call"),
    ("engine.overhead", "repro.engine:Engine.query", "call"),
    ("data.relation", "repro.data.relation:Relation.project", "call"),
    ("data.relation", "repro.data.relation:Relation.rows_readonly", "call"),
    ("data.relation", "repro.data.relation:Relation.from_columns", "call"),
    ("data.relation", "repro.data.relation:Relation.from_chunks", "call"),
    ("data.warehouse.read_wait", "repro.data.warehouse:ReadWriteLock.read", "enter"),
    ("data.warehouse.write_wait", "repro.data.warehouse:ReadWriteLock.write", "enter"),
    ("mpc.scatter", "repro.mpc.cluster:Cluster.scatter", "call"),
    ("mpc.scatter", "repro.mpc.cluster:Cluster.scatter_rows", "call"),
    ("mpc.round", "repro.mpc.cluster:RoundContext.__exit__", "call"),
    ("mpc.gather", "repro.mpc.cluster:Cluster.gather", "call"),
    ("mpc.gather", "repro.mpc.cluster:Cluster.gather_relation", "call"),
    ("kernels.partition", "repro.kernels.partition:try_route", "call"),
    ("kernels.partition", "repro.kernels.partition:try_route_grid", "call"),
    ("kernels.partition", "repro.kernels.memo:route_scattered", "call"),
    ("kernels.partition", "repro.kernels.memo:route_scattered_grid", "call"),
    ("kernels.join", "repro.kernels.join:join_rows_columnar", "call"),
    ("kernels.join", "repro.kernels.join:join_indices", "call"),
    ("kernels.join", "repro.kernels.join:semijoin_mask", "call"),
    ("joins", "repro.joins.broadcast_join:broadcast_join", "call"),
    ("joins", "repro.joins.hash_join:parallel_hash_join", "call"),
    ("joins", "repro.joins.skew_join:skew_join", "call"),
    ("joins", "repro.joins.cartesian:cartesian_product", "call"),
    ("multiway", "repro.multiway.gym:gym", "call"),
    ("multiway", "repro.multiway.hypercube:hypercube_join", "call"),
    ("multiway", "repro.multiway.skewhc:skewhc_join", "call"),
    ("multiway", "repro.multiway.base:shuffle_join", "call"),
    ("multiway", "repro.multiway.base:shuffle_multi_semijoin", "call"),
    ("sorting", "repro.sorting.psrs:psrs_sort", "call"),
    ("sorting", "repro.sorting.psrs:psrs_partition", "call"),
    ("matmul", "repro.matmul.multi_round:square_block_matmul", "call"),
    ("exec.dispatch", "repro.exec.base:ProcessBackend.map_payloads", "call"),
    ("exec.dispatch", "repro.exec.base:ProcessBackend.map_payload_batch", "call"),
    ("exec.encode", "repro.exec.shm:encode_payload", "call"),
    ("exec.encode", "repro.exec.shm:decode_owned", "call"),
    ("service.admit", "repro.service.service:QueryService.submit", "call"),
    ("service.write", "repro.service.service:QueryService.extend", "call"),
    ("service.split", "repro.service.splitter:split_bindings", "call"),
    ("service.split", "repro.service.splitter:merge_branches", "call"),
)

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op", "thread")


class _TimedEnter:
    """Context-manager proxy that records how long ``__enter__`` took."""

    __slots__ = ("_inner", "_record")

    def __init__(self, inner: Any, record) -> None:
        self._inner = inner
        self._record = record

    def __enter__(self) -> Any:
        return self._record(self._inner.__enter__)

    def __exit__(self, *exc_info: Any) -> Any:
        return self._inner.__exit__(*exc_info)


class Tracer:
    """Span recorder plus the patch ledger that makes uninstall exact."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        # (container, key, original, is_mapping): what to restore, where.
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------- recording

    def set_op(self, op: tuple[int, int] | None) -> None:
        """Tag the calling thread's next spans with ``(replay, slot)``."""
        self._local.op = op

    def _record(self, name: str, call, /, *args: Any, **kwargs: Any) -> Any:
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((
                span_id, name, start, end, parent,
                getattr(local, "op", None), threading.get_ident(),
            ))

    def _wrapper(self, name: str, original: Any, mode: str) -> Any:
        record = self._record
        if mode == "enter":
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return _TimedEnter(
                    original(*args, **kwargs), functools.partial(record, name)
                )
        else:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return record(name, original, *args, **kwargs)
        return wrapper

    # -------------------------------------------------------------- patching

    def wrap_public(self, name: str, spec: str, mode: str = "call") -> None:
        """Install one wrapper, everywhere the target is reachable from."""
        module_name, _, path = spec.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrapper(name, raw.__func__, mode))
            else:
                wrapped = self._wrapper(name, raw, mode)
            self._patches.append((owner, attr, raw, False))
            setattr(owner, attr, wrapped)
        else:
            original = getattr(module, path)
            wrapped = self._wrapper(name, original, mode)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    loaded_name == "repro" or loaded_name.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patches.append((loaded, key, original, False))
                        setattr(loaded, key, wrapped)
                    elif type(value) is dict:
                        for entry, held in list(value.items()):
                            if held is original:
                                self._patches.append((value, entry, original, True))
                                value[entry] = wrapped

    def install(self, targets: Iterable[tuple[str, str, str]] = TARGETS) -> None:
        for name, spec, mode in targets:
            self.wrap_public(name, spec, mode)

    def uninstall(self) -> None:
        """Restore every patched attribute to the exact original object."""
        while self._patches:
            container, key, original, is_mapping = self._patches.pop()
            if is_mapping:
                container[key] = original
            else:
                setattr(container, key, original)

    @property
    def patched(self) -> list[tuple[Any, str, Any, bool]]:
        return list(self._patches)

    # ---------------------------------------------------------------- output

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"meta": meta, "fields": SPAN_FIELDS, "spans": self.spans}, handle
            )


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: Iterable[tuple]) -> dict[int, int]:
    """Span id -> self time in ns (duration minus direct-child coverage)."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, []), start, end)
        for span_id, _, start, end, _, _, _ in spans
    }


def layer_self_ns(spans: Iterable[tuple]) -> dict[str, int]:
    """Summed self time per layer name over ``spans``."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span[1]] += own[span[0]]
    return dict(totals)
