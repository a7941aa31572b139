"""The four workloads: fixed op scripts, their replay loops, their checks.

A workload owns a script of *slots*. One :meth:`replay` executes every
slot once and returns, per slot, the latency, the CPU time and the
*fingerprint* ``[rows, L, r, tag]`` (``tag`` is the strategy the planner
chose, suffixed ``+hit`` for a service cache hit), plus the replay's
exact counters read from ``repro``'s public stats objects. A failed op
(exception, admission rejection) has latency ``None``.

All loops are closed: a client issues its next op only after the
previous one returned.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from perfbench import datagen, reference, spec

P = 8                       # simulated MPC servers, every workload
SIZES = (600, 800, 1000, 1400, 2000)
# Distinct ops per class. cold_mix / process_exec: 104 slots, weighted so
# that each of the five query classes gets a comparable share of a replay
# (a class's count is roughly inverse to its cost); the ten slowest slots
# are the skewtri and path4 ones, so p90 sits at the slow end of skew.
COLD_MIX = {
    "hash": 20, "skew": 8, "tri": 14, "skewtri": 4, "path4": 6,
    "semijoin": 18, "psrs": 18, "matmul": 16,
}
# warm_repeat: 13 distinct ops, each appearing 8 times = 104 slots.
WARM_DISTINCT = {
    "hash": 3, "skew": 1, "tri": 2, "skewtri": 1, "path4": 1,
    "semijoin": 2, "psrs": 2, "matmul": 1,
}
WARM_APPEARANCES = 8
SERVICE_CYCLES = 9          # x 6 slots per tenant = 54 slots each
SERVICE_ORDERS = 600
EXTEND_ROWS = 5

WORKLOADS = tuple(name for name, _ in spec.WORKLOADS)


@dataclass(frozen=True)
class Slot:
    index: int
    klass: str
    op: int          # index into the workload's distinct ops
    client: int = 0


@dataclass
class Replay:
    """What one pass over the script measured."""

    latency_ns: list[int | None]
    cpu_ns: list[int]            # per slot; service_rw (slots overlap): per cycle
    probe_ns: list[int]          # speed probe taken right after each slot
    fingerprints: list[list]
    errors: dict[int, str]
    counters: dict[str, float]
    extras: dict[str, list] | None = None     # per-slot, workload-specific
    outputs: list[Any] | None = None          # kept for the verify replay


class CpuClock:
    """CPU time of this process plus its live multiprocessing children."""

    def __init__(self) -> None:
        self._stats: list[str] = []

    def refresh(self) -> None:
        self._stats = [
            f"/proc/{child.pid}/schedstat"
            for child in multiprocessing.active_children()
        ]

    def __call__(self) -> int:
        total = time.process_time_ns()
        for path in self._stats:
            try:
                with open(path) as handle:
                    total += int(handle.read().split()[0])
            except (OSError, ValueError, IndexError):
                pass   # a worker that exited between refresh and read
        return total


def _no_cpu() -> int:
    return 0


_PROBE_KEYS = np.arange(60_000, dtype=np.int64) * 2_654_435_761 % 1_000_003


def speed_probe() -> int:
    """How fast the machine is right now: thread-CPU ns of a fixed kernel.

    About 0.8 ms of the kind of work the engine does — dict and tuple
    churn in the interpreter, a stable argsort and a bincount in numpy.
    Thread CPU time, so waiting for the GIL or the scheduler does not
    count; a busy neighbour on the same core does (it slows the CPU).
    """
    start = time.thread_time_ns()
    table = {}
    for i in range(1500):
        table[(i, i & 7)] = i * 3
    total = 0
    for value in table.values():
        total += value
    np.argsort(_PROBE_KEYS[:20_000], kind="stable")
    np.bincount(_PROBE_KEYS % 64)
    return time.thread_time_ns() - start


def measure(call: Callable[[], Any], cpu: Callable[[], int], tracer: Any,
            op: tuple[int, int]) -> tuple[Any, str | None, int, int, int]:
    """Time one op: ``(result, error, wall ns, cpu ns, probe ns)``.

    Only the call itself is inside the timed interval; with a tracer the
    calling thread's spans are tagged with ``op`` for exactly that long.
    The speed probe runs right after, outside the interval.
    """
    clock = time.perf_counter_ns
    if tracer is not None:
        tracer.set_op(op)
    result = error = None
    cpu0 = cpu()
    t0 = clock()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - a failed op is data, not a crash
        error = f"{type(exc).__name__}: {exc}"
    t1 = clock()
    cpu1 = cpu()
    if tracer is not None:
        tracer.set_op(None)
    return result, error, t1 - t0, cpu1 - cpu0, speed_probe()


def _shuffled(count: int, seed: int) -> list[int]:
    return np.random.default_rng([seed, 0x5107]).permutation(count).tolist()


def _run_stats_counters(counters: Counter, stats: Any) -> None:
    """Fold one op's public ``RunStats`` into the replay counters."""
    counters["mpc.comm_tuples"] += stats.total_communication
    counters["mpc.rounds"] += stats.num_rounds
    counters["mpc.load_max"] = max(counters["mpc.load_max"], stats.max_load)
    counters["model.load_rounds"] += stats.max_load * stats.num_rounds
    memo = stats.memo
    if memo is not None:
        for name in ("partition_hits", "partition_misses", "view_hits",
                     "view_misses", "hash_ops", "hash_ops_saved"):
            counters[f"memo.{name}"] += getattr(memo, name)
    ex = stats.exec
    if ex is not None and ex.backend != "inline":
        for name in ("queue_messages", "dispatch_bytes_out", "pickle_bytes_out",
                     "resident_hits", "resident_misses", "fallback_dispatches",
                     "fallbacks", "worker_seconds"):
            counters[f"exec.{name}"] += getattr(ex, name)


class MixWorkload:
    """``cold_mix``, ``warm_repeat`` and ``process_exec``: one client."""

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        started = time.perf_counter()
        if name == "warm_repeat":
            per_class = {k: 1 for k in datagen.CLASSES} if quick else WARM_DISTINCT
            appearances = 2 if quick else WARM_APPEARANCES
        else:
            per_class = dict.fromkeys(datagen.CLASSES, 2) if quick else COLD_MIX
            appearances = 1
        self.ops: list[datagen.OpData] = []
        for klass in datagen.CLASSES:
            for variant in range(per_class[klass]):
                rng = np.random.default_rng([seed, len(self.ops)])
                size = SIZES[variant % len(SIZES)]
                self.ops.append(datagen.make_op(klass, size, variant, rng))
        order = _shuffled(len(self.ops) * appearances, seed)
        self.script = [
            Slot(index, self.ops[pick % len(self.ops)].klass, pick % len(self.ops))
            for index, pick in enumerate(order)
        ]
        self.datagen_s = time.perf_counter() - started
        self._stack = contextlib.ExitStack()
        self._cpu = CpuClock()
        self._warm_calls: list[Callable[[], Any]] = []

    # ----------------------------------------------------------------- setup

    def setup(self) -> None:
        from repro.exec import use_backend

        if self.name == "process_exec":
            workers = min(2, os.cpu_count() or 1)
            self._stack.enter_context(use_backend("process", workers=workers))
        if self.name == "warm_repeat":
            from repro import Engine

            engine = Engine(P)
            for index, op in enumerate(self.ops):
                self._warm_calls.append(self._bind(op, engine, f"_{index}"))

    def close(self) -> None:
        from repro.exec import shutdown_pools

        self._stack.close()
        shutdown_pools()

    def _bind(self, op: datagen.OpData, engine: Any, suffix: str = "") -> Callable[[], Any]:
        """Fresh ``Relation`` wrappers around the op's arrays, ready to run.

        The returned call looks its entry point up when it runs, so a
        tracer installed after binding (``warm_repeat`` binds once) still
        sees it.
        """
        from repro import Relation
        from repro.matmul import multi_round
        from repro.multiway import base as multiway_base
        from repro.sorting import psrs

        if op.klass == "psrs":
            return lambda: psrs.psrs_sort(op.items, P)
        if op.klass == "matmul":
            a, b = op.matrices
            return lambda: multi_round.square_block_matmul(a, b, P, op.block)
        rels = {
            name: Relation.from_columns(name + suffix, attrs, cols)
            for name, (attrs, cols) in op.relations.items()
        }
        if op.klass == "semijoin":
            reducers = [rels[name] for name in ("R0", "R1", "R2")]
            return lambda: multiway_base.shuffle_multi_semijoin(rels["T"], reducers, P)
        for rel in rels.values():
            engine.register(rel)
        text = datagen.query_text(op.klass, suffix)
        return lambda: engine.query(text)

    def _prepare(self, slot: Slot) -> Callable[[], Any]:
        if self.name == "warm_repeat":
            return self._warm_calls[slot.op]
        from repro import Engine
        from repro.kernels.memo import clear_memo

        call = self._bind(self.ops[slot.op], Engine(P))
        clear_memo()
        return call

    # ---------------------------------------------------------------- replay

    def replay(self, number: int, tracer: Any = None, keep_outputs: bool = False) -> Replay:
        from repro.kernels.memo import memo_cache_sizes

        cpu = self._cpu
        cpu.refresh()
        counters: Counter = Counter()
        out = Replay([], [], [], [], {}, counters, outputs=[] if keep_outputs else None)
        load_ratio = 0.0
        for slot in self.script:
            call = self._prepare(slot)
            result, error, wall, busy, probe = measure(
                call, cpu, tracer, (number, slot.index)
            )
            out.cpu_ns.append(busy)
            out.probe_ns.append(probe)
            if error is not None:
                out.latency_ns.append(None)
                out.fingerprints.append([0, 0, 0, "error"])
                out.errors[slot.index] = error
                if keep_outputs:
                    out.outputs.append(None)
                continue
            out.latency_ns.append(wall)
            if slot.klass in datagen.ENGINE_CLASSES:
                output, stats, tag = result.output, result.stats, result.explain.chosen
                counters["engine.align_hits"] += result.align_cache_hits
                counters["engine.align_lookups"] += len(datagen.QUERIES[slot.klass])
                predicted = result.explain.chosen_plan.predicted_load
                if predicted:
                    load_ratio = max(load_ratio, stats.max_load / predicted)
            else:
                output, stats = result
                tag = slot.klass
            _run_stats_counters(counters, stats)
            out.fingerprints.append(
                [len(output), stats.max_load, stats.num_rounds, tag]
            )
            if keep_outputs:
                out.outputs.append(output)
        counters["planner.load_ratio_max"] = load_ratio
        counters["memo.plan_entries"] = memo_cache_sizes()[0]
        return out

    # ---------------------------------------------------------------- verify

    def verify(self, replay: Replay) -> dict[int, str]:
        """Compare kept outputs, as multisets, to the reference answers."""
        failed: dict[int, str] = {}
        expected: dict[int, Any] = {}
        for slot, output in zip(self.script, replay.outputs):
            if output is None:
                continue
            op = self.ops[slot.op]
            if op.klass == "psrs":
                good = list(output) == sorted(op.items)
            elif op.klass == "matmul":
                good = np.array_equal(output, op.matrices[0] @ op.matrices[1])
            else:
                attrs = tuple(output.schema.attributes)
                if slot.op not in expected:
                    atoms = [op.relations[name] for name in op.relations]
                    expected[slot.op] = (
                        reference.semijoin(atoms[0], atoms[1:])
                        if op.klass == "semijoin"
                        else reference.join(atoms, attrs)
                    )
                good = reference.bag(output.rows_readonly()) == expected[slot.op]
            if not good:
                failed[slot.index] = f"{op.klass} output differs from the reference"
        return failed


_OC = "Orders(order, cust, month), Customers(cust, region, segment)"
_OL = "Orders(order, cust, month), Lineitems(order, part, qty)"
_LP = "Lineitems(order, part, qty), Parts(part, brand)"
_C = "Customers(cust, region, segment)"
_PARTS = "Parts(part, brand)"
# Per cycle: (class, query, strategy, split). Tenant A's "extend" writes
# Orders, so its first read of each kind afterwards misses the cache.
_TENANT_A = (
    ("extend", None, None, 1),
    ("join_oc", _OC, "auto", 1), ("join_oc", _OC, "auto", 1),
    ("join_ol_split", _OL, "auto", 4), ("join_ol_split", _OL, "auto", 4),
    ("scan", _C, "auto", 1),
)
# Tenant B reads only what A never writes, each (strategy, split) its own
# cache key: the first cycle misses, every later one hits, whatever A does.
_TENANT_B = (
    ("join_lp", _LP, "auto", 1), ("join_lp", _LP, "hash", 1),
    ("join_lp", _LP, "broadcast", 1), ("join_lp", _LP, "auto", 2),
    ("join_lp", _LP, "hash", 2), ("scan", _PARTS, "auto", 1),
)
SLOTS_PER_CYCLE = len(_TENANT_A)
assert len(_TENANT_B) == SLOTS_PER_CYCLE


class ServiceWorkload:
    """``service_rw``: two closed-loop tenants on one ``QueryService``.

    Tenant A writes ``Orders`` and reads it back; tenant B reads only
    relations A never writes, under cache keys A never uses — so whether
    a slot hits the result cache is fixed by the script, not by how the
    two threads interleave. The tenants start every cycle together (a
    barrier outside the timed intervals; B's cycle is the shorter one and
    waits), so which of the other tenant's ops a slot runs beside is fixed
    by the script too: B's six reads always meet A's ``extend`` and the
    start of its first miss, never — as happens when B runs ahead — nothing
    at all in one replay and a miss in the next.
    """

    clients = 2
    name = "service_rw"

    def __init__(self, seed: int, quick: bool) -> None:
        started = time.perf_counter()
        self.cycles = 2 if quick else SERVICE_CYCLES
        self.columns = self._warehouse_columns(seed)
        fixed = np.random.default_rng(0xE87)
        customers = len(self.columns["Customers"][1][0])     # ids are 0..n-1
        self.extensions = [      # five new orders per cycle, ids past the base ones
            [
                (SERVICE_ORDERS + cycle * EXTEND_ROWS + i, int(fixed.integers(0, customers)), 1 + i)
                for i in range(EXTEND_ROWS)
            ]
            for cycle in range(self.cycles)
        ]
        self.plan: list[tuple] = []      # per slot: (class, query, strategy, split, cycle)
        self.script: list[Slot] = []
        for client, tenant in enumerate((_TENANT_A, _TENANT_B)):
            for cycle in range(self.cycles):
                for klass, query, strategy, split in tenant:
                    self.script.append(Slot(len(self.script), klass, len(self.plan), client))
                    self.plan.append((klass, query, strategy, split, cycle))
        self.datagen_s = time.perf_counter() - started
        self.service: Any = None

    @staticmethod
    def _warehouse_columns(seed: int) -> datagen.Columns:
        """``make_warehouse`` at a fixed seed, rows in the order ``seed`` draws."""
        from repro.data.warehouse import make_warehouse

        warehouse = make_warehouse(n_orders=SERVICE_ORDERS, lineitems_per_order=8, seed=7)
        rng = np.random.default_rng([seed, 0xDA7A])
        out: datagen.Columns = {}
        for name, rel in warehouse.relations().items():
            order = rng.permutation(len(rel))
            out[name] = (
                tuple(rel.schema.attributes),
                [np.asarray(col, dtype=np.int64)[order] for col in rel.columns()],
            )
        return out

    def _relation(self, name: str) -> Any:
        from repro import Relation

        attrs, cols = self.columns[name]
        return Relation.from_columns(name, attrs, cols)

    def setup(self) -> None:
        from repro.service import QueryService

        workers = min(2, os.cpu_count() or 1)
        self.service = QueryService(
            {name: self._relation(name) for name in self.columns},
            p=P, workers=workers,
        )

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    # ---------------------------------------------------------------- replay

    def _client(self, slots: list[Slot], number: int, tracer: Any,
                out: Replay, cycle_start: threading.Barrier) -> None:
        service = self.service
        tenant = f"tenant{slots[0].client}"

        def issue(klass: str, query: str, strategy: str, split: int, cycle: int) -> Any:
            if klass == "extend":
                return service.extend("Orders", self.extensions[cycle])
            return service.query(query, tenant=tenant, strategy=strategy, split=split)

        for position, slot in enumerate(slots):
            if position % SLOTS_PER_CYCLE == 0:
                cycle_start.wait()
            result, error, wall, _, probe = measure(
                partial(issue, *self.plan[slot.op]), _no_cpu, tracer,
                (number, slot.index),
            )
            i = slot.index
            out.probe_ns[i] = probe
            if error is not None:
                out.fingerprints[i] = [0, 0, 0, "error"]
                out.errors[i] = error
                continue
            out.latency_ns[i] = wall
            if result is None:
                out.fingerprints[i] = [EXTEND_ROWS, 0, 0, "extend"]
                continue
            tag = "+".join(result.strategy) + ("+hit" if result.cache_hit else "")
            out.fingerprints[i] = [
                len(result.output), result.max_load, result.rounds, tag
            ]
            out.extras["execute_ns"][i] = int(result.seconds * 1e9)
            if out.outputs is not None:
                out.outputs[i] = result.output

    def replay(self, number: int, tracer: Any = None, keep_outputs: bool = False) -> Replay:
        service = self.service
        # Outside the timed interval: back to the base Orders, empty cache.
        service.register(self._relation("Orders"))
        service.cache.invalidate_all()
        before = service.stats()
        count = len(self.script)
        out = Replay(
            [None] * count, [], [0] * count, [None] * count, {}, Counter(),
            extras={"execute_ns": [0] * count},
            outputs=[None] * count if keep_outputs else None,
        )
        # Process CPU time at every cycle start (taken by whichever tenant
        # arrives last, before either is released) and at the end.
        stamps: list[int] = []
        cycle_start = threading.Barrier(
            self.clients, action=lambda: stamps.append(time.process_time_ns())
        )
        threads = [
            threading.Thread(
                target=self._client,
                args=([s for s in self.script if s.client == client],
                      number, tracer, out, cycle_start),
            )
            for client in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stamps.append(time.process_time_ns())
        probes = [0] * self.cycles      # the probes' own CPU time is not the program's
        for slot in self.script:
            probes[self.plan[slot.op][4]] += out.probe_ns[slot.index]
        out.cpu_ns = [
            end - start - probe for start, end, probe in zip(stamps, stamps[1:], probes)
        ]
        after = service.stats()
        counters = out.counters
        for name in ("hits", "misses", "evictions", "invalidations"):
            counters[f"service.cache.{name}"] = (
                getattr(after.cache, name) - getattr(before.cache, name)
            )
        counters["service.rejected"] = after.rejected - before.rejected
        counters["service.align_cache_hits"] = (
            after.align_cache_hits - before.align_cache_hits
        )
        for rows, load, rounds, _ in out.fingerprints:
            counters["mpc.rounds"] += rounds
            counters["mpc.load_max"] = max(counters["mpc.load_max"], load)
            counters["model.load_rounds"] += load * rounds
        return out

    # ---------------------------------------------------------------- verify

    def verify(self, replay: Replay) -> dict[int, str]:
        failed: dict[int, str] = {}
        expected: dict[tuple, Counter] = {}
        for slot, output in zip(self.script, replay.outputs):
            klass, query, _, _, cycle = self.plan[slot.op]
            if klass == "extend" or output is None:
                continue
            # Tenant A's reads see Orders as of their own cycle's extend.
            key = (query, cycle if "Orders" in query else -1)
            if key not in expected:
                atoms = []
                for text in query.split("), "):
                    name = text.split("(")[0]
                    attrs, cols = self.columns[name]
                    if name == "Orders":
                        extra = np.array(
                            [row for rows in self.extensions[: cycle + 1] for row in rows]
                        ).T
                        cols = [np.concatenate([c, e]) for c, e in zip(cols, extra)]
                    atoms.append((attrs, cols))
                expected[key] = reference.join(atoms, output.schema.attributes)
            if reference.bag(output.rows_readonly()) != expected[key]:
                failed[slot.index] = f"{klass} output differs from the reference"
        return failed


def make_workload(name: str, seed: int, quick: bool = False) -> MixWorkload | ServiceWorkload:
    if name == "service_rw":
        return ServiceWorkload(seed, quick)
    if name in WORKLOADS:
        return MixWorkload(name, seed, quick)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
