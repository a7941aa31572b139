"""One fresh measuring process: set up, warm up, replay, report.

Started by :mod:`perfbench.runner` as ``python -m perfbench.child
<json config>`` with ``PYTHONHASHSEED=0``. The child builds the workload
from the seed, constructs the engine / service / worker pool, runs one
untimed warm-up replay, collects and freezes the garbage made so far,
and then replays the script until its share of the time budget is used
(at least ``min_replays`` times). Set-up is everything between the
parent's spawn and the first timed op, reported in three phases. The
result goes to the JSON file named in the config.

A traced child (``"trace": true``) instead runs a fixed number of
untraced replays, installs the wrappers of :mod:`perfbench.tracing`,
runs a fixed number of traced replays, removes the wrappers and writes
the spans next to its result.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACE_REPLAYS = (2, 3)          # (untraced, traced) in a traced child
QUICK_TRACE_REPLAYS = (1, 2)


def _plain(replay) -> dict:
    data = dataclasses.asdict(replay)
    data.pop("outputs")
    data["counters"] = dict(replay.counters)
    return data


def _layers(workload, tracer, replay, number: int, window: tuple[int, int]) -> dict[str, int]:
    """Per-layer self time (ns) of one traced replay.

    Spans tagged with the replay's ops come from client threads. Service
    worker threads serve untagged; theirs are taken by time window. The
    service layers no public function brackets are derived from what the
    service reports: ``execute`` is ``ServiceResult.seconds`` minus the
    traced work inside it, ``queue_wait`` what is left of the client's
    latency after admission and execution.
    """
    from perfbench.tracing import layer_self_ns

    main = threading.get_ident()
    lo, hi = window
    tagged = [s for s in tracer.spans if s[5] is not None and s[5][0] == number]
    workers = [
        s for s in tracer.spans
        if s[5] is None and s[6] != main and lo <= s[2] and s[3] <= hi
    ]
    layers = layer_self_ns(tagged + workers)
    if workload.name == "service_rw":
        executed = sum(replay.extras["execute_ns"])
        inside = sum(s[3] - s[2] for s in workers if s[4] < 0)
        admitted = sum(s[3] - s[2] for s in tagged if s[1] == "service.admit")
        queries = sum(
            latency for latency, slot in zip(replay.latency_ns, workload.script)
            if latency is not None and slot.klass != "extend"
        )
        layers["service.execute"] = executed - inside
        layers["service.queue_wait"] = queries - admitted - executed
    return layers


def run(config: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import make_workload

    quick = config["quick"]
    marks = [config["spawned"]]
    workload = make_workload(config["workload"], config["seed"], quick)
    marks.append(time.time())
    result: dict = {
        "workload": workload.name,
        "slots": len(workload.script),
        "clients": [slot.client for slot in workload.script],
        "classes": [slot.klass for slot in workload.script],
        "datagen_s": workload.datagen_s,
        "verify": None,
        "trace": None,
    }
    try:
        workload.setup()
        marks.append(time.time())
        result["warmup"] = _plain(workload.replay(0))
        gc.collect()
        gc.freeze()
        marks.append(time.time())
        # start-up + data, construction, warm-up: spawn -> first timed op
        result["setup_phases_s"] = [b - a for a, b in zip(marks, marks[1:])]

        replays = []
        if config["trace"]:
            untraced, traced = QUICK_TRACE_REPLAYS if quick else TRACE_REPLAYS
            for number in range(1, untraced + 1):
                replays.append(workload.replay(number))
            result["trace"] = _traced(workload, config, untraced, traced)
        else:
            deadline = time.perf_counter() + config["seconds"]
            while len(replays) < config["min_replays"] or time.perf_counter() < deadline:
                replays.append(workload.replay(len(replays) + 1))
        result["replays"] = [_plain(r) for r in replays]
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if config["verify"]:
            started = time.perf_counter()
            check = workload.replay(-1, keep_outputs=True)
            failed = {**check.errors, **workload.verify(check)}
            result["verify"] = {
                "fingerprints": check.fingerprints,
                "failed": {str(slot): why for slot, why in failed.items()},
                "seconds": time.perf_counter() - started,
            }
    finally:
        workload.close()
    return result


def _traced(workload, config: dict, first: int, count: int) -> dict:
    from perfbench.tracing import Tracer

    tracer = Tracer()
    tracer.install()
    runs = []
    try:
        for number in range(first + 1, first + count + 1):
            lo = time.perf_counter_ns()
            replay = workload.replay(number, tracer=tracer)
            runs.append((number, replay, (lo, time.perf_counter_ns())))
    finally:
        tracer.uninstall()
    number, quietest, window = min(
        runs, key=lambda run: sum(v for v in run[1].latency_ns if v is not None)
    )
    path = Path(config["out"]).with_name(f"trace_{workload.name}.json")
    tracer.dump(str(path), {
        "workload": workload.name, "seed": config["seed"],
        "replays": [run[0] for run in runs], "quietest": number,
        "slots": len(workload.script),
    })
    return {
        "file": str(path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "replays": [_plain(run[1]) for run in runs],
        "quietest": _plain(quietest),
        "layers_ns": _layers(workload, tracer, quietest, number, window),
    }


def main(argv: list[str]) -> int:
    config = json.loads(argv[0])
    result = run(config)
    with open(config["out"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
