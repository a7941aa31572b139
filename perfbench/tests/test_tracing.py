"""Span self time, and wrappers that install and fully uninstall."""

import sys

import pytest

from perfbench.tracing import TARGETS, Tracer, layer_self_ns, self_times


def span(span_id, name, start, end, parent=-1, thread=1):
    return (span_id, name, start, end, parent, (1, 0), thread)


def test_self_time_of_nested_spans():
    spans = [
        span(0, "outer", 0, 100),
        span(1, "mid", 10, 60, parent=0),
        span(2, "leaf", 20, 30, parent=1),
        span(3, "mid", 70, 90, parent=0),
    ]
    own = self_times(spans)
    assert own == {0: 30, 1: 40, 2: 10, 3: 20}
    assert sum(own.values()) == 100                     # adds up to the root
    assert layer_self_ns(spans) == {"outer": 30, "mid": 60, "leaf": 10}


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, "outer", 0, 100),
        span(1, "a", 10, 50, parent=0),
        span(2, "b", 40, 80, parent=0),                 # overlaps a on [40, 50]
        span(3, "c", 90, 130, parent=0),                # runs past the parent
    ]
    assert self_times(spans)[0] == 100 - (70 + 10)


def test_spans_of_other_threads_are_not_children():
    spans = [span(0, "outer", 0, 100, thread=1), span(1, "worker", 10, 90, thread=2)]
    assert self_times(spans) == {0: 100, 1: 80}


def _snapshot():
    """Every object a TARGETS entry names, before any patching."""
    import importlib

    held = {}
    for _, spec, _ in TARGETS:
        module_name, _, path = spec.partition(":")
        owner = importlib.import_module(module_name)
        *scope, attr = path.split(".")
        for part in scope:
            owner = getattr(owner, part)
        held[spec] = (owner, attr, vars(owner)[attr])
    return held


def test_wrappers_install_and_fully_uninstall():
    import repro.exec.tasks  # noqa: F401 - loaded so importers get scanned
    import repro.service  # noqa: F401

    before = _snapshot()
    importers = {
        (name, key): value
        for name, module in list(sys.modules.items())
        if module is not None and name.startswith("repro")
        for key, value in vars(module).items()
        if callable(value)
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert len(tracer.patched) >= len(TARGETS)
        for spec, (owner, attr, original) in before.items():
            assert vars(owner)[attr] is not original, f"{spec} was not patched"
        import repro.planner.optimizer as optimizer
        import repro.query.fractional as fractional

        # an importer of the name is patched too, and so is a dispatch dict
        assert optimizer.tau_star is fractional.tau_star
        assert optimizer._TWO_WAY_RUNNERS["hash"] is optimizer.parallel_hash_join
    finally:
        tracer.uninstall()
    assert tracer.patched == []
    for spec, (owner, attr, original) in before.items():
        assert vars(owner)[attr] is original, f"{spec} was not restored"
    for (name, key), value in importers.items():
        assert vars(sys.modules[name])[key] is value, f"{name}.{key} changed"


def test_wrapped_calls_record_spans_with_parents_and_ops():
    from repro import Engine, Relation

    tracer = Tracer()
    tracer.install()
    try:
        engine = Engine(4)
        engine.register(Relation("R", ["x", "y"], [(i, i % 5) for i in range(40)]))
        engine.register(Relation("S", ["y", "z"], [(i % 5, i) for i in range(40)]))
        tracer.set_op((7, 3))
        result = engine.query("R(x, y), S(y, z)")
        tracer.set_op(None)
    finally:
        tracer.uninstall()
    assert len(result.output) == 320
    by_id = {s[0]: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s[4] == -1]
    assert [s[1] for s in roots] == ["engine.overhead"]
    assert all(s[5] == (7, 3) for s in tracer.spans)
    names = {s[1] for s in tracer.spans}
    assert {"query.parse", "planner.plan", "planner.stats", "joins"} <= names
    for s in tracer.spans:
        if s[4] != -1:
            parent = by_id[s[4]]
            assert parent[2] <= s[2] and s[3] <= parent[3]
    own = self_times(tracer.spans)
    assert sum(own.values()) == roots[0][3] - roots[0][2]


def test_enter_mode_times_the_wait_not_the_hold():
    import time

    from repro.data.warehouse import ReadWriteLock

    tracer = Tracer()
    tracer.wrap_public("lock.read", "repro.data.warehouse:ReadWriteLock.read", "enter")
    try:
        lock = ReadWriteLock()
        with lock.read():
            time.sleep(0.02)
    finally:
        tracer.uninstall()
    (recorded,) = tracer.spans
    assert recorded[1] == "lock.read" and recorded[3] - recorded[2] < 10_000_000


def test_unknown_target_raises():
    with pytest.raises((AttributeError, KeyError, ModuleNotFoundError)):
        Tracer().wrap_public("x", "repro.engine:Engine.no_such_method")
