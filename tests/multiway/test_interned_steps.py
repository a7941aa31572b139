"""A multi-step plan's intermediates keep their identity across repeats.

Each step output that a later step of the same query routes is interned
in the view cache under its derivation (the inputs' identities and
tokens, the step kind, the pool size, the hash seed), and the skew
join's light parts are views of their relation. So a repeat over
unchanged inputs is handed the objects the first run produced, and every
route and view of them replays: no partition or view miss, no hash op. The step
still runs in full, so output, ``received`` lists, L and r are the cold
run's. The interned object equals what the step just gathered, and the
query's final output is never pinned. Neither is an output larger than
its inputs, and under faults that recovery does not undo byte for byte
nothing is looked up or stored: such a fault changes a step's output
after the route.
"""

import gc
import importlib
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.joins.skew_join import skew_join
from repro.kernels.memo import cached_view, clear_memo
from repro.mpc import ChannelFault, CrashFault, FaultPlan, RecoveryPolicy, faulty
from repro.multiway import base as multiway_base
from repro.multiway.binary_plans import binary_join_plan
from repro.multiway.gym import gym
from repro.multiway.reduced import reduced_hypercube
from repro.multiway.semijoin import two_path_semijoin_plan
from repro.query.cq import path_query

skew_join_module = importlib.import_module("repro.joins.skew_join")  # the package re-exports the function


def _path(n=240, atoms=4, seed=3, domain=200):
    g = np.random.default_rng(seed)
    query = path_query(atoms)
    columns = lambda: [g.integers(0, domain, n), g.integers(0, domain, n)]  # noqa: E731
    return query, {
        atom.name: Relation.from_columns(atom.name, atom.variables, columns())
        for atom in query.atoms
    }


def _two_path(seed=5):
    g = np.random.default_rng(seed)
    return (
        Relation.from_columns("R", ["x"], [g.integers(0, 30, 60)]),
        Relation.from_columns("S", ["x", "y"], [g.integers(0, 50, 300), g.integers(0, 50, 300)]),
        Relation.from_columns("T", ["y"], [g.integers(0, 30, 60)]),
    )


def _skewed(n=400, seed=1):
    # Two hub keys of degree 120 in R, light in S: the light hash join and
    # the heavy products side by side. (A key heavy on both sides gets a
    # grid whose line hashes `replicate` recomputes on every run.)
    g = np.random.default_rng(seed)
    b = g.integers(10, 200, n)
    b[:240] = np.repeat([0, 1], 120)
    return (
        Relation.from_columns("R", ["a", "b"], [np.arange(n), g.permutation(b)]),
        Relation.from_columns("S", ["b", "c"], [g.integers(0, 200, n), g.integers(0, 9, n)]),
    )


def _entry_points():
    query, rels = _path()  # sparse keys: every intermediate stays below its inputs
    r, s, t = _two_path()
    skew_r, skew_s = _skewed()
    return {
        "gym-optimized": lambda: gym(query, rels, 8, variant="optimized"),
        "gym-vanilla": lambda: gym(query, rels, 8, variant="vanilla"),
        "binary_join_plan": lambda: binary_join_plan(query, rels, 8),
        "two_path_semijoin_plan": lambda: two_path_semijoin_plan(r, s, t, 8),
        "reduced_hypercube": lambda: reduced_hypercube(query, rels, 8),
        "skew_join": lambda: skew_join(skew_r, skew_s, 8),
    }


ENTRY_POINTS = sorted(_entry_points())


@pytest.fixture
def handed_on(monkeypatch):
    """Every interned step output or light part a run is handed, with what
    the step just computed: ``(value, fresh)`` pairs."""
    pairs = []

    def recording(rel, key_extra, build, stats=None):
        value = cached_view(rel, key_extra, build, stats)
        if key_extra[0] in ("step", "light"):
            pairs.append((value, build()))
        return value

    for module in (multiway_base, skew_join_module):
        monkeypatch.setattr(module, "cached_view", recording, raising=False)
    return pairs


def _same_bytes(a, b):
    assert a.name == b.name and a.schema == b.schema
    for x, y in zip(a.columns(), b.columns()):
        assert x.dtype == y.dtype and x.tolist() == y.tolist()


def _shape(run):
    stats = run.stats
    return [rd.received for rd in stats.rounds], stats.max_load, stats.num_rounds


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_warm_repeat_routes_nothing_anew_and_changes_nothing(name, handed_on):
    call = _entry_points()[name]
    clear_memo()
    cold = call()
    del handed_on[:]
    warm = call()
    memo = warm.stats.memo
    assert (memo.partition_misses, memo.view_misses, memo.hash_ops) == (0, 0, 0), memo.summary()
    assert memo.partition_hits > 0 and memo.view_hits > 0  # the counters are reached
    assert cold.stats.memo.partition_misses > 0  # the cold run built what the warm one replays
    _same_bytes(warm.output, cold.output)
    assert _shape(warm) == _shape(cold)
    # Each repeat is handed the first run's object, equal to what it just computed.
    assert handed_on and all(value is not fresh for value, fresh in handed_on)
    for value, fresh in handed_on:
        _same_bytes(value, fresh)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_the_final_output_is_not_held_once_dropped(name):
    call = _entry_points()[name]
    clear_memo()
    call()
    run = call()
    # Its columns too: a projection of an interned relation would share them.
    answer = [weakref.ref(run.output), *map(weakref.ref, run.output.columns())]
    del run
    gc.collect()
    assert all(ref() is None for ref in answer)


def test_a_mutated_input_is_not_handed_an_old_intermediate():
    query, rels = _path()
    clear_memo()
    gym(query, rels, 8)
    rels["R2"].extend([(1, 2), (2, 3)])
    changed = gym(query, rels, 8)
    clear_memo()
    _same_bytes(changed.output, gym(query, rels, 8).output)
    assert changed.stats.memo.partition_misses > 0


def test_threads_racing_on_one_step_are_each_handed_an_equal_answer():
    # Two threads finishing the same step both look it up; whichever
    # stores last, each hands on a relation equal to the one it gathered.
    query, rels = _path(n=120)
    clear_memo()
    expected = gym(query, rels, 8)
    clear_memo()
    runs, errors = [], []

    def repeat():
        try:
            for _ in range(3):
                runs.append(gym(query, rels, 8))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=repeat) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert len(runs) == 18
    for run in runs:
        _same_bytes(run.output, expected.output)
        assert _shape(run) == _shape(expected)


@pytest.fixture
def steps(monkeypatch):
    """Every routed step's ``(input rows, gathered output, value handed on)``."""
    seen = []
    real = multiway_base.interned

    def recording(cluster, kind, inputs, output, routed):
        value = real(cluster, kind, inputs, output, routed)
        if routed:
            seen.append((sum(map(len, inputs)), output, value))
        return value

    monkeypatch.setattr(multiway_base, "interned", recording)
    return seen


def test_an_intermediate_larger_than_its_inputs_is_not_interned(steps):
    # Dense keys: the binary plan's first join outgrows its inputs.
    query, rels = _path(domain=40)
    clear_memo()
    binary_join_plan(query, rels, 8)
    del steps[:]
    warm = binary_join_plan(query, rels, 8)
    grown = [(output, value) for size, output, value in steps if len(output) > size]
    assert grown and all(value is output for output, value in grown)
    assert warm.stats.memo.partition_misses > 0  # its route is built anew


UNRECOVERED_DROP = FaultPlan(
    channel_faults=(ChannelFault(0, 2, "drop", count=2),),
    recovery=RecoveryPolicy(enabled=False),
)
FAULTED = {
    "gym": lambda query, rels: gym(query, rels, 8),
    "binary_join_plan": lambda query, rels: binary_join_plan(query, rels, 8),
}


def _fresh(call, plan=None):
    clear_memo()
    with faulty(plan):
        return call()


@pytest.mark.parametrize("name", sorted(FAULTED))
def test_a_clean_run_after_an_unrecovered_fault_is_not_handed_its_corruption(name):
    query, rels = _path()
    call = lambda: FAULTED[name](query, rels)  # noqa: E731
    clear_memo()
    with faulty(UNRECOVERED_DROP):
        corrupted = call()
    assert corrupted.stats.faults.unrecovered > 0
    clean = call()
    expected = _fresh(call)
    assert corrupted.output.rows() != expected.output.rows()
    _same_bytes(clean.output, expected.output)


@pytest.mark.parametrize("name", sorted(FAULTED))
def test_an_unrecovered_fault_after_a_clean_run_still_shows(name):
    query, rels = _path()
    call = lambda: FAULTED[name](query, rels)  # noqa: E731
    clear_memo()
    clean = call()
    with faulty(UNRECOVERED_DROP):
        corrupted = call()
    expected = _fresh(call, UNRECOVERED_DROP)
    assert corrupted.output.rows() != clean.output.rows()
    _same_bytes(corrupted.output, expected.output)
    assert corrupted.stats.faults.unrecovered == expected.stats.faults.unrecovered


@pytest.mark.parametrize("recovery, exact", [
    (RecoveryPolicy(), True),
    (RecoveryPolicy(enabled=False), False),
    (RecoveryPolicy(checkpoint_interval=2), False),
])
def test_only_byte_exact_recovery_looks_up_interned_steps(recovery, exact, steps):
    # Recovery that restores every round exactly leaves each output a
    # function of its inputs; without it a crash may change what a step
    # gathers, so the step hands on what it gathered.
    query, rels = _path()
    clear_memo()
    clean = gym(query, rels, 8)
    del steps[:]
    with faulty(FaultPlan(crashes=(CrashFault(0, 1),), recovery=recovery)):
        run = gym(query, rels, 8)
    assert run.stats.faults.crashes == 1
    assert steps and all((value is not output) == exact for _, output, value in steps)
    if exact:
        _same_bytes(run.output, clean.output)
        for _, output, value in steps:
            _same_bytes(value, output)


def _set_semantics_ghd():
    """A 4-path decomposition that reuses R2 and R3, with connected covers,
    and one bag that drops an attribute of its cover's join."""
    from repro.query.ghd import GHD, GHDNode

    query = path_query(4)
    root = GHDNode(bag=frozenset({"A1", "A2", "A3"}), cover=("R2", "R3"))
    root.children.append(GHDNode(bag=frozenset({"A0", "A1"}), cover=("R1", "R2")))
    root.children.append(GHDNode(bag=frozenset({"A2", "A3", "A4"}), cover=("R3", "R4")))
    ghd = GHD(query, root)
    assert ghd.verify()
    return ghd


def test_a_set_semantics_gym_repeat_replays_too():
    # A GHD that reuses atoms runs GYM under set semantics, deduplicating its
    # covers and projected bags: those copies are views of their relations,
    # so a repeat's steps get the very inputs of the first run and replay.
    query, rels = _path()
    clear_memo()
    cold = gym(query, rels, 8, ghd=_set_semantics_ghd())
    warm = gym(query, rels, 8, ghd=_set_semantics_ghd())
    assert cold.details["set_semantics"]
    memo = warm.stats.memo
    assert (memo.partition_misses, memo.view_misses, memo.hash_ops) == (0, 0, 0), memo.summary()
    assert cold.stats.memo.partition_misses > 0
    _same_bytes(warm.output, cold.output)
    assert _shape(warm) == _shape(cold)


def test_a_balanced_path_repeat_replays_its_deduplicated_covers():
    # path_balanced_ghd(5)'s root covers R1, R3 and R5, which share no
    # attribute: their grid products outgrow their inputs, so they are never
    # interned (and the grid lines are hashed again), but every step over a
    # deduplicated cover replays.
    from repro.query.ghd import path_balanced_ghd

    query, rels = _path(n=40, atoms=5)
    clear_memo()
    cold = gym(query, rels, 8, ghd=path_balanced_ghd(5))
    warm = gym(query, rels, 8, ghd=path_balanced_ghd(5))
    assert cold.details["set_semantics"]
    assert warm.stats.memo.partition_hits >= 12
    assert warm.stats.memo.partition_misses < cold.stats.memo.partition_misses
    _same_bytes(warm.output, cold.output)
    assert _shape(warm) == _shape(cold)
