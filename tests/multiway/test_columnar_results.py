"""The result plane of the multiway algorithms: columns out, the same answer.

HyperCube, GYM, the one-round semijoin and iterative binary plans over
every holding (from columns, from rows, handed-out) and input kind of
:mod:`tests.holdings` must observe exactly what the scalar rung observes,
output the oracle's bag, and hand their local steps columns only: an
all-int input stays integer columns end to end, anything else rides
``object`` columns.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.exec.base import ExecutionBackend, ProcessBackend
from repro.exec.config import use_backend
from repro.kernels.memo import clear_memo
from repro.mpc.faults import CrashFault, FaultPlan, RecoveryPolicy, faulty
from repro.multiway.base import (
    semijoin_filter_chunk,
    shuffle_multi_semijoin,
    shuffle_semijoin,
)
from repro.multiway.binary_plans import binary_join_plan
from repro.multiway.gym import gym
from repro.multiway.hypercube import hypercube_eval_chunk, hypercube_join
from repro.query.cq import Atom, ConjunctiveQuery, path_query, triangle_query
from repro.testing import chunk_reference
from repro.testing.oracle import oracle_join
from tests.holdings import P_VALUES, assert_one_answer, hold, observe, scalar_rung, variants

TRIANGLE = {
    "R": (["x", "y"], [(i % 6, (i * 5) % 7) for i in range(40)]),
    "S": (["y", "z"], [(i % 7, (i * 3) % 5) for i in range(40)]),
    "T": (["z", "x"], [(i % 5, (i * 7) % 6) for i in range(40)]),
}
PATH = {
    "R1": (["A0", "A1"], [(i, i % 8) for i in range(36)]),
    "R2": (["A1", "A2"], [(i % 8, i % 10) for i in range(30)]),
    "R3": (["A2", "A3"], [(i % 10, -i) for i in range(24)]),
}
SEMIJOIN = {
    "T": (["x", "y"], [(i, i % 11) for i in range(44)]),
    "K1": (["y", "a"], [(i % 9, i) for i in range(27)]),
    "K2": (["y", "b"], [(i % 7, -i) for i in range(21)]),
}


def _hypercube(relations, p):
    run = hypercube_join(triangle_query(), relations, p, seed=2)
    return run.output, run.stats


def _gym(relations, p):
    run = gym(path_query(3), relations, p, seed=2)
    return run.output, run.stats


def _binary(relations, p):
    run = binary_join_plan(path_query(3), relations, p, seed=2)
    return run.output, run.stats


def _semijoin(relations, p):
    return shuffle_multi_semijoin(
        relations["T"], [relations["K1"], relations["K2"]], p, seed=2
    )


def _query_oracle(query):
    return lambda relations: oracle_join(query, relations)


def _semijoin_oracle(relations):
    """``T`` ⋉ every other relation: ``T`` joined with each one's distinct
    keys, each key once, so no ``T`` row is repeated."""
    target, *reducers = relations
    shared = [a for a in relations[target].attributes if a in relations[reducers[0]].attributes]
    keys = {name: relations[name].project(shared).distinct(name) for name in reducers}
    query = ConjunctiveQuery(
        [Atom(target, relations[target].attributes)] + [Atom(name, shared) for name in reducers]
    )
    return oracle_join(query, {target: relations[target], **keys})


CASES = {
    "hypercube": (_hypercube, variants(TRIANGLE, ["x", "y", "z"], ("R", "none")),
                  _query_oracle(triangle_query())),
    "gym": (_gym, variants(PATH, ["A1", "A2"], ("R3", "A3")), _query_oracle(path_query(3))),
    "binary": (_binary, variants(PATH, ["A1", "A2"], ("R3", "A3")),
               _query_oracle(path_query(3))),
    "semijoin": (_semijoin, variants(SEMIJOIN, ["y"], ("T", "x")), _semijoin_oracle),
}
PARAMS = [
    (name, kind) for name, (_run, kinds, _oracle) in sorted(CASES.items()) for kind in sorted(kinds)
    # The triangle has no payload column: every attribute joins.
    if not (name == "hypercube" and kind in ("uint64-payload", "bool-payload"))
]


@pytest.fixture
def payloads(monkeypatch):
    """Every payload the local steps are handed, as ``(task, payload)``."""
    seen = []
    for backend in (ExecutionBackend, ProcessBackend):

        def recording(self, calls, stats=None, batch=backend.map_payload_batch):
            for task, per_server, _common in calls:
                seen.extend((task, payload) for payload in per_server)
            return batch(self, calls, stats=stats)

        monkeypatch.setattr(backend, "map_payload_batch", recording)
    return seen


def _columns_only(payload):
    """Whether a local step's payload is nested lists of arrays, no row."""
    if isinstance(payload, np.ndarray):
        return True
    return isinstance(payload, (list, tuple)) and all(map(_columns_only, payload))


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("name, kind", PARAMS)
def test_one_answer_three_ways_to_hold_it(name, kind, p):
    clear_memo()
    run, kinds, oracle = CASES[name]
    results = assert_one_answer(run, kinds[kind], p, oracle)
    for how, (output, stats) in results.items():
        columns = output.columns()
        assert not any(column.flags.writeable for column in columns), how
        if kind in ("int", "uint64-payload", "uint64-key"):
            assert all(column.dtype.kind in "iu" for column in columns), how
            assert all(type(v) is int for row in output.rows_readonly() for v in row)
        elif kind in ("string-keyed", "bool-payload"):
            assert len(output) and any(column.dtype == object for column in columns), how
        elif kind != "mixed-numeric" and name != "semijoin":  # an empty side joins to nothing
            assert len(output) == 0, how


def test_a_semijoin_with_an_empty_reducer_is_empty_and_counts_no_row_payload(payloads):
    results = assert_one_answer(
        _semijoin, CASES["semijoin"][1]["empty-side"], 4, _semijoin_oracle
    )
    for how, (output, _stats) in results.items():
        assert len(output) == 0, how
    assert payloads and all(_columns_only(payload) for _task, payload in payloads)


def test_heavy_stay_rows_are_a_counted_fall_back(payloads):
    # One key holds half the target: its rows stay in place (T@stay). They
    # were once counted as a fall-back to rows; now they reach the filter
    # as the payload's third set of columns.
    case = {
        "T": (["x", "y"], [(i, 0 if i % 2 else i % 13) for i in range(60)]),
        "K1": (["y", "a"], [(i % 9, i) for i in range(27)]),
    }

    def run(relations, p):
        return shuffle_semijoin(relations["T"], relations["K1"], p, seed=1)

    results = assert_one_answer(run, case, 6, _semijoin_oracle)
    for how, (output, _stats) in results.items():
        assert all(column.dtype == np.int64 for column in output.columns()), how
    filtered = [payload for task, payload in payloads if task == "semijoin.filter"]
    assert filtered and all(_columns_only(payload) for payload in filtered)
    assert any(len(stay[0]) for _keys, _target, stay in filtered)


# Dropped with the side-car (a fragment is column blocks *or* rows; nothing
# rides beside a row list any more, so nothing is named by positions):
# - TestTheOneZeroSideCar::test_take_with_columns_selects_by_position —
#   ``pick_columns`` / ``take_with_columns`` are deleted; a columnar
#   fragment holds every column, in position order.
# - ::test_a_route_that_extracts_names_what_it_extracted — a row-held
#   fragment routed on ``(1, 0)`` sends its rows and no ``(1, 0)``-ordered
#   arrays; what is left to pin is the test below (its successor).
# - ::test_join_fragments_reads_a_permuted_side_car_by_position — a local
#   join is handed whole columns or rows, never rows plus permuted arrays.
def test_rows_routed_on_a_permuted_key_arrive_as_rows():
    from repro.kernels.memo import route
    from repro.mpc.cluster import Cluster

    rows = [(i % 5, i) for i in range(20)]
    cluster = Cluster(2)
    cluster.scatter(Relation("T", ["a", "b"], rows), "T@in")
    h = cluster.hash_function(0)
    with cluster.round("route") as rnd:
        route(cluster, rnd, "T@in", (1, 0), h, "T@j")
    for server in cluster.servers:
        got = list(server.take("T@j"))
        assert got == [row for s in range(2) for row in rows[s::2] if h((row[1], row[0])) == server.sid]


@pytest.mark.parametrize("recovered", [True, False], ids=["recovered", "unrecovered"])
@pytest.mark.parametrize("plan", [
    FaultPlan(crashes=(CrashFault(round=0, server=1),)),
    FaultPlan(scatter_crashes=(2,)),
], ids=["barrier-crash", "scatter-crash"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_faults_change_nothing_the_scalar_rung_does_not(name, plan, recovered):
    plan = FaultPlan(
        crashes=plan.crashes, scatter_crashes=plan.scatter_crashes,
        recovery=RecoveryPolicy(enabled=recovered),
    )
    run, kinds, _oracle = CASES[name]
    seen = []
    for rung in (scalar_rung, nullcontext):
        relations = {n: hold(n, a, rows, "columns") for n, (a, rows) in kinds["int"].items()}
        with rung(), faulty(plan):
            output, stats = run(relations, 4)
        seen.append((observe(output, stats), stats.faults.snapshot()))
    assert seen[0] == seen[1]


def test_inline_and_process_backends_agree():
    for name, (run, kinds, _oracle) in sorted(CASES.items()):
        relations = {n: hold(n, a, rows, "columns") for n, (a, rows) in kinds["int"].items()}
        seen = []
        for backend in ("inline", "process"):
            clear_memo()
            with use_backend(backend, workers=2):
                output, stats = run(relations, 5)
            seen.append((observe(output, stats), [c.dtype for c in output.columns()]))
        assert seen[0] == seen[1], name
        assert all(dtype == np.int64 for dtype in seen[0][1]), name


def test_the_tasks_take_and_return_column_blocks():
    # The payload's shape says it: no flag in ``common``.
    query = triangle_query()
    cols = {
        "R": [np.array([1, 2]), np.array([3, 3])],
        "S": [np.array([3, 3]), np.array([4, 5])],
        "T": [np.array([4, 5]), np.array([1, 2])],
    }
    payload = [[cols[a.name] for a in query.atoms]]
    [got] = hypercube_eval_chunk(payload, query)
    [want] = chunk_reference.hypercube_eval_chunk(payload, query)
    assert isinstance(got, tuple)
    assert [c.tolist() for c in got] == [c.tolist() for c in want] == [[1, 2], [3, 3], [4, 5]]

    t_cols = [np.array([1, 2, 3]), np.array([7, 8, 9])]
    keys = [[np.array([8, 9])], [np.array([9, 7])]]
    stay = [np.array([4, 5]), np.array([6, 6])]
    for alive in ((), ((6,),)):
        [kept] = semijoin_filter_chunk([(keys, t_cols, stay)], ((1,), alive))
        [want] = chunk_reference.semijoin_filter_chunk([(keys, t_cols, stay)], ((1,), alive))
        assert isinstance(kept, tuple)
        assert [c.tolist() for c in kept] == [c.tolist() for c in want]
    assert [c.tolist() for c in kept] == [[3, 4, 5], [9, 6, 6]]
