"""The result plane of the two-way joins: columns out, the same answer.

For hash / broadcast / skew joins, every way of building an input
(from columns, from rows, rows handed out and edited) and every input
kind (plain ints, string keys, a ``uint64`` column above ``int64`` max, a
``bool``-bearing column, float keys meeting equal ints, an empty side)
must observe exactly what the scalar rung observes — rows in order with
their types, schema, name, per-round loads, C and the audit report —
and output the oracle's bag, in integer columns exactly when every input
value is a plain int and in ``object`` columns where one is not.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.exec.config import use_backend
from repro.joins.broadcast_join import broadcast_join
from repro.joins.hash_join import parallel_hash_join
from repro.joins.skew_join import skew_join
from repro.kernels import join as join_kernels
from repro.kernels.columnar import columns_of
from repro.mpc.cluster import Cluster
from repro.mpc.faults import CrashFault, FaultPlan, RecoveryPolicy, faulty
from repro.testing.oracle import oracle_two_way
from tests.holdings import P_VALUES, assert_one_answer, hold, observe, scalar_rung, variants

# y = 0 is a heavy hitter (skew_join peels it from p = 5 up).
CASE = {
    "R": (["x", "y"], [(i, 0 if i % 3 == 0 else i % 7) for i in range(48)]),
    "S": (["y", "z"], [(0 if i % 4 == 0 else i % 9, -i) for i in range(40)]),
}
KINDS = variants(CASE, key_attrs=["y"], payload=("S", "z"))
ALGORITHMS = {
    "hash": parallel_hash_join,
    "broadcast": broadcast_join,
    "skew": skew_join,
}


def _run(algorithm):
    def run(relations, p):
        result = algorithm(relations["R"], relations["S"], p, seed=3)
        return result.output, result.stats
    return run


def _oracle(relations):
    return oracle_two_way(relations["R"], relations["S"])


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_one_answer_three_ways_to_hold_it(name, kind, p):
    results = assert_one_answer(_run(ALGORITHMS[name]), KINDS[kind], p, _oracle)
    for how, (output, _stats) in results.items():
        columns = output.columns()
        assert not any(column.flags.writeable for column in columns), how
        if kind in ("int", "uint64-payload", "uint64-key"):
            # Integer columns end to end — skew_join's products of the
            # heavy keys included, and a uint64 key above int64 max, which
            # is coded by value ...
            assert all(column.dtype.kind in "iu" for column in columns), how
            for row in output.rows_readonly():
                assert all(type(v) is int for v in row)
        elif kind in ("string-keyed", "bool-payload"):
            # ... and a value numpy cannot hold exactly rides an object
            # column, which hands back the very value.
            assert any(column.dtype == object for column in columns), how
        elif kind == "empty-side":
            assert len(output) == 0, how


def test_bools_and_strings_keep_their_types():
    for kind in ("bool-payload", "string-keyed"):
        relations = {n: hold(n, a, rows, "rows") for n, (a, rows) in KINDS[kind].items()}
        output = parallel_hash_join(relations["R"], relations["S"], 4).output
        flat = {type(v) for row in output.rows_readonly() for v in row}
        assert flat == ({int, bool} if kind == "bool-payload" else {int, str})


def test_mixed_per_server_results_gather_in_server_order():
    # Server 1's result was built from rows by the one column rule; the
    # gather concatenates every server's blocks in server order.
    cluster = Cluster(3)
    blocks = [(np.array([1, 2]), np.array([10, 20])), tuple(columns_of([(3, 30)], 2)),
              (np.array([4]), np.array([40]))]
    for server, block in zip(cluster.servers, blocks):
        server.append_result("out", block)
    assert [len(server.get("out")) for server in cluster.servers] == [2, 1, 1]
    gathered = cluster.gather_relation("out", "OUT", ["a", "b"])
    assert [column.dtype for column in gathered.columns()] == [np.int64, np.int64]
    assert gathered.rows_readonly() == [(1, 10), (2, 20), (3, 30), (4, 40)]
    assert cluster.gather("out") == gathered.rows_readonly()
    gathered.rows().clear()  # the caller's copy: neither the gather nor the store moves
    assert len(gathered) == 4 and len(cluster.gather("out")) == 4
    # Without server 1's contribution the others concatenate column-wise.
    cluster.servers[1].take("out")
    columnar = cluster.gather_relation("out", "OUT", ["a", "b"])
    assert columnar.mutation_token() == 0
    assert columnar.rows_readonly() == [(1, 10), (2, 20), (4, 40)]


def test_a_column_block_on_a_server_reads_as_its_rows():
    # Audit snapshots, fault checkpoints and local_size read storage only.
    cluster = Cluster(1, audit=True)
    server = cluster.servers[0]
    server.append_result("out", (np.array([7, 8]), np.array([1, 2])))
    assert server.local_size() == 2
    assert cluster.auditor.snapshot() == [{"out": 2}]
    assert list(server.get("out")) == [(7, 1), (8, 2)]
    # Appending more adds blocks; the fragment still reads as its rows.
    server.append_result("out", (np.array([9]), np.array([3])))
    assert list(server.get("out")) == [(7, 1), (8, 2), (9, 3)]
    server.append_result("out", (np.array([5]), np.array([0])))
    assert list(server.get("out")) == [(7, 1), (8, 2), (9, 3), (5, 0)]


@pytest.mark.parametrize("recovered", [True, False], ids=["recovered", "unrecovered"])
@pytest.mark.parametrize("plan", [
    FaultPlan(crashes=(CrashFault(round=0, server=1),)),
    FaultPlan(scatter_crashes=(2,)),
], ids=["barrier-crash", "scatter-crash"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_faults_change_nothing_the_scalar_rung_does_not(name, plan, recovered):
    plan = FaultPlan(
        crashes=plan.crashes, scatter_crashes=plan.scatter_crashes,
        recovery=RecoveryPolicy(enabled=recovered),
    )
    run = _run(ALGORITHMS[name])
    seen = []
    for rung in (scalar_rung, nullcontext):
        relations = {n: hold(n, a, rows, "columns") for n, (a, rows) in CASE.items()}
        with rung(), faulty(plan):
            output, stats = run(relations, 4)
        seen.append((observe(output, stats), stats.faults.snapshot()))
    assert seen[0] == seen[1]
    if recovered:
        reference = observe(*run({n: hold(n, a, rows, "rows") for n, (a, rows) in CASE.items()}, 4))
        assert seen[1][0]["rows"] == reference["rows"]


def test_inline_and_process_backends_agree():
    relations = {n: hold(n, a, rows, "columns") for n, (a, rows) in CASE.items()}
    for name, algorithm in sorted(ALGORITHMS.items()):
        seen = []
        for backend in ("inline", "process"):
            with use_backend(backend, workers=2):
                output, stats = _run(algorithm)(relations, 3)  # no key is heavy at p = 3
            seen.append((observe(output, stats), [c.dtype for c in output.columns()]))
        assert seen[0] == seen[1], name
        assert all(dtype == np.int64 for dtype in seen[0][1]), name


def test_no_row_list_is_built_before_the_caller_asks(monkeypatch):
    # Between the shuffle's delivery and the caller's first rows(): no row
    # assembly in the join kernel, no tuple view derived, no rows pushed
    # through Relation.__init__.
    calls = {"join_rows": 0, "init_rows": 0, "derived_rows": 0}
    real_join = join_kernels.join_rows_columnar
    real_init = Relation.__init__
    real_materialize = Relation._materialize

    def counting_join(*args, **kwargs):
        calls["join_rows"] += 1
        return real_join(*args, **kwargs)

    def counting_init(self, name, schema, rows=()):
        rows = list(rows)
        calls["init_rows"] += bool(rows)
        real_init(self, name, schema, rows)

    def counting_materialize(self):
        calls["derived_rows"] += 1
        return real_materialize(self)

    relations = {n: hold(n, a, rows, "columns") for n, (a, rows) in CASE.items()}
    monkeypatch.setattr("repro.kernels.join.join_rows_columnar", counting_join)
    monkeypatch.setattr(Relation, "__init__", counting_init)
    monkeypatch.setattr(Relation, "_materialize", counting_materialize)
    for algorithm in (parallel_hash_join, broadcast_join):
        output = algorithm(relations["R"], relations["S"], 4).output
        assert all(column.dtype == np.int64 for column in output.columns())
    assert calls == {"join_rows": 0, "init_rows": 0, "derived_rows": 0}


class TestSkewJoinSplitsWithAMask:
    """The light/heavy split (SkewHC's per-atom restrictions) and OUT
    assembly re-tuple nothing, yet the output is row for row what the
    per-row lambda produced."""

    @staticmethod
    def _lambda_light(rel, idx, heavy):
        return [row for row in rel.rows_readonly()
                if not any(row[i] in heavy for i in idx)]

    @pytest.mark.parametrize("case", ["mixed", "all-heavy", "no-heavy"])
    @pytest.mark.parametrize("how", ["columns", "rows", "borrowed"])
    def test_outputs_equal_the_scalar_rung(self, case, how):
        if case == "all-heavy":
            r_rows = [(i, 0) for i in range(30)]
            s_rows = [(0, i) for i in range(30)]
        elif case == "no-heavy":
            r_rows = [(i, i) for i in range(30)]
            s_rows = [(i, -i) for i in range(30)]
        else:
            r_rows, s_rows = CASE["R"][1], CASE["S"][1]
        r, s = hold("R", ["x", "y"], r_rows, how), hold("S", ["y", "z"], s_rows, how)
        with scalar_rung():
            want = skew_join(hold("R", ["x", "y"], r_rows, "rows"),
                             hold("S", ["y", "z"], s_rows, "rows"), 6, seed=1)
        got = skew_join(r, s, 6, seed=1)
        assert got.output.rows_readonly() == want.output.rows_readonly()
        assert [rd.received for rd in got.stats.rounds] == \
            [rd.received for rd in want.stats.rounds]
        if case == "no-heavy":
            assert all(column.dtype == np.int64 for column in got.output.columns())

    def test_light_part_is_the_lambda_selection(self):
        # The light part is the atom's all-light restriction: no variable
        # holds one of its heavy values.
        from repro.multiway.skewhc import _atom_view
        from repro.query.cq import Atom

        rows = [(i, i % 5, i % 3) for i in range(60)]
        atom = Atom("R", ["x", "a", "b"])
        for how in ("columns", "rows", "borrowed"):
            rel = hold("R", ["x", "a", "b"], rows, how)
            light = _atom_view(rel, atom, {"x": [], "a": [0, 1], "b": [0, 1]})[0, 0, 0]
            assert light.rows_readonly() == self._lambda_light(rel, (1, 2), {0, 1})
            assert all(column.dtype == np.int64 for column in light.columns())
            whole = _atom_view(rel, atom, {"x": [], "a": [], "b": []})[0, 0, 0]
            assert all(a is b for a, b in zip(whole.columns(), rel.columns()))
        strings = Relation("R", ["x", "a"], [(i, f"k{i % 3}") for i in range(9)])
        light = _atom_view(strings, Atom("R", ["x", "a"]), {"x": [], "a": ["k0"]})[0, 0]
        assert light.rows_readonly() == self._lambda_light(strings, (1,), {"k0"})
