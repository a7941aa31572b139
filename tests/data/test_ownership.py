"""A relation owns what it holds.

``rows()`` hands out a fresh list, the constructor (which ``wrap()``
folded into) reads the caller's list into columns of its own, and every
array a relation holds is read-only: ``from_columns()`` freezes an array
it can own in place, copies a writable view once, and adopts a read-only
array as is. So nothing a caller keeps — a handed-out list, the list it
built from, the array it built from, the arrays ``columns()`` returns —
can change a relation, the
mutation token moves exactly on ``add``/``extend``, and every cache keyed
on ``(identity, token)`` serves the current rows: a warm answer is
byte-identical to a cold one.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation, union_all
from repro.engine import Engine
from repro.joins import base as joins_base
from repro.exec import tasks
from repro.exec.config import use_backend
from repro.mpc import cluster as cluster_module
from repro.mpc.server import ChunkedColumns
from repro.kernels.memo import clear_memo

JOIN = "R(a, b), S(b, c)"
ATTRS = {"R": ["a", "b"], "S": ["b", "c"]}


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _held(how, rows=((1, 10), (2, 20), (3, 30))):
    rows = list(rows)
    if how == "columns":
        return Relation.from_columns("R", ["x", "y"], [
            np.array([row[0] for row in rows]), np.array([row[1] for row in rows])
        ])
    if how == "wrap":  # the constructor, over a list the caller keeps
        return Relation("R", ["x", "y"], rows)
    return Relation("R", ["x", "y"], rows)


def _columns(rel):
    return [c.tolist() for c in rel.columns()]


def _engine(relations, p=8):
    engine = Engine(p=p)
    for rel in relations:
        engine.register(rel)
    return engine


class TestRowsIsACopy:
    @pytest.mark.parametrize("how", ["columns", "rows", "wrap"])
    def test_an_equal_new_list_every_call(self, how):
        rel = _held(how)
        first, second = rel.rows(), rel.rows()
        assert first == second == rel.rows_readonly() == [(1, 10), (2, 20), (3, 30)]
        assert first is not second
        assert rel.rows_readonly() is not first and rel.rows_readonly() is not second

    @pytest.mark.parametrize("how", ["columns", "rows", "wrap"])
    def test_editing_the_copy_changes_nothing(self, how):
        rel = _held(how)
        columns = rel.columns()
        rows, token = rel.rows_readonly()[:], rel.mutation_token()
        live = rel.rows()
        live[0] = (9, 9)            # same length: what a length key missed
        live.append((4, 40))
        live.reverse()
        assert rel.rows_readonly() == rows and rel.rows() == rows
        assert rel.columns() is columns and _columns(rel) == [[1, 2, 3], [10, 20, 30]]
        assert rel.mutation_token() == token


class TestWrapSnapshots:
    def test_an_edit_to_the_source_list_is_not_seen(self):
        source = [(1, 10), (2, 20)]
        rel = Relation("R", ["x", "y"], source)
        assert _columns(rel) == [[1, 2], [10, 20]]
        source[0] = (7, 70)
        source.append((3, 30))
        assert rel.rows_readonly() == [(1, 10), (2, 20)]
        assert _columns(rel) == [[1, 2], [10, 20]] and rel.mutation_token() == 0


class TestFromColumnsOwns:
    def test_a_writable_input_is_frozen_not_copied(self):
        x, y = np.arange(5), np.arange(5) * 10
        rel = Relation.from_columns("R", ["x", "y"], [x, y])
        assert rel.columns()[0] is x and rel.columns()[1] is y
        assert not x.flags.writeable and not y.flags.writeable  # for the caller too
        with pytest.raises(ValueError):
            y[:] = 0
        assert _columns(rel) == [[0, 1, 2, 3, 4], [0, 10, 20, 30, 40]]
        assert rel.mutation_token() == 0

    def test_a_writable_view_is_copied(self):
        base = np.arange(10)
        rel = Relation.from_columns("R", ["x"], [base[::2]])
        base[:] = -1
        assert _columns(rel) == [[0, 2, 4, 6, 8]]

    def test_a_read_only_input_is_adopted(self):
        x = np.arange(5)
        x.flags.writeable = False
        assert Relation.from_columns("R", ["x"], [x]).columns()[0] is x

    def test_from_chunks_owns_a_lone_block(self):
        lone, first, second = np.arange(4), np.arange(2), np.arange(2, 4)
        rel = Relation.from_chunks("R", ["x", "y"], [[lone], [first, second]])
        with pytest.raises(ValueError):
            lone[:] = -1  # held as is, and so frozen
        first[:] = second[:] = -1  # concatenated: the relation holds a new array
        assert _columns(rel) == [[0, 1, 2, 3], [0, 1, 2, 3]]

    @pytest.mark.parametrize("strategy", ["hash", "broadcast", "auto"])
    def test_a_warm_query_after_a_write_to_the_source_equals_cold(self, strategy):
        # The pre-fix failure: R adopted y, the write changed R behind its
        # token, and the hash join's replayed plan still routed the old y.
        x, y = np.arange(200), np.arange(200) % 7
        relations = [Relation.from_columns("R", ["a", "b"], [x, y]),
                     Relation.from_columns("S", ["b", "c"], [np.arange(7), np.arange(7) * 3])]
        engine = _engine(relations, p=4)
        before = engine.query(JOIN, strategy=strategy).output.rows()
        with pytest.raises(ValueError):
            y[:] = 0
        warm = engine.query(JOIN, strategy=strategy).output.rows()
        clear_memo()
        cold = _engine(relations, p=4).query(JOIN, strategy=strategy).output.rows()
        assert warm == cold == before


class TestHeldArraysAreReadOnly:
    def test_a_write_through_columns_raises_and_warm_equals_cold(self):
        # Before the columns were frozen the write reached R's backing
        # array behind its token: a warm hash query replayed the old
        # routing and returned c in {0, 10, 20}, a cold one only {0}.
        relations = [Relation.from_columns("R", ["a", "b"], [np.arange(6), np.arange(6) % 3]),
                     Relation.from_columns("S", ["b", "c"], [np.arange(3), np.arange(3) * 10])]
        engine = _engine(relations, p=4)
        before = engine.query(JOIN, strategy="hash").output.rows()
        with pytest.raises(ValueError):
            relations[0].columns()[1][:] = 0
        warm = engine.query(JOIN, strategy="hash").output.rows()
        clear_memo()
        cold = _engine(relations, p=4).query(JOIN, strategy="hash").output.rows()
        assert sorted(warm) == sorted(cold) == sorted(before)
        assert {row[2] for row in warm} == {0, 10, 20}

    def test_a_union_with_an_empty_part_does_not_alias_writably(self):
        # union_all used to hand U R's own writable arrays: a write through
        # U changed R and left R's token at 0.
        r = _held("columns")
        empty = Relation.from_columns("E", ["x", "y"], [np.arange(0), np.arange(0)])
        u = union_all("U", [r, empty])
        with pytest.raises(ValueError):
            u.columns()[0][0] = 99
        assert _columns(r) == [[1, 2, 3], [10, 20, 30]] and r.mutation_token() == 0

    @pytest.mark.parametrize("how", ["columns", "rows"])
    def test_a_pickle_round_trip_keeps_every_held_array_read_only(self, how):
        rel = _held(how)
        back = pickle.loads(pickle.dumps(rel))
        assert _columns(back) == _columns(rel)
        assert not any(c.flags.writeable for c in back.columns())
        with pytest.raises(ValueError):
            back.columns()[0][0] = 99

    def test_stacked_holds_what_stack_tagged_built(self):
        # (Named for the tagged stacking a chunk's pass once built for itself:
        # the cluster now builds a step's table, and the pass's relation holds it.)
        built = []

        def spy(fragments, arity):
            built.append(real(fragments, arity))
            return built[-1]

        real = cluster_module._table
        with pytest.MonkeyPatch.context() as patch, use_backend("inline"):
            patch.setattr(cluster_module, "_table", spy)
            cluster = cluster_module.Cluster(2)
            for server, n in zip(cluster.servers, (3, 2)):
                server.put("R", ChunkedColumns([[np.arange(n)], [np.arange(n) * (n + 1)]]))
            relations = []
            tasks.resolve("join.fragments")  # populate before adding
            patch.setitem(tasks._REGISTRY, "ownership.served", lambda chunks, common: [
                relations.append(joins_base.served("R", ("x", "y"), table)) or table
                for [table] in chunks
            ])
            cluster.compute("ownership.served", [("R", 2)])
        [(columns, bounds)], [rel] = built, relations
        assert bounds.tolist() == [0, 3, 5]
        # No copy: each held column is the very array the cluster built.
        assert all(np.shares_memory(h, b) for h, b in zip(rel.columns()[1:], columns))
        assert rel.columns()[0].tolist() == [0, 0, 0, 1, 1]
        assert not any(c.flags.writeable for c in rel.columns())


class TestTheCliffIsGone:
    """A p = 8 warm hash join stayed ~4x slower for good after one
    ``R.rows()``: R was demoted to rows and its plan never replayed. A
    relation now is its columns; a tuple view is only ever derived."""

    def test_a_warm_query_after_rows_still_replays(self):
        g = np.random.default_rng(7)
        r, s = (Relation.from_columns(name, attrs, [g.integers(0, 2000, 2000) for _ in attrs])
                for name, attrs in ATTRS.items())
        engine = _engine([r, s])
        engine.query(JOIN, strategy="hash")
        warm = engine.query(JOIN, strategy="hash")
        assert warm.stats.memo.partition_hits == 2 and warm.stats.memo.hash_ops == 0
        r.rows()
        again = engine.query(JOIN, strategy="hash")
        assert again.stats.memo.partition_hits == warm.stats.memo.partition_hits
        assert again.stats.memo.hash_ops == 0
        assert again.explain is warm.explain
        assert again.output.rows_readonly() == warm.output.rows_readonly()


# --------------------------------------------- interleavings vs a cold engine

values = st.integers(0, 5)
rows_st = st.lists(st.tuples(values, values), max_size=10)
targets = st.sampled_from(sorted(ATTRS))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("rows_edit"), targets, st.tuples(values, values)),
        st.tuples(st.just("wrap"), targets, rows_st),
        st.tuples(st.just("from_columns"), targets, rows_st),
        st.tuples(st.just("add"), targets, st.tuples(values, values)),
        st.tuples(st.just("extend"), targets, rows_st),
        st.tuples(st.just("columns_write"), targets, values),
        st.tuples(st.just("source_write"), targets, values),
        st.tuples(st.just("query"), st.sampled_from(["hash", "broadcast", "auto"]), st.just(None)),
    ),
    max_size=10,
)


def _observed(result):
    rows, stats = result.output.rows_readonly(), result.stats
    return (rows, [[type(v) for v in row] for row in rows],
            [r.received for r in stats.rounds], stats.max_load, stats.num_rounds)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(r_rows=rows_st, s_rows=rows_st, ops=operations)
def test_any_interleaving_answers_what_a_cold_engine_does(r_rows, s_rows, ops):
    """Whatever a caller does with what it holds — edit a ``rows()``
    copy, edit a list it built from, write an array it built from or one
    ``columns()`` returned (both raise) — only ``add``/``extend`` change
    what the engine answers: after every query the warm result equals a
    cold engine's over fresh copies of the shadow state (rows, their
    types, per-round loads, L, r)."""
    clear_memo()
    shadow = {"R": list(r_rows), "S": list(s_rows)}
    sources = {}  # the arrays each relation was last built from
    engine = _engine([Relation(n, ATTRS[n], shadow[n]) for n in ATTRS], p=4)
    for tag, target, payload in ops:
        if tag == "rows_edit":
            live = engine.relation(target).rows()
            live.append(payload)
            live[0] = payload
        elif tag == "wrap":
            source = list(payload)
            engine.register(Relation(target, ATTRS[target], source))
            shadow[target] = list(payload)
            source.append((0, 0))
            source[0] = (5, 5)
        elif tag == "from_columns":
            columns = [np.array([row[i] for row in payload], dtype=np.int64) for i in range(2)]
            engine.register(Relation.from_columns(target, ATTRS[target], columns))
            shadow[target] = list(payload)
            sources[target] = columns
        elif tag in ("columns_write", "source_write"):
            held = engine.relation(target).columns() if tag == "columns_write" \
                else sources.get(target)
            if held is not None:
                with pytest.raises(ValueError):
                    held[1][:] = payload
        elif tag == "add":
            engine.relation(target).add(payload)
            shadow[target].append(payload)
        elif tag == "extend":
            engine.relation(target).extend(payload)
            shadow[target].extend(payload)
        else:
            warm = engine.query(JOIN, strategy=target)
            cold = _engine([Relation(n, ATTRS[n], shadow[n]) for n in ATTRS], p=4)
            assert _observed(warm) == _observed(cold.query(JOIN, strategy=target))
        for name in ATTRS:
            assert engine.relation(name).rows_readonly() == shadow[name]
    clear_memo()
