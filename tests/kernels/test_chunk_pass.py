"""One local step per chunk: the pass ≡ the per-server loop, byte for byte.

``join.fragments``, ``semijoin.filter`` and ``hypercube.eval`` run a
chunk — one table per fragment, the servers' rows in server order with
their row bounds — as one kernel pass keyed on ``(server, key)`` and
return one table and its bounds. The per-payload bodies they replaced
live in :mod:`repro.testing.chunk_reference`; every case here turns the
per-server payloads into a chunk (:func:`tests.holdings.chunk_of`) and
holds the tasks to them — a tuple of columns per server, equal in values
and value types, and in dtype unless the chunk's servers differ in it
(their blocks then stack as ``object``) — and pins that it *is* one pass
(a counting ``join_indices``).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.exec import tasks
from repro.exec.config import use_backend
from repro.joins.base import join_fragment_chunk
from repro.joins.broadcast_join import broadcast_join
from repro.joins.hash_join import parallel_hash_join
from repro.joins.skew_join import skew_join
from repro.kernels import join as join_kernels
from repro.kernels.columnar import column_of, concatenated, pack_columns, zip_rows
from repro.kernels.join import code_key_columns
from repro.kernels.memo import clear_memo
from repro.multiway.base import semijoin_filter_chunk, shuffle_multi_semijoin
from repro.multiway.gym import gym
from repro.multiway.hypercube import hypercube_eval_chunk, hypercube_join
from repro.multiway.skewhc import skewhc_join
from repro.query import lp
from repro.query.cq import Atom, ConjunctiveQuery, path_query, triangle_query
from repro.query.fractional import psi_star
from repro.testing import chunk_reference as reference
from tests.holdings import BIG, chunk_of, hold, observe, per_server

M_VALUES = [1, 2, 8, 13]
WIDE = 2**61  # keys at ±2^61 span 2^62: the offset packing gives way to the radix


@pytest.fixture(autouse=True)
def inline_backend():
    """Counting patches and swapped-in tasks only reach the coordinator's own
    process: every test runs inline unless it picks a backend itself."""
    with use_backend("inline"):
        yield


def same(got, want):
    """Two chunk results agree server by server: a tuple of columns each,
    equal in values and value types, and in dtype unless the pass stacked
    servers of different dtypes as ``object``."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert isinstance(g, tuple) and isinstance(w, tuple), (g, w)
        assert len(g) == len(w)
        for gc, wc in zip(g, w):
            assert gc.dtype == wc.dtype or gc.dtype == object, (gc.dtype, wc.dtype)
            assert gc.tolist() == wc.tolist()
            assert list(map(type, gc.tolist())) == list(map(type, wc.tolist()))


def ints(rng, n, lo, hi, dtype=np.int64):
    return rng.integers(lo, hi, n).astype(dtype)


# ------------------------------------------------------------ join.fragments

JOIN_COMMONS = {
    1: ("L", Schema(["a", "k"]), "R", Schema(["k", "b"])),
    2: ("L", Schema(["a", "k", "j"]), "R", Schema(["j", "k", "b"])),
    3: ("L", Schema(["k", "a", "j", "i"]), "R", Schema(["i", "j", "k", "b"])),
}


def join_payloads(m, width, kind, seed=0):
    """``m`` columnar payloads for a ``width``-column key, shaped by ``kind``."""
    rng = np.random.default_rng(seed + 31 * m + width)
    _ln, left_schema, _rn, right_schema = JOIN_COMMONS[width]
    payloads = []
    for server in range(m):
        n_left, n_right = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        if kind == "empty-left" and server % 2 == 0:
            n_left = 0
        if kind == "empty-right" and server % 3 == 0:
            n_right = 0
        if kind == "empty-both" and server % 2 == 1:
            n_left = n_right = 0
        lo, hi = {"negative": (-4, 3), "wide": (0, 2)}.get(kind, (0, 4))

        def side(schema, n):
            cols = []
            for attr in schema.attributes:
                col = ints(rng, n, lo, hi)
                if kind == "wide" and attr in "kji":
                    col = np.where(col == 0, -WIDE, WIDE)
                cols.append(col)
            return cols

        payloads.append((side(left_schema, n_left), side(right_schema, n_right)))
    return payloads


@pytest.mark.parametrize("kind", [
    "duplicates", "negative", "wide", "empty-left", "empty-right", "empty-both",
])
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("m", M_VALUES)
def test_join_chunk_is_the_per_server_joins(m, width, kind):
    payloads, common = join_payloads(m, width, kind), JOIN_COMMONS[width]
    want = reference.join_fragment_chunk(payloads, common)
    got = per_server(join_fragment_chunk(chunk_of(payloads), common))
    same(got, want)
    assert all(column.dtype == np.int64 for result in got for column in result)


@pytest.mark.parametrize("m", M_VALUES)
def test_join_chunk_takes_the_row_rung_where_the_servers_cannot_be_coded_as_one(m, monkeypatch):
    # (Named for the per-server row rung such a chunk once took: now its
    # servers of every dtype are coded as one, in one pass.)
    common = JOIN_COMMONS[1]
    payloads = join_payloads(m, 1, "duplicates")
    # Server 0 holds its key as uint64 (small values) …
    l_cols, r_cols = payloads[0]
    payloads[0] = ([l_cols[0], l_cols[1].astype(np.uint64)], [r_cols[0].astype(np.uint64), r_cols[1]])
    # … the next one holds a key above int64 max (coded by value) …
    big = np.array([BIG, BIG + 1], dtype=np.uint64)
    payloads.append(([np.array([7, 8]), big], [big[::-1].copy(), np.array([1, 2])]))
    # … and strings and an empty pair ride in the same chunk.
    payloads.append(([np.array([1, 2]), column_of(["x", "y"])],
                     [column_of(["x", "x"]), np.array([5, 6])]))
    payloads.append(([np.empty(0, dtype=np.int64)] * 2, [np.empty(0, dtype=np.int64)] * 2))
    want = reference.join_fragment_chunk(payloads, common)
    calls = counted(monkeypatch)
    got = per_server(join_fragment_chunk(chunk_of(payloads), common))
    assert len(calls) == 1
    same(got, want)
    assert want[0][1].dtype == np.uint64
    assert zip_rows(got[-3]) == [(7, BIG, 2), (8, BIG + 1, 1)]
    assert zip_rows(got[-2]) == [(1, "x", 5), (1, "x", 6)] and zip_rows(got[-1]) == []


def test_a_chunk_of_all_uint64_keys_passes_as_one_and_keeps_the_dtype(monkeypatch):
    rng = np.random.default_rng(5)
    payloads = [
        ([ints(rng, 6, 0, 9), ints(rng, 6, 0, 3, np.uint64)],
         [ints(rng, 5, 0, 3, np.uint64), ints(rng, 5, 0, 9)])
        for _ in range(4)
    ]
    calls = counted(monkeypatch)
    got = per_server(join_fragment_chunk(chunk_of(payloads), JOIN_COMMONS[1]))
    assert len(calls) == 1
    same(got, reference.join_fragment_chunk(payloads, JOIN_COMMONS[1]))
    assert all(result[1].dtype == np.uint64 for result in got)


def test_a_product_is_a_join_on_the_server_alone():
    common = ("L", Schema(["a"]), "R", Schema(["b"]))
    payloads = [([np.array([1, 2])], [np.array([3, 4, 5])]) for _ in range(3)]
    want = reference.join_fragment_chunk(payloads, common)
    got = per_server(join_fragment_chunk(chunk_of(payloads), common))
    same(got, want)
    assert zip_rows(got[0]) == [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]


small = st.integers(-3, 3)


@settings(max_examples=120, deadline=None)
@given(st.lists(
    st.tuples(st.lists(st.tuples(small, small, small), max_size=6),
              st.lists(st.tuples(small, small, small), max_size=6)),
    min_size=1, max_size=5,
))
def test_any_chunk_joins_as_its_servers_do(chunk):
    def columns(rows):
        return [np.array([row[i] for row in rows], dtype=np.int64) for i in range(3)]

    payloads = [(columns(left), columns(right)) for left, right in chunk]
    same(per_server(join_fragment_chunk(chunk_of(payloads), JOIN_COMMONS[2])),
         reference.join_fragment_chunk(payloads, JOIN_COMMONS[2]))


# ----------------------------------------------------------- semijoin.filter

def semijoin_payloads(m, width, kind, seed=0):
    rng = np.random.default_rng(seed + 17 * m + width)
    lo, hi = {"negative": (-4, 3), "wide": (0, 2)}.get(kind, (0, 5))

    def keys(n):
        cols = [ints(rng, n, lo, hi) for _ in range(width)]
        return [np.where(c == 0, -WIDE, WIDE) for c in cols] if kind == "wide" else cols

    payloads = []
    for server in range(m):
        n = 0 if kind == "empty-target" and server % 2 == 0 else int(rng.integers(1, 14))
        reducers = [
            keys(0 if kind == "empty-reducer" and server % 3 == r else int(rng.integers(1, 9)))
            for r in range(2)
        ]
        stay = [np.empty(0, dtype=np.int64)] * (width + 1)
        payloads.append((reducers, [ints(rng, n, 0, 50), *keys(n)], stay))
    return payloads, (tuple(range(1, width + 1)), ())


@pytest.mark.parametrize("kind", [
    "duplicates", "negative", "wide", "empty-target", "empty-reducer",
])
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("m", M_VALUES)
def test_semijoin_chunk_is_the_per_server_filters(m, width, kind):
    payloads, common = semijoin_payloads(m, width, kind)
    want = reference.semijoin_filter_chunk(payloads, common)
    same(semijoin_filtered(payloads, common), want)


def test_semijoin_chunk_takes_the_row_rung_per_server():
    # (Named for the per-server row rung it once took: a uint64 key above
    # int64 max, string keys and heavy stay rows now filter in one pass.)
    payloads, common = semijoin_payloads(3, 1, "duplicates")
    big = np.array([BIG, 3], dtype=np.uint64)
    none = [np.empty(0, dtype=np.int64)] * 2
    payloads.append(([[big], [big[:1]]], [np.array([1, 2]), big], none))
    payloads.append((
        [[column_of(["a", "b"])], [column_of(["b"])]],
        [np.array([9, 8]), column_of(["b", "a"])],
        [np.array([7, 6]), column_of(["z", 5])],
    ))
    common = (common[0], (("z",),))
    want = reference.semijoin_filter_chunk(payloads, common)
    same(semijoin_filtered(payloads, common), want)
    assert zip_rows(want[-2]) == [(1, BIG)] and zip_rows(want[-1]) == [(9, "b"), (7, "z")]


def semijoin_filtered(payloads, common):
    """``semijoin.filter`` over per-server ``(reducers' keys, target, stay)``
    payloads, per server: the reducers are the chunk's first tables."""
    chunk = chunk_of([(*keys, t_cols, stay) for keys, t_cols, stay in payloads])
    return per_server(semijoin_filter_chunk(chunk, common))


# ------------------------------------------------------------ hypercube.eval

QUERIES = {
    "triangle": triangle_query(),
    "path3": path_query(3),
    "one-atom": ConjunctiveQuery([Atom("R", ["x", "y"])]),
    "two-column-key": ConjunctiveQuery([Atom("R", ["x", "y", "z"]), Atom("S", ["z", "y", "w"])]),
    "product-step": ConjunctiveQuery([Atom("R", ["x"]), Atom("S", ["y"]), Atom("T", ["x", "y"])]),
}


def eval_payloads(m, query, kind, seed=0):
    rng = np.random.default_rng(seed + 13 * m + len(query.atoms))
    lo, hi = {"negative": (-3, 2), "wide": (0, 2)}.get(kind, (0, 4))
    payloads = []
    for server in range(m):
        per_atom = []
        for j, atom in enumerate(query.atoms):
            n = int(rng.integers(1, 10))
            if kind == "empty-atom" and (server + j) % 3 == 0:
                n = 0
            cols = [ints(rng, n, lo, hi) for _ in atom.variables]
            if kind == "wide":
                cols = [np.where(c == 0, -WIDE, WIDE) for c in cols]
            per_atom.append(cols)
        payloads.append(per_atom)
    return payloads


@pytest.mark.parametrize("kind", ["duplicates", "negative", "wide", "empty-atom"])
@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("m", M_VALUES)
def test_eval_chunk_is_the_per_server_evaluations(m, name, kind):
    query = QUERIES[name]
    payloads = eval_payloads(m, query, kind)
    want = reference.hypercube_eval_chunk(payloads, query)
    same(per_server(hypercube_eval_chunk(chunk_of(payloads), query)), want)
    if kind == "empty-atom":
        assert any(not len(result[0]) for result in want)


def test_eval_chunk_takes_the_row_rung_per_server():
    # (Named for the per-server row rung it once took: uint64 servers, a
    # key above int64 max and a string-bearing server now pass as one.)
    query = triangle_query()
    payloads = eval_payloads(3, query, "duplicates")
    big = np.array([BIG, BIG], dtype=np.uint64)
    ones = np.array([1, 1])
    payloads.append([[ones, big], [big, ones], [ones, ones]])
    payloads.append([[ones[:1], column_of(["k"])], [np.array([0]), ones[:1]], [ones[:1], ones[:1]]])
    payloads[1][0] = [c.astype(np.uint64) for c in payloads[1][0]]
    want = reference.hypercube_eval_chunk(payloads, query)
    same(per_server(hypercube_eval_chunk(chunk_of(payloads), query)), want)
    assert zip_rows(want[-2]) == [(1, BIG, 1)] * 8 and zip_rows(want[-1]) == []
    assert want[1][0].dtype == np.uint64  # the plan keeps a server's dtype


# ------------------------------------------------------- it is one pass

def counted(monkeypatch):
    """Every ``join_indices`` call from here on, as the list of its sizes."""
    calls = []
    real = join_kernels.join_indices

    def counting(left_codes, right_codes):
        calls.append((len(left_codes), len(right_codes)))
        return real(left_codes, right_codes)

    import repro.data.relation as relation_module

    monkeypatch.setattr(join_kernels, "join_indices", counting)
    monkeypatch.setattr(relation_module, "join_indices", counting)
    return calls


def relations(seed=0, n=240):
    rng = np.random.default_rng(seed)
    return {
        name: Relation.from_columns(name, attrs, [ints(rng, n, 0, 90), ints(rng, n, 0, 90)])
        for name, attrs in (("R", ["x", "y"]), ("S", ["y", "z"]), ("T", ["z", "x"]))
    }


def test_a_p8_hash_join_makes_one_join_indices_call(monkeypatch):
    rels = relations()
    calls = counted(monkeypatch)
    run = parallel_hash_join(rels["R"], rels["S"], 8)
    assert calls == [(240, 240)]
    assert all(column.dtype == np.int64 for column in run.output.columns())


def test_a_hypercube_eval_makes_one_kernel_call_per_plan_step(monkeypatch):
    import repro.data.relation as relation_module

    rels = relations()
    calls, closing = counted(monkeypatch), []
    real = join_kernels.match_counts
    monkeypatch.setattr(
        relation_module, "match_counts",
        lambda left, right: closing.append((len(left), len(right))) or real(left, right),
    )
    hypercube_join(triangle_query(), rels, 8)
    # R ⋈ S, then ⋈ T: once per chunk, not per server. T adds no attribute,
    # so the closing step counts each row's matches instead of listing them.
    assert len(calls) == 1 and len(closing) == 1


def test_a_semijoin_wave_makes_one_membership_test_per_reducer(monkeypatch):
    rels = relations()
    target = rels["S"]
    reducers = [rels["R"].project(["y"]), rels["T"].project(["z"]).rename({"z": "y"})]
    calls = []
    real = join_kernels.slots

    def counting(codes, probes, *span):
        calls.append((len(codes), len(probes)))
        return real(codes, probes, *span)

    import repro.multiway.base as multiway_base

    monkeypatch.setattr(multiway_base, "slots", counting)
    output, stats = shuffle_multi_semijoin(target, reducers, 8)
    # The chunk's 240 target keys are placed in one slot table, once for
    # both reducers' keys; each reducer then marks it.
    assert calls == [(len(set(reducers[0].column("y"))) + len(set(reducers[1].column("y"))), 240)]
    assert stats.memo.partition_misses == 3
    assert sorted(output.rows_readonly()) == sorted(
        target.semijoin(reducers[0]).semijoin(reducers[1]).rows_readonly()
    )


# ---------------------------------- whole algorithms, reference tasks swapped in

@pytest.fixture
def swap_in_reference(monkeypatch):
    """Switch the three tasks to the per-payload reference (and back): each
    chunk is cut into its servers' payloads and their results are stacked
    back into one table."""
    def per_payload(fn, regroup=tuple):
        def task(chunks, common):
            out = []
            for chunk in chunks:
                results = fn([regroup(p) for p in zip(*map(per_server, chunk))], common)
                out.append(([concatenated(c) for c in zip(*results)],
                            np.cumsum([0, *(len(result[0]) for result in results)])))
            return out
        return task

    def swap():
        tasks.resolve("join.fragments")  # populate before overriding
        for name, fn in (
            ("join.fragments", per_payload(reference.join_fragment_chunk)),
            ("semijoin.filter", per_payload(
                reference.semijoin_filter_chunk, lambda p: (p[:-2], p[-2], p[-1]))),
            ("hypercube.eval", per_payload(reference.hypercube_eval_chunk)),
        ):
            monkeypatch.setitem(tasks._REGISTRY, name, fn)
    return swap


def skewed(kind):
    hub = [(0, i) for i in range(60)] + [(i % 9 + 1, i) for i in range(60)]
    case = {
        "R": (["x", "y"], [(b, a) for a, b in hub]),
        "S": (["y", "z"], hub),
        "T": (["z", "x"], [(i % 40, i % 7) for i in range(80)]),
    }
    if kind == "uint64-key":
        case = {n: (a, [(BIG + v, BIG + w) for v, w in rows]) for n, (a, rows) in case.items()}
    return {name: hold(name, attrs, rows, "columns") for name, (attrs, rows) in case.items()}


ALGORITHMS = {
    "hash": lambda r, p: parallel_hash_join(r["R"], r["S"], p, seed=3),
    "broadcast": lambda r, p: broadcast_join(r["R"], r["T"], p, seed=3),
    "skew": lambda r, p: skew_join(r["R"], r["S"], p, seed=3),
    "hypercube": lambda r, p: hypercube_join(triangle_query(), r, p, seed=3),
    "skewhc": lambda r, p: skewhc_join(triangle_query(), r, p, seed=3),
    "gym": lambda r, p: gym(
        path_query(3),
        {f"R{i + 1}": rel.rename(dict(zip(rel.attributes, (f"A{i}", f"A{i + 1}"))))
         for i, rel in enumerate(r.values())},
        p, seed=3,
    ),
}


def seen(run):
    return (observe(run.output, run.stats), [c.dtype for c in run.output.columns()],
            run.stats.exec.queue_messages)


@pytest.mark.parametrize("kind", ["int", "uint64-key"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("p", [1, 8])
def test_algorithms_see_what_the_per_server_loop_saw(swap_in_reference, name, kind, p):
    clear_memo()
    got = seen(ALGORITHMS[name](skewed(kind), p))
    swap_in_reference()
    clear_memo()
    assert got == seen(ALGORITHMS[name](skewed(kind), p))
    assert all(dtype.kind in "iu" for dtype in got[1])


def test_skewhc_pools_of_one_server_are_chunks_of_one(swap_in_reference):
    from repro.data.graphs import power_law_edges

    edges = power_law_edges(300, 60, s=1.3, seed=1)
    rels = {
        name: edges.rename(dict(zip(edges.attributes, attrs)), name=name)
        for name, attrs in (("R", "xy"), ("S", "yz"), ("T", "zx"))
    }
    clear_memo()
    run = skewhc_join(triangle_query(), rels, 8, seed=3)
    assert run.details["allocation"].count(1) >= 5  # chunks of one: no tag, same pass
    assert all(column.dtype == np.int64 for column in run.output.columns())
    swap_in_reference()
    clear_memo()
    assert seen(run) == seen(skewhc_join(triangle_query(), rels, 8, seed=3))


def psm_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux shm mount
        return set()


@pytest.mark.parametrize("name, messages", [
    ("hash", 2), ("hypercube", 2), ("gym", None), ("skewhc", None),
])
def test_process_workers_pass_their_ranges_the_same_way(name, messages):
    before = psm_segments()
    clear_memo()
    with use_backend("inline"):
        inline = seen(ALGORITHMS[name](skewed("int"), 8))
    clear_memo()
    with use_backend("process", workers=2):
        process = seen(ALGORITHMS[name](skewed("int"), 8))
    assert process[:2] == inline[:2]
    # One message per worker per local step, as before the pass.
    assert process[2] % 2 == 0 and process[2] > 0
    if messages is not None:
        assert process[2] == messages
    assert psm_segments() <= before


# ------------------------------------------------ worker cuts at uneven bounds

def _floats(rng, n):
    return column_of([float(v) for v in rng.integers(1, 9, n)])


# Per task: its fragments as (name, column builders), and its common.
LOCAL_STEPS = {
    "join.fragments": ([("L", 2), ("R", 2)], JOIN_COMMONS[1]),
    "semijoin.filter": ([("K0", 1), ("K1", 1), ("T@j", 2), ("T@stay", 2)], ((1,), ((2,), (3,)))),
    "hypercube.eval": ([("R@hc", 2), ("S@hc", 2), ("T@hc", 2)], triangle_query()),
    "matmul.partials": ([("A@j", 3), ("B@j", 3)], None),
    "matmul.sums": ([("P@j", 3)], None),
    "psrs.sort": ([("U", 2)], None),
}


def _place(cluster, task, workers, seed):
    """Random fragments for ``task`` on every server, but none on the two
    servers on either side of each edge between the workers' ranges."""
    from repro.exec.base import chunk_bounds
    from repro.mpc.server import ChunkedColumns

    p = cluster.p
    edges = {start for start, _ in chunk_bounds(p, workers)} - {0}
    empty = {sid for edge in edges for sid in (edge - 1, edge)}
    rng = np.random.default_rng(seed + 97 * p + workers)
    position = 0
    for server in cluster.servers:
        if server.sid in empty:
            continue
        for name, arity in LOCAL_STEPS[task][0]:
            n = int(rng.integers(0, 7))
            columns = [ints(rng, n, 0, 5) for _ in range(arity)]
            if name in ("A@j", "B@j", "P@j"):
                columns[2] = _floats(rng, n)
            if name == "U":
                columns[1] = np.arange(position, position + n)
                position += n
            server.put(name, ChunkedColumns([[column] for column in columns]))
    return empty


def _step(task, p, workers, backend):
    from repro.mpc.cluster import Cluster

    cluster = Cluster(p)
    empty = _place(cluster, task, workers, seed=3)
    with use_backend(backend, workers=workers):
        columns, bounds = cluster.compute(task, *LOCAL_STEPS[task])
    return [(c.dtype, c.tolist()) for c in columns], bounds.tolist(), empty


@pytest.fixture(scope="class")
def pools_closed_after():
    yield
    from repro.exec.pool import shutdown_pools

    shutdown_pools()


@pytest.mark.usefixtures("pools_closed_after")
class TestUnevenWorkerCuts:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 5, 8, 13])
    @pytest.mark.parametrize("task", sorted(LOCAL_STEPS))
    def test_every_task_gives_the_inline_table_on_any_cut(self, task, p, workers):
        inline = _step(task, p, workers, "inline")
        process = _step(task, p, workers, "process")
        assert process == inline
        table, bounds, empty = inline
        assert len(bounds) == p + 1 and bounds[-1] == len(table[0][1])
        assert all(bounds[sid] == bounds[sid + 1] for sid in empty)  # a server left empty

    @pytest.mark.parametrize("task", sorted(LOCAL_STEPS))
    def test_a_local_step_concatenates_each_fragment_column_once(self, task, monkeypatch):
        from repro.mpc import cluster as cluster_module

        calls = []
        real = cluster_module.concatenated
        monkeypatch.setattr(cluster_module, "concatenated",
                            lambda blocks: calls.append(len(blocks)) or real(blocks))
        _step(task, 8, 1, "inline")
        assert len(calls) == sum(arity for _, arity in LOCAL_STEPS[task][0])


def test_result_slices_alias_no_catalog_array():
    rels = relations()
    catalog = [c for rel in rels.values() for c in rel.columns()]
    for run in (parallel_hash_join(rels["R"], rels["S"], 8),
                hypercube_join(triangle_query(), rels, 8),
                hypercube_join(ConjunctiveQuery([Atom("R", ["x", "y"])]), rels, 8)):
        for column in run.output.columns():
            assert not any(np.shares_memory(column, c) and c.flags.writeable for c in catalog)
        second = run.output.rename({})
        assert all(not c.flags.writeable for c in second.columns())  # shareable read-only
    payloads = join_payloads(8, 1, "duplicates")
    inputs = [c for l_cols, r_cols in payloads for c in (*l_cols, *r_cols)]
    for result in per_server(join_fragment_chunk(chunk_of(payloads), JOIN_COMMONS[1])):
        assert not any(np.shares_memory(column, c) for column in result for c in inputs)


# ----------------------------------------------------------- the satellites

class TestPackedCodes:
    def test_packed_order_is_lexsort_order_with_ties(self):
        rng = np.random.default_rng(2)
        cols = [ints(rng, 400, -5, 5), ints(rng, 400, 0, 3), ints(rng, 400, -2, 2)]
        rel = Relation.from_columns("R", ["a", "b", "c"], cols + [np.arange(400)][:0])
        packed = pack_columns(cols)
        assert packed is not None
        assert np.argsort(packed[0], kind="stable").tolist() == np.lexsort(cols[::-1]).tolist()
        by_rows = Relation("R", ["a", "b", "c"], rel.rows_readonly())
        for attrs in (["a"], ["b", "a"], ["c", "b", "a"]):
            assert rel.sorted_by(attrs).rows_readonly() == by_rows.sorted_by(attrs).rows_readonly()

    def test_overflow_and_uint64_fall_back_to_lexsort(self):
        wide = np.array([WIDE, -WIDE, 0, WIDE, -WIDE])
        assert pack_columns([wide, wide]) is None
        tie = np.array([4, 3, 2, 1, 0])
        rel = Relation.from_columns("R", ["a", "b", "t"], [wide, wide, tie])
        assert rel.sorted_by(["a", "b"]).rows_readonly() == sorted(
            rel.rows_readonly(), key=lambda row: row[:2])
        big = Relation.from_columns("U", ["a", "t"], [np.array([BIG, 1, BIG], dtype=np.uint64), tie[:3]])
        assert big.sorted_by(["a"]).rows_readonly() == [(1, 3), (BIG, 4), (BIG, 2)]

    def test_codes_past_the_packing_stay_injective(self):
        left = [np.array([0, 0, 1, 1]), np.array([WIDE, -WIDE, WIDE, -WIDE]), np.array([5, 5, 5, 6])]
        right = [np.array([1, 0]), np.array([-WIDE, WIDE]), np.array([6, 5])]
        l_codes, r_codes = code_key_columns(left, right)
        assert len(set(l_codes.tolist())) == 4
        assert (l_codes[3], l_codes[0]) == tuple(r_codes)


class TestPsiStarIsKeptPerHypergraph:
    def test_a_hit_is_the_fresh_value_and_solves_nothing(self, monkeypatch):
        query = triangle_query()
        lp.clear()
        fresh = psi_star(query)
        solves = []
        real = lp.solve
        monkeypatch.setattr(lp, "solve", lambda *a: solves.append(a) or real(*a))
        assert psi_star(triangle_query()) == fresh == 2.0 and not solves
        lp.clear()  # the one thing that forgets it; clear_memo() does not
        assert psi_star(query) == fresh and len(solves) == 7
        clear_memo()
        assert psi_star(query) == fresh and len(solves) == 7

    def test_a_different_hypergraph_is_a_different_entry(self):
        lp.clear()
        assert psi_star(ConjunctiveQuery([Atom("R", ["x", "y"])])) == 1.0
        assert psi_star(triangle_query()) == 2.0


class TestExtendAppends:
    def test_exact_ints_append_a_block_and_stay_columnar(self):
        rel = Relation.from_columns("R", ["x", "y"], [np.arange(4), np.arange(4) * 2])
        rel.rows_readonly()  # a derived view must grow with the columns
        token = rel.mutation_token()
        rel.extend([(7, 8), (9, 10)])
        assert [c.dtype for c in rel.columns()] == [np.int64, np.int64]
        assert rel.mutation_token() == token + 1
        assert [c.tolist() for c in rel.columns()] == [[0, 1, 2, 3, 7, 9], [0, 2, 4, 6, 8, 10]]
        assert rel.rows_readonly()[-2:] == [(7, 8), (9, 10)] and len(rel) == 6

    def test_an_empty_extend_is_a_no_op(self):
        rel = Relation.from_columns("R", ["x"], [np.arange(3)])
        token = rel.mutation_token()
        rel.extend([])
        assert rel.mutation_token() == token

    @pytest.mark.parametrize("suffix", [
        [(1, "s")], [(1, True)], [(1, 2.0)], [(1, BIG)], [(1, np.int64(3))],
    ])
    def test_a_suffix_the_columns_cannot_hold_demotes(self, suffix):
        # An int64 column demotes to object: one block per column still.
        rel = Relation.from_columns("R", ["x", "y"], [np.arange(2), np.arange(2)])
        token = rel.mutation_token()
        rel.extend(suffix)
        assert rel.mutation_token() == token + 1
        assert [c.dtype for c in rel.columns()] == [np.int64, object]
        assert rel.rows_readonly() == [(0, 0), (1, 1), suffix[0]]
        assert type(rel.rows_readonly()[-1][1]) is type(suffix[0][1])

    def test_a_rejected_call_leaves_the_relation_untouched(self):
        from repro.errors import SchemaError

        for rel in (Relation.from_columns("R", ["x", "y"], [np.arange(2), np.arange(2)]),
                    Relation("R", ["x", "y"], [(0, 0), (1, 1)])):
            token, columns = rel.mutation_token(), rel.columns()
            with pytest.raises(SchemaError, match="arity"):
                rel.extend([(5, 5), (6,)])
            assert rel.mutation_token() == token and rel.columns() is columns
            assert rel.rows_readonly() == [(0, 0), (1, 1)]

    def test_row_primary_extends_in_one_step(self):
        rel = Relation("R", ["x"], [(1,)])
        token = rel.mutation_token()
        rel.extend((i,) for i in range(3))
        assert rel.mutation_token() == token + 1 and rel.rows_readonly() == [(1,), (0,), (1,), (2,)]
