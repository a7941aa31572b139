"""A split result patched after an append: one delta run, not k branches.

When a ``split > 1`` read misses because one of its inputs grew, the
service runs the query once over the appended rows and merges that into
the result it had cached (``QueryService._patch``). Every read here is
checked against a ``cache_size=0`` service fed the same steps, which
always rebuilds: the patched output must be the same bytes — the same
rows in the same order, with the same column dtypes.
"""

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.service import QueryService

QUERY = "Q(a, b, c) :- R(a, b), S(b, c)"
# R2 is R itself, registered under a second name: an append to R moves both.
SELF_JOIN = "Q(a, b) :- R(a, b), R2(a, b)"


def relations():
    return {
        "R": Relation("R", ["a", "b"], [(i, i % 5) for i in range(60)]),
        "S": Relation("S", ["b", "c"], [(i % 5, i) for i in range(40)]),
        "T": Relation("T", ["c", "d"], [(i, i % 3) for i in range(20)]),
    }


def fingerprint(result):
    """Everything a byte comparison of two outputs looks at: ``-1`` and
    ``-1.0`` are equal values, not equal bytes."""
    output = result.output
    return (
        output.schema.attributes,
        [column.dtype for column in output.columns()],
        [tuple((type(value), value) for value in row) for row in output.rows()],
    )


def replay(steps, cache_size):
    """Run ``steps`` on a fresh service; the results of its reads and the
    service's final stats."""
    reads = []
    catalog = relations()
    catalog["R2"] = catalog["R"]
    with QueryService(catalog, p=4, cache_size=cache_size) as service:
        for step in steps:
            kind, *args = step
            if kind == "extend":
                name, rows = args
                service.extend(name, rows)
            elif kind == "register":
                name, rows = args
                attributes = service.warehouse.relation(name).schema.attributes
                service.register(Relation(name, attributes, rows))
            else:
                query, split, strategy = args
                reads.append(service.query(query, split=split, strategy=strategy))
        return reads, service.stats()


def patched_against_rebuilt(steps):
    """The reads and stats of the caching service, after checking every
    read is byte-identical to the always-rebuilding service's."""
    reads, stats = replay(steps, 256)
    rebuilt, _ = replay(steps, 0)
    assert [fingerprint(r) for r in reads] == [fingerprint(r) for r in rebuilt]
    return reads, stats


def test_a_read_after_one_extend_is_patched():
    reads, stats = patched_against_rebuilt([
        ("read", QUERY, 3, "auto"),
        ("extend", "R", [(100, 0), (101, 3)]),
        ("read", QUERY, 3, "auto"),
    ])
    first, patched = reads
    assert stats.patched_queries == 1
    assert len(first.strategy) == 3 and len(patched.strategy) == 1
    assert patched.cache_hit is False
    assert len(patched.output) == len(first.output) + 16
    assert stats.cache.invalidations == 1


def test_a_patched_read_is_cached_like_a_rebuilt_one():
    reads, stats = patched_against_rebuilt([
        ("read", QUERY, 2, "hash"),
        ("extend", "R", [(100, 0)]),
        ("read", QUERY, 2, "hash"),
        ("read", QUERY, 2, "hash"),
        ("extend", "R", [(101, 1)]),
        ("read", QUERY, 2, "hash"),
    ])
    assert [r.cache_hit for r in reads] == [False, False, True, False]
    assert [len(r.strategy) for r in reads] == [2, 1, 1, 1]
    assert stats.patched_queries == 2


def test_two_extends_patch_from_the_first_base():
    reads, stats = patched_against_rebuilt([
        ("read", QUERY, 2, "auto"),
        ("extend", "R", [(100, 0)]),
        ("extend", "R", [(101, 2), (102, 4)]),
        ("read", QUERY, 2, "auto"),
    ])
    assert stats.patched_queries == 1
    assert len(reads[1].strategy) == 1
    assert len(reads[1].output) == len(reads[0].output) + 3 * 8


def test_an_append_to_an_unread_relation_leaves_the_entry_a_hit():
    reads, stats = patched_against_rebuilt([
        ("read", QUERY, 3, "auto"),
        ("extend", "T", [(1, 1)]),
        ("read", QUERY, 3, "auto"),
    ])
    assert reads[1].cache_hit is True
    assert stats.patched_queries == 0


def rebuilds(steps, split):
    reads, stats = patched_against_rebuilt(steps)
    assert stats.patched_queries == 0
    assert reads[-1].cache_hit is False
    assert len(reads[-1].strategy) == split


def test_a_self_join_on_the_changed_relation_rebuilds():
    rebuilds([
        ("read", SELF_JOIN, 2, "auto"),
        ("extend", "R", [(4, 4)]),
        ("read", SELF_JOIN, 2, "auto"),
    ], split=2)


def test_two_changed_inputs_rebuild():
    rebuilds([
        ("read", QUERY, 3, "auto"),
        ("extend", "R", [(100, 0)]),
        ("extend", "S", [(0, 100)]),
        ("read", QUERY, 3, "auto"),
    ], split=3)


def test_a_register_rebuilds():
    rebuilds([
        ("read", QUERY, 2, "auto"),
        ("register", "R", [(i, i % 5) for i in range(61)]),
        ("read", QUERY, 2, "auto"),
    ], split=2)


def test_split_one_rebuilds():
    rebuilds([
        ("read", QUERY, 1, "auto"),
        ("extend", "R", [(100, 0)]),
        ("read", QUERY, 1, "auto"),
    ], split=1)


def test_an_append_of_an_equal_value_of_another_type_rebuilds():
    # -1 and -1.0 tie in the canonical order, but the splitter sends them
    # to different branches (-1 % 3 == 2, hash(-1.0) % 3 == 1), so the
    # rebuild lists the appended row first; a patch would list it last.
    rebuilds([
        ("extend", "R", [(-1, 0)]),
        ("read", QUERY, 3, "auto"),
        ("extend", "R", [(-1.0, 0)]),
        ("read", QUERY, 3, "auto"),
    ], split=3)


rows = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=7)
reads = st.tuples(
    st.just("read"), st.sampled_from((QUERY, SELF_JOIN)),
    st.sampled_from((2, 3)), st.sampled_from(("auto", "hash")),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), st.sampled_from("RSRST"), rows),
        st.tuples(st.just("both"), rows, rows),
        st.tuples(st.just("register"), st.sampled_from("RS"), rows),
        reads,
    ),
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(reads, steps)
def test_interleaved_reads_and_writes_match_an_always_rebuilding_service(first, drawn):
    # "both" appends to both inputs of QUERY. Every write is followed by
    # the last read again, so most writes meet a read that can patch.
    expanded, last = [first], first
    for step in drawn:
        if step[0] == "read":
            expanded.append(step)
            last = step
            continue
        if step[0] == "both":
            expanded += [("extend", "R", step[1]), ("extend", "S", step[2])]
        else:
            expanded.append(step)
        expanded.append(last)
    _, stats = patched_against_rebuilt(expanded)
    event("patched reads: " + ("3+" if stats.patched_queries >= 3 else str(stats.patched_queries)))


def test_the_delta_dies_with_the_patch(monkeypatch):
    """The delta relation a patch runs over is collected once the read
    is done: no memo entry holds it."""
    import gc
    import weakref

    import repro.service.service as service_module

    deltas = []
    real_run = service_module.run_query

    def spying(cq, bindings, *args, **kwargs):
        deltas.extend(weakref.ref(rel) for rel in bindings.values() if len(rel) == 2)
        return real_run(cq, bindings, *args, **kwargs)

    monkeypatch.setattr(service_module, "run_query", spying)
    with QueryService(relations(), p=4) as service:
        service.query(QUERY, split=2)
        service.extend("R", [(100, 1), (101, 2)])
        service.query(QUERY, split=2)
        assert service.stats().patched_queries == 1
        gc.collect()
        assert len(deltas) == 1 and deltas[0]() is None
