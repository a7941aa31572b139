"""Tests for the query-splitting rewriter (repro.service.splitter)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.engine import Engine
from repro.errors import QueryError
from repro.kernels.memo import forget
from repro.query.parser import parse_query
from repro.service.splitter import (
    canonical,
    choose_split_atom,
    merge_branches,
    split_bindings,
    split_relation,
)


@pytest.fixture
def r():
    return Relation("R", ["a", "b"], [(i, i % 5) for i in range(40)])


@pytest.fixture
def s():
    return Relation("S", ["b", "c"], [(i % 5, i) for i in range(25)])


def test_split_is_a_partition(r):
    fragments = split_relation(r, 3)
    assert len(fragments) == 3
    whole = Counter(r.rows_readonly())
    pieces = Counter()
    for fragment in fragments:
        pieces.update(fragment.rows_readonly())
    assert whole == pieces
    for fragment in fragments:
        assert fragment.schema.attributes == r.schema.attributes


def test_split_respects_mod_rule(r):
    fragments = split_relation(r, 4, attribute="a")
    for branch, fragment in enumerate(fragments):
        assert all(row[0] % 4 == branch for row in fragment.rows_readonly())


def test_split_columnar_input_stays_columnar():
    rel = Relation.from_columns(
        "R", ["a", "b"],
        [list(range(20)), [i % 3 for i in range(20)]],
    )
    fragments = split_relation(rel, 2)
    assert all(f.columns() is not None for f in fragments)
    whole = Counter(rel.rows_readonly())
    pieces = Counter()
    for fragment in fragments:
        pieces.update(fragment.rows_readonly())
    assert whole == pieces


def test_split_k1_returns_relation_unchanged(r):
    assert split_relation(r, 1) == [r]


def test_split_errors():
    rel = Relation("R", ["a"], [(1,)])
    with pytest.raises(QueryError):
        split_relation(rel, 0)
    with pytest.raises(QueryError):
        split_relation(rel, 2, attribute="nope")


def test_split_non_integer_values_partition():
    rel = Relation("R", ["a", "b"], [(f"k{i}", i) for i in range(30)])
    fragments = split_relation(rel, 3)
    whole = Counter(rel.rows_readonly())
    pieces = Counter()
    for fragment in fragments:
        pieces.update(fragment.rows_readonly())
    assert whole == pieces


def test_choose_split_atom_picks_largest(r, s):
    query = parse_query("Q(a, b, c) :- R(a, b), S(b, c)")
    assert choose_split_atom(query, {"R": r, "S": s}) == "R"


def test_split_bindings_shapes(r, s):
    query = parse_query("Q(a, b, c) :- R(a, b), S(b, c)")
    branches = split_bindings(query, {"R": r, "S": s}, 3)
    assert len(branches) == 3
    for branch in branches:
        assert set(branch) == {"R", "S"}
        assert branch["S"] is s            # non-split atoms share the object
    sizes = sum(len(branch["R"]) for branch in branches)
    assert sizes == len(r)


def test_split_bindings_unknown_atom(r, s):
    query = parse_query("Q(a, b, c) :- R(a, b), S(b, c)")
    with pytest.raises(QueryError):
        split_bindings(query, {"R": r, "S": s}, 2, atom="T")


def test_merge_branches_empty_errors():
    with pytest.raises(QueryError):
        merge_branches([])


def test_byte_identity_against_unsplit_run(r, s):
    """canonical(merge(branch outputs)) == canonical(unsplit output), exactly."""
    query = parse_query("Q(a, b, c) :- R(a, b), S(b, c)")
    engine = Engine(4)
    engine.register(r)
    engine.register(s)
    whole = engine.query(query).output

    outputs = []
    for branch in split_bindings(query, {"R": r, "S": s}, 3):
        branch_engine = Engine(4)
        for name, rel in branch.items():
            branch_engine.register(rel, name=name)
        outputs.append(branch_engine.query(query).output)
    merged = merge_branches(outputs)
    assert merged.rows_readonly() == canonical(whole).rows_readonly()


# ------------------------------------- fragments are a view of their parent


def _same_objects(left, right):
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


def _assert_partition(parent, fragments):
    pieces = Counter()
    for fragment in fragments:
        pieces.update(fragment.rows_readonly())
    assert pieces == Counter(parent.rows_readonly())


def test_unchanged_parent_hands_out_the_same_fragments(r, s):
    first = split_relation(r, 3)
    again = split_relation(r, 3)
    assert _same_objects(first, again)
    assert first is not again  # the list is the caller's own
    again.clear()
    assert _same_objects(split_relation(r, 3), first)
    # k and the attribute are part of the view's key.
    assert not _same_objects(split_relation(r, 2), first[:2])
    assert not _same_objects(split_relation(r, 3, attribute="b"), first)
    assert _same_objects(split_relation(r, 3, attribute="a"), first)
    # Branch maps share them too, beside the unsplit inputs.
    query = parse_query("Q(a, b, c) :- R(a, b), S(b, c)")
    branches = split_bindings(query, {"R": r, "S": s}, 3, atom="R")
    assert _same_objects([b["R"] for b in branches], first)


def test_mutating_the_parent_splits_afresh(r):
    first = split_relation(r, 3)
    r.extend([(100 + i, i) for i in range(7)])
    second = split_relation(r, 3)
    assert not any(a is b for a, b in zip(first, second))
    _assert_partition(r, second)
    assert _same_objects(split_relation(r, 3), second)


@pytest.mark.parametrize("tamper, mutates", [
    (lambda fragment: fragment.add((3, 3)), True),
    (lambda fragment: fragment.extend([(6, 1), (9, 2)]), True),
    (lambda fragment: fragment.rows().append((12, 4)), False),
    (lambda fragment: fragment.rows(), False),
], ids=["add", "extend", "borrowed-edit", "borrowed"])
def test_a_mutated_or_borrowed_fragment_is_never_served_again(r, tamper, mutates):
    first = split_relation(r, 3)
    tamper(first[0])
    second = split_relation(r, 3)
    _assert_partition(r, second)  # whatever was done, nothing tampered is served
    if mutates:
        assert not any(a is b for a, b in zip(first, second))
    else:  # a rows() list is the caller's copy: the fragment is unchanged
        assert _same_objects(second, first)
    # The entry (rebuilt or not) is what later calls share.
    assert _same_objects(split_relation(r, 3), second)


def test_forget_drops_the_fragments_of_the_parent(r):
    first = split_relation(r, 3)
    assert forget(r) >= 1
    second = split_relation(r, 3)
    assert not any(a is b for a, b in zip(first, second))
    _assert_partition(r, second)


def test_borrowed_parent_is_split_on_every_call():
    # The constructor (which wrap() folded into) reads the list into columns,
    # so an edit of the source list is not the parent's: its fragments
    # stay the memoized ones, and stay right.
    rows = [(i, i % 5) for i in range(40)]
    rel = Relation("R", ["a", "b"], rows)
    first = split_relation(rel, 2)
    rows[0] = (1, 0)
    second = split_relation(rel, 2)
    assert _same_objects(second, first)
    assert rel.rows_readonly()[0] == (0, 0)
    _assert_partition(rel, second)
    assert forget(rel) >= 1


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(-50, 50), st.integers(0, 8)),
        min_size=0, max_size=60,
    ),
    k=st.integers(1, 5),
)
def test_split_partition_property(rows, k):
    """Every row lands in exactly one fragment, for any k and contents."""
    rel = Relation("R", ["a", "b"], rows)
    fragments = split_relation(rel, k)
    assert len(fragments) == k
    pieces = Counter()
    for fragment in fragments:
        pieces.update(fragment.rows_readonly())
    assert pieces == Counter(rel.rows_readonly())
