"""Grouping counts over a narrow span and answers what one sort did.

``memo.grouped`` counts ``int64`` keys whose packed span is narrow
(``np.bincount``, ``np.add.at`` for ``int64`` weights) and unpacks the
distinct keys from the non-empty slots; ``Relation.distinct`` takes its
first occurrences from a table over the same span. The reference below is
the sort it replaced, written over Python values: a key position is its
value when every value is an exact integer in ``int64`` range, else its
first-seen index among the column's values (Python ``==``), and the groups
come out in ascending order of those code tuples, each key as its first row
holds it. Both must agree byte for byte — keys, counts, dtypes, order — on
narrow, wide and negative spans, spans near ±2⁶³, ``uint64`` above the
signed range, ``object`` keys, one to three key columns, ``int64`` and
``object`` weights, and empty input. The ``fuzz`` variant runs the same
property on more and larger examples.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.kernels.join import joint_codes, narrow_codes, slots
from repro.kernels.memo import grouped

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


# ----------------------------------------------------------- the reference

def _position_codes(column: np.ndarray) -> list:
    values = column.tolist()
    if column.dtype != object and all(INT64_MIN <= v <= INT64_MAX for v in values):
        return values
    index: dict = {}
    return [index.setdefault(v, len(index)) for v in values]


def reference_grouped(keys, weights=None):
    """``(distinct keys, counts)`` by one dict and one sort of the code tuples."""
    n = len(keys[0]) if keys else len(weights)
    weights = np.ones(n, np.int64) if weights is None else weights
    groups: dict = {}
    for row, code in enumerate(zip(*map(_position_codes, keys)) if keys else [()] * n):
        if code in groups:
            groups[code][1] += weights[row]
        else:
            groups[code] = [row, weights[row]]
    ranked = sorted(groups)
    first = np.array([groups[code][0] for code in ranked], dtype=np.intp)
    counts = np.empty(len(ranked), dtype=weights.dtype)
    counts[:] = [groups[code][1] for code in ranked]
    return [key[first] for key in keys], counts


def reference_distinct(rel: Relation) -> list:
    seen, rows = set(), []
    for row in zip(*(_position_codes(c) for c in rel.columns())):
        rows.append(row not in seen)
        seen.add(row)
    return rows


def same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    if want.dtype == object:
        assert [(type(v), v) for v in got.tolist()] == [(type(v), v) for v in want.tolist()]
    else:
        assert got.tobytes() == want.tobytes()


def same_grouping(got, want) -> None:
    assert len(got[0]) == len(want[0])
    for got_key, want_key in zip(got[0], want[0]):
        same_array(got_key, want_key)
    same_array(got[1], want[1])


# ------------------------------------------------------------ the inputs

# (low, width) windows a key column draws from: narrow, wide, negative, and
# against either end of the int64 range.
WINDOWS = {
    "tiny": (5, 2),
    "narrow": (0, 6),
    "negative": (-40, 30),
    "wide": (-(2**40), 2**41),
    "near-min": (INT64_MIN, 9),
    "near-max": (INT64_MAX - 8, 9),
    "both-ends": None,
}
OBJECTS = [1, 1.0, 2, "a", "b", (1, "a"), (True, "a"), None, -3, 2**70]


@st.composite
def key_column(draw, n: int) -> np.ndarray:
    kind = draw(st.sampled_from([*WINDOWS, "uint64", "object"]))
    if kind == "object":
        values = draw(st.lists(st.sampled_from(OBJECTS), min_size=n, max_size=n))
        return np.fromiter(values, dtype=object, count=n)
    if kind == "uint64":  # above the signed range, or meeting it
        values = draw(st.lists(st.integers(2**63 - 3, 2**63 + 4), min_size=n, max_size=n))
        return np.array(values, dtype=np.uint64)
    if kind == "both-ends":
        ends = st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX - 1, INT64_MAX])
        return np.array(draw(st.lists(ends, min_size=n, max_size=n)), dtype=np.int64)
    low, width = WINDOWS[kind]
    values = draw(st.lists(st.integers(low, low + width - 1), min_size=n, max_size=n))
    return np.array(values, dtype=np.int64)


@st.composite
def grouping_input(draw, max_rows: int) -> tuple:
    n = draw(st.integers(0, max_rows))
    keys = [draw(key_column(n)) for _ in range(draw(st.integers(1, 3)))]
    kind = draw(st.sampled_from(["none", "int64", "object"]))
    if kind == "none":
        return keys, None
    values = draw(st.lists(st.integers(-3, 5), min_size=n, max_size=n))
    if kind == "int64":
        return keys, np.array(values, dtype=np.int64)
    big = draw(st.booleans())  # Python ints past 64 bits
    weights = np.empty(n, dtype=object)
    weights[:] = [v * 2**70 if big else v for v in values]
    return keys, weights


def check(keys, weights) -> None:
    same_grouping(grouped(keys, weights), reference_grouped(keys, weights))


# --------------------------------------------------------------- the tests

@settings(max_examples=150, deadline=None)
@given(grouping_input(max_rows=30))
def test_grouped_answers_the_sort(case):
    check(*case)


@pytest.mark.fuzz
@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grouping_input(max_rows=400))
def test_grouped_answers_the_sort_deep(case):
    check(*case)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.lists(key_column(n), min_size=1, max_size=2)))
def test_distinct_keeps_the_first_of_each_key(columns):
    rel = Relation.from_columns("R", ["a", "b"][:len(columns)], columns)
    want = reference_distinct(rel)
    got = rel.distinct()
    for got_column, column in zip(got.columns(), rel.columns()):
        same_array(got_column, column[np.array(want, dtype=bool)])


def test_a_narrow_span_is_counted_and_a_wide_one_sorted():
    rng = np.random.default_rng(5)
    n = 600
    narrow = [rng.integers(-50, 350, n), rng.integers(0, 3, n), rng.integers(-2, 1, n)]
    assert all(narrow_codes(narrow[:k]) is not None for k in (1, 2, 3))
    wide = [rng.integers(0, 6 * n + 2, n) * 2]
    assert narrow_codes(wide) is None
    assert narrow_codes([narrow[0].astype(np.uint64)]) is None  # int64 keys only
    assert narrow_codes([narrow[0].astype(object)]) is None
    assert narrow_codes([narrow[0][:0]]) is None
    weights = rng.integers(0, 4, n)
    for keys in (narrow[:1], narrow[:2], narrow, narrow[::-1], wide):
        check(keys, None)
        check(keys, weights)


def test_a_key_whose_weights_sum_to_zero_is_kept():
    keys = [np.array([3, 1, 3, 2], dtype=np.int64)]
    (distinct,), counts = grouped(keys, np.array([2, 0, -2, 1], dtype=np.int64))
    assert distinct.tolist() == [1, 2, 3] and counts.tolist() == [0, 1, 0]
    assert counts.dtype == np.int64


def test_packed_codes_lie_in_the_span_slots_take():
    rng = np.random.default_rng(9)
    left = [np.repeat(np.arange(4), 50), rng.integers(-20, 20, 200)]
    right = [np.repeat(np.arange(4), 10), rng.integers(-25, 15, 40)]
    codes, span = joint_codes(left, right)
    assert 0 <= codes.min() and codes.max() < span
    rows, members = codes[:200], codes[200:]
    given_span, own_span = slots(members, rows, span), slots(members, rows)
    for (held, at, size) in (given_span, own_span):
        marked = np.zeros(size, dtype=bool)
        marked[held] = True
        assert marked[at].tolist() == np.isin(rows, members).tolist()
    assert joint_codes(left[1:], right[1:])[1] is None  # one position: its values
