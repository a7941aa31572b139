"""Property-based coherency of the dual-representation Relation.

A relation can be born row-primary (tuple constructor, ``wrap``) or
column-primary (``from_columns``), then suffer any interleaving of
mutations (``add``/``extend``), in-place edits of the lists ``rows()``
hands out (the caller's copies: the relation never sees them) and
accessor calls. Whatever the history, two invariants must hold at every
step, on the kernels and on the scalar rung (``kernels=False``):

- ``rows_readonly()`` equals the shadow list of tuples the operations
  imply (the tuple view is the model's ground truth);
- ``columns()``, when it returns arrays at all, equals a fresh
  column extraction of that same shadow — never a stale snapshot.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.kernels.columnar import exact, key_columns
from tests.holdings import scalar_rung

ARITY = 2

values = st.integers(min_value=-(2**40), max_value=2**40)
rows_st = st.tuples(*[values] * ARITY)


def _fresh_columns(rows):
    columns = key_columns(rows, range(ARITY))
    return columns if exact(columns) else None


def _rung(kernels):
    return nullcontext() if kernels else scalar_rung()


def _check_coherent(rel, shadow):
    assert rel.rows_readonly() == shadow
    assert len(rel) == len(shadow)
    cols = rel.columns()
    expected = _fresh_columns(shadow)
    if expected is None:
        return  # nothing to compare; columns() may also be None
    if cols is None:
        return  # declining the fast path is always allowed
    assert [c.tolist() for c in cols] == [c.tolist() for c in expected]


# One operation = (tag, payload); payloads are drawn up front so the
# sequence is deterministic and shrinkable.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), rows_st),
        st.tuples(st.just("extend"), st.lists(rows_st, max_size=4)),
        st.tuples(st.just("set_inplace"), st.integers(0, 7), rows_st),
        st.tuples(st.just("append_inplace"), rows_st),
        st.tuples(st.just("columns"), st.just(None)),
        st.tuples(st.just("rows_readonly"), st.just(None)),
    ),
    max_size=12,
)

starts = st.sampled_from(["tuples", "wrap", "from_columns"])


def _build(start, initial):
    if start == "from_columns":
        cols = [
            np.array([row[i] for row in initial], dtype=np.int64)
            for i in range(ARITY)
        ]
        return Relation.from_columns("R", ["x", "y"], cols)
    if start == "wrap":
        return Relation.wrap("R", ["x", "y"], list(initial))
    return Relation("R", ["x", "y"], initial)


@pytest.mark.parametrize("kernels", [True, False])
@settings(max_examples=120, deadline=None)
@given(
    start=starts,
    initial=st.lists(rows_st, max_size=6),
    ops=operations,
)
def test_any_interleaving_stays_coherent(kernels, start, initial, ops):
    with _rung(kernels):
        rel = _build(start, initial)
        shadow = list(initial)
        _check_coherent(rel, shadow)
        for tag, *payload in ops:
            if tag == "add":
                rel.add(payload[0])
                shadow.append(payload[0])
            elif tag == "extend":
                rel.extend(payload[0])
                shadow.extend(payload[0])
            elif tag == "set_inplace":
                index, row = payload
                live = rel.rows()
                assert live == shadow
                if live:
                    live[index % len(live)] = row  # the copy: shadow unchanged
            elif tag == "append_inplace":
                rel.rows().append(payload[0])
            elif tag == "columns":
                rel.columns()
            elif tag == "rows_readonly":
                rel.rows_readonly()
            _check_coherent(rel, shadow)


@pytest.mark.parametrize("kernels", [True, False])
@settings(max_examples=60, deadline=None)
@given(initial=st.lists(rows_st, min_size=1, max_size=8))
def test_join_agrees_across_representations(kernels, initial):
    """Row-primary and column-primary builds of the same bag join alike."""
    with _rung(kernels):
        by_rows = Relation("R", ["x", "y"], initial)
        by_cols = _build("from_columns", initial)
        other = Relation("S", ["y", "z"], [(row[1], i) for i, row in enumerate(initial)])
        a = sorted(by_rows.join(other).rows_readonly())
        b = sorted(by_cols.join(other).rows_readonly())
        assert a == b
        assert sorted(by_rows.semijoin(other).rows_readonly()) == \
            sorted(by_cols.semijoin(other).rows_readonly())
        assert by_rows.sorted_by(["y", "x"]).rows_readonly() == \
            by_cols.sorted_by(["y", "x"]).rows_readonly()
