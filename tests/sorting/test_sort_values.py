"""Every value kind sorts as ``sorted`` does, returning the caller's objects.

The sorts order (key, position) columns whose key column is built by the
one column rule — ``int64``, ``uint64`` above ``int64`` max, ``object``
for anything else — so the same body must take ints, bools, ``±0.0``,
floats, strings, tuples, ints past 64 bits and mixed numbers, and give
back, element by element and by identity, ``sorted(items, key=key)``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.config import use_backend
from repro.exec.pool import WorkerError
from repro.sorting.multiround import multiround_sort
from repro.sorting.psrs import psrs_sort

KINDS = {
    "int": st.integers(-50, 50),
    "bool": st.booleans(),
    "signed-zero": st.sampled_from([0.0, -0.0]),
    "float": st.floats(allow_nan=False),
    "str": st.text(max_size=3),
    "tuple": st.tuples(st.integers(0, 3), st.text(max_size=2)),
    "uint64": st.one_of(st.integers(0, 9), st.integers(2**63, 2**64 - 1)),
    "past-64-bits": st.one_of(st.integers(-9, 9), st.integers(2**64, 2**70)),
    "mixed-numeric": st.one_of(st.integers(-5, 5), st.floats(-5, 5, allow_nan=False),
                               st.booleans()),
}
KEYS = {"identity": None, "constant": lambda x: 0, "repr": repr}


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    items = draw(st.lists(KINDS[kind], max_size=200))
    return items, draw(st.integers(1, 9)), draw(st.sampled_from(sorted(KEYS)))


def _keyed(name):
    return {} if KEYS[name] is None else {"key": KEYS[name]}


def assert_the_very_objects(out, items, key_name):
    want = sorted(items, key=KEYS[key_name] or (lambda x: x))
    assert len(out) == len(want)
    assert all(got is expected for got, expected in zip(out, want))


@settings(max_examples=120, deadline=None)
@given(instance=instances(), random_sampling=st.booleans())
def test_psrs_sort_is_sorted_by_identity(instance, random_sampling):
    items, p, key_name = instance
    out, _ = psrs_sort(items, p, use_random_sampling=random_sampling, **_keyed(key_name))
    assert_the_very_objects(out, items, key_name)


@settings(max_examples=80, deadline=None)
@given(instance=instances(), load_cap=st.sampled_from([4, 16, 100]))
def test_multiround_sort_is_sorted_by_identity(instance, load_cap):
    items, p, key_name = instance
    out, _ = multiround_sort(items, p, load_cap, **_keyed(key_name))
    assert_the_very_objects(out, items, key_name)


@pytest.mark.parametrize("backend", ["inline", "process"])
@pytest.mark.parametrize("p", [1, 2, 5])
def test_incomparable_items_raise(backend, p):
    # Where a worker's sort meets the pair, the process backend surfaces the
    # TypeError inside a WorkerError carrying the remote traceback.
    raised = TypeError if backend == "inline" else (TypeError, WorkerError)
    with use_backend(backend, workers=2):
        with pytest.raises(raised, match="'<' not supported"):
            psrs_sort([1, "a"] * 3, p)
        with pytest.raises(raised, match="'<' not supported"):
            multiround_sort([1, "a"] * 3, p, 16)
