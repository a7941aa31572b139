"""Regression tests for the Relation concurrency contract.

The module docstring of :mod:`repro.data.relation` promises that
concurrent *readers* are safe — including racing lazy derivations of
the tuple view and ``rows()`` copies handed out while others read. These
tests hammer those paths from many barrier-started threads; before the
internal lock, racing ``_materialize``/``columns`` calls could observe
half-built caches or double-derive into inconsistent state.
"""

import threading

import numpy as np

from repro.data.relation import Relation


def hammer(n_threads, fn):
    barrier = threading.Barrier(n_threads)
    outcomes = [None] * n_threads
    errors = []

    def worker(index):
        try:
            barrier.wait(timeout=10)
            outcomes[index] = fn(index)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return outcomes


def test_concurrent_row_derivation_from_columns():
    """Racing lazy row materialization on a relation built from columns."""
    rel = Relation.from_columns(
        "R", ["a", "b"],
        [np.arange(5000), np.arange(5000) % 17],
    )
    expected = [(int(i), int(i % 17)) for i in range(5000)]

    outcomes = hammer(8, lambda i: list(rel.rows_readonly()))
    assert all(rows == expected for rows in outcomes)


def test_concurrent_column_derivation_from_rows():
    """Racing column readers on a relation built from tuples."""
    rel = Relation("R", ["a", "b"], [(i, i % 13) for i in range(4000)])
    expected_a = list(range(4000))

    def read(index):
        cols = rel.columns()
        if cols is None:
            return None
        return [int(v) for v in cols[0]]

    outcomes = hammer(8, read)
    materialized = [o for o in outcomes if o is not None]
    assert materialized, "columns() never materialized"
    assert all(o == expected_a for o in materialized)


def test_concurrent_mixed_readers_agree():
    """rows_readonly(), columns(), len, and operators racing freely."""
    rel = Relation.from_columns(
        "R", ["a", "b"],
        [np.arange(2000), np.arange(2000) % 7],
    )
    expected_rows = [(int(i), int(i % 7)) for i in range(2000)]

    def read(index):
        if index % 3 == 0:
            return ("rows", list(rel.rows_readonly()))
        if index % 3 == 1:
            cols = rel.columns()
            return ("cols", None if cols is None else len(cols[0]))
        return ("proj", len(rel.project(["a"])))

    outcomes = hammer(9, read)
    for kind, value in outcomes:
        if kind == "rows":
            assert value == expected_rows
        elif kind == "cols":
            assert value in (None, 2000)
        else:
            assert value == 2000


def test_borrow_demote_race_with_readers():
    """rows() copies handed out (and edited) while other threads read
    never tear state, replace the columns, or move the token."""
    for _ in range(5):
        rel = Relation.from_columns(
            "R", ["a", "b"], [np.arange(500), np.arange(500) % 3]
        )
        columns = rel.columns()
        expected = [(int(i), int(i % 3)) for i in range(500)]

        def access(index):
            if index % 2 == 0:
                rows = rel.rows()
                copy = list(rows)
                rows.clear()               # the caller's own list
                return copy
            return list(rel.rows_readonly())

        outcomes = hammer(6, access)
        assert rel.columns() is columns and rel.mutation_token() == 0
        for rows in outcomes:
            assert rows == expected


def test_borrowed_relation_columns_not_cached_stale():
    """After a hand-out + append to the copy, columns still hold the
    relation's rows — the cached extraction is right and stays served."""
    rel = Relation("R", ["a", "b"], [(1, 2), (3, 4)])
    cols = rel.columns()                   # prime the column cache
    live = rel.rows()
    live.append((5, 6))
    assert rel.columns() is cols
    assert [int(v) for v in cols[0]] == [1, 3]
    assert rel.rows_readonly() == [(1, 2), (3, 4)]
