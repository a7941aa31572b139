"""One answer, three ways to hold it: shared builders for the result-plane suites.

A *case* is ``{relation name: (attributes, rows)}``. :func:`holdings`
builds it from columns, from rows and handed-out (the first only when
every value is a plain int), :func:`observe` reduces a run to everything
a caller can see, and :func:`assert_one_answer` checks that all holdings
agree with each other, with the scalar rung (:func:`scalar_rung`) and, as
a bag, with :mod:`repro.testing.oracle`.
"""

import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.exec.config import backend_name, worker_count
from repro.exec.pool import get_pool
from repro.kernels.columnar import columns_of
from repro.mpc.audit import audited
from repro.mpc.server import ChunkedColumns
from repro.testing.oracle import multiset_diff

BIG = 2**63 + 5  # above int64 max: a uint64 column the radix codes cannot hold

P_VALUES = [1, 3, 8, 13]


def degree_counter(view):
    """A degree view ``(distinct key columns, counts)`` as a ``Counter`` of key tuples."""
    keys, counts = view
    tuples = list(zip(*(k.tolist() for k in keys))) if keys else [()] * len(counts)
    return Counter(dict(zip(tuples, counts.tolist())))


def fragment_of(rows, arity):
    """``rows`` as a server holds them: one block, each column by the one rule."""
    return ChunkedColumns([[column] for column in columns_of(rows, arity)])


@contextmanager
def scalar_rung():
    """Run the block on the scalar rung: the per-row bodies of
    :mod:`repro.testing.scalar_reference` stand in for the six kernels (and
    the two multiway helpers built on them) wherever a loaded ``repro`` or
    test module holds them, and no routing plan replays (a plan is kernel
    output). The backend stays what it is: under ``process`` the local
    steps run in workers forked before the substitution — on the kernels,
    so there the rung covers what the coordinator runs."""
    from repro.kernels import join, memo, partition
    from repro.multiway import base
    from repro.testing import scalar_reference as reference

    def never(*_args, **_kwargs):
        return False

    swaps = {id(original): substitute for original, substitute in (
        (partition.try_route, reference.try_route),
        (partition.try_route_grid, reference.try_route_grid),
        (join.code_key_columns, reference.code_key_columns),
        (join.join_rows_columnar, reference.join_rows_columnar),
        (join.semijoin_mask, reference.semijoin_mask),
        (join.lookup_codes, reference.lookup_codes),
        (base._route_light, reference.route_light),
        (memo.route_scattered, never),
        (memo.route_scattered_grid, never),
    )}
    if backend_name() == "process":
        get_pool(worker_count())  # fork now, not under the substitution
    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(("repro.", "tests.")):
                continue
            for attr, value in list(vars(module).items()):
                substitute = swaps.get(id(value))
                if substitute is not None:
                    patch.setattr(module, attr, substitute)
        yield


def _plain(rows):
    return all(type(v) is int for row in rows for v in row)


def hold(name, attrs, rows, how):
    """``rows`` as a relation built ``how``: columns / rows / borrowed.

    ``"borrowed"`` keeps its old key but now means *handed out*: built from
    columns when every value is a plain int (else from rows), then its
    ``rows()`` list handed out and edited — which must change nothing.
    """
    if how == "borrowed":
        rel = hold(name, attrs, rows, "columns" if _plain(rows) else "rows")
        live = rel.rows()
        live.reverse()
        live.extend(live)
        return rel
    if how == "columns":
        if not rows:
            cols = [np.empty(0, dtype=np.int64) for _ in attrs]
        else:
            cols = [np.array([row[i] for row in rows]) for i in range(len(attrs))]
        return Relation.from_columns(name, attrs, cols)
    return Relation(name, attrs, list(rows))


def holdings(case):
    """``{how: {name: Relation}}`` for every holding the data allows."""
    hows = ["rows", "borrowed"]
    if all(_plain(rows) for _attrs, rows in case.values()):
        hows.insert(0, "columns")
    return {
        how: {name: hold(name, attrs, rows, how) for name, (attrs, rows) in case.items()}
        for how in hows
    }


def observe(output, stats):
    """Everything observable about a run, as one comparable value."""
    rows = output.rows_readonly()
    audit = stats.audit
    return {
        "rows": rows,
        "types": [[type(v) for v in row] for row in rows],
        "schema": output.schema.attributes,
        "name": output.name,
        "received": [(r.label, r.received, r.delivered) for r in stats.rounds],
        "C": stats.total_communication,
        "audit": None if audit is None else
        (audit.rounds_audited, audit.checks_run, [str(v) for v in audit.violations]),
    }


def variants(case, key_attrs, payload):
    """The input kinds of the matrix, derived from an all-int ``case``.

    ``key_attrs`` are the join attributes, ``payload`` = (relation,
    attribute) of one non-join column.
    """
    def mapped(change, attrs_to_change):
        out = {}
        for name, (attrs, rows) in case.items():
            idx = [i for i, a in enumerate(attrs) if (name, a) in attrs_to_change
                   or a in attrs_to_change]
            out[name] = (attrs, [
                tuple(change(v) if i in idx else v for i, v in enumerate(row))
                for row in rows
            ])
        return out

    first, last = list(case)[0], list(case)[-1]
    return {
        "int": case,
        "string-keyed": mapped(lambda v: f"k{v}", set(key_attrs)),
        "uint64-key": mapped(lambda v: BIG + v, set(key_attrs)),
        "uint64-payload": mapped(lambda v: BIG + abs(v), {payload}),
        "bool-payload": mapped(lambda v: v % 2 == 0, {payload}),
        # Equal keys of different types: the first relation's keys are
        # floats (0 as -0.0) meeting the others' ints.
        "mixed-numeric": mapped(
            lambda v: float(v) if v else -0.0, {(first, a) for a in key_attrs}
        ),
        "empty-side": {**case, last: (case[last][0], [])},
    }


def assert_one_answer(run, case, p, oracle):
    """Run every holding of ``case``; all must observe what the scalar rung
    does, and output the bag ``oracle(relations)`` holds.

    ``run(relations, p) -> (output, stats)``. Returns ``{how: (output,
    stats)}`` of the kernel-rung runs for shape assertions. An all-int
    holding still holds integer columns afterwards, handed-out ones included.
    """
    held = holdings(case)
    with audited(), scalar_rung():
        want = observe(*run(held["rows"], p))
    assert want["audit"] is not None and not want["audit"][2]
    diff = multiset_diff(oracle(held["rows"]).rows_readonly(), want["rows"])
    assert not diff, diff.summary()
    results = {}
    for how, relations in held.items():
        with audited():
            output, stats = run(relations, p)
        assert observe(output, stats) == want, how
        if all(_plain(rows) for _attrs, rows in case.values()):
            assert all(
                c.dtype.kind in "iu" for rel in relations.values() for c in rel.columns()
            ), how
        results[how] = (output, stats)
    return results
