"""One answer, three ways to hold it: shared builders for the result-plane suites.

A *case* is ``{relation name: (attributes, rows)}``. :func:`holdings`
builds it column-primary, row-primary and handed-out (the first only when
every value is a plain int), :func:`observe` reduces a run to everything
a caller can see, and :func:`assert_one_answer` checks that all holdings
agree with each other and with the scalar rung (``use_kernels(False)``).
"""

import numpy as np

from repro.data.relation import Relation
from repro.kernels.config import use_kernels
from repro.mpc.audit import audited

BIG = 2**63 + 5  # above int64 max: a uint64 column the join kernels cannot code

P_VALUES = [1, 3, 8, 13]


def _plain(rows):
    return all(type(v) is int for row in rows for v in row)


def hold(name, attrs, rows, how):
    """``rows`` as a relation held ``how``: columns / rows / borrowed.

    ``"borrowed"`` keeps its old key but now means *handed out*: held as
    columns when every value is a plain int (else as rows), then its
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

    last = list(case)[-1]
    return {
        "int": case,
        "string-keyed": mapped(lambda v: f"k{v}", set(key_attrs)),
        "uint64-key": mapped(lambda v: BIG + v, set(key_attrs)),
        "uint64-payload": mapped(lambda v: BIG + abs(v), {payload}),
        "bool-payload": mapped(lambda v: v % 2 == 0, {payload}),
        "empty-side": {**case, last: (case[last][0], [])},
    }


def assert_one_answer(run, case, p):
    """Run every holding of ``case``; all must observe what the scalar rung does.

    ``run(relations, p) -> (output, stats)``. Returns ``{how: (output,
    stats)}`` of the kernel-rung runs for shape assertions. An all-int
    holding is still column-primary afterwards, handed-out ones included.
    """
    held = holdings(case)
    with audited(), use_kernels(False):
        want = observe(*run(held["rows"], p))
    assert want["audit"] is not None and not want["audit"][2]
    results = {}
    for how, relations in held.items():
        with audited():
            output, stats = run(relations, p)
        assert observe(output, stats) == want, how
        if how != "rows" and all(_plain(rows) for _attrs, rows in case.values()):
            assert all(rel.is_columnar for rel in relations.values()), how
        results[how] = (output, stats)
    return results
