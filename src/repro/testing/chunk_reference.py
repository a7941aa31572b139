"""The per-server local step — the reference the one-pass chunk tasks meet.

:func:`repro.joins.base.join_fragment_chunk`,
:func:`repro.multiway.base.semijoin_filter_chunk` and
:func:`repro.multiway.hypercube.hypercube_eval_chunk` run a chunk's
columns-only payloads as one kernel pass keyed on ``(server, key)`` and cut
the output at the server boundaries. What they replaced lives on here,
moved and not rewritten: a loop over the payloads that builds two
relations per server and joins, filters or evaluates them on their own.
``tests/kernels/test_chunk_pass.py`` holds the tasks to these byte for
byte — values, dtype, and whether a result is a tuple of columns, a row
list or ``None``.
"""

from __future__ import annotations

import numpy as np

from repro.data.relation import Relation
from repro.joins.base import step_result
from repro.kernels.join import code_key_columns, join_rows_columnar
from repro.multiway.base import _filter_members


def join_fragment_chunk(payloads: list, common) -> list:
    """``join.fragments``, one local join per payload."""
    left_name, left_schema, right_name, right_schema = common
    out = []
    for l_rows, l_cols, r_rows, r_cols in payloads:
        if l_rows is None:
            out.append(step_result(
                Relation.from_columns(left_name, left_schema, l_cols).join(
                    Relation.from_columns(right_name, right_schema, r_cols)
                )
            ))
            continue
        shared = left_schema.common(right_schema)
        if shared:
            extra = [a for a in right_schema.attributes if a not in left_schema]
            out.append(join_rows_columnar(
                l_rows, r_rows, left_schema.indices(shared), right_schema.indices(shared),
                right_schema.indices(extra),
            ))
            continue
        l_rel = Relation.wrap(left_name, left_schema, l_rows)
        r_rel = Relation.wrap(right_name, right_schema, r_rows)
        out.append(step_result(l_rel.join(r_rel)))
    return out


def semijoin_filter_chunk(payloads: list, common) -> list:
    """``semijoin.filter``, one filter per payload."""
    t_idx, heavy_alive = common
    alive = set(heavy_alive)
    out = []
    for key_rows, t_rows, stay_rows in payloads:
        if isinstance(t_rows, tuple):
            # Every mask over the whole target, as the row path does.
            keep = np.logical_and.reduce([
                np.isin(*code_key_columns([t_rows[i] for i in t_idx], k)) for k in key_rows
            ])
            out.append(tuple(column[keep] for column in t_rows))
            continue
        survivors = _filter_members(t_rows, t_idx, key_rows)
        survivors.extend(
            row for row in stay_rows if tuple(row[i] for i in t_idx) in alive
        )
        out.append(survivors)
    return out


def hypercube_eval_chunk(payloads: list, common) -> list:
    """``hypercube.eval``, one evaluation per payload."""
    query, local = common
    out = []
    for per_atom in payloads:
        local_fragments = {
            atom.name: Relation.wrap(atom.name, list(atom.variables), rows)
            if cols is None
            else Relation.from_columns(atom.name, list(atom.variables), cols)
            for atom, (rows, cols) in zip(query.atoms, per_atom)
        }
        if all(len(rel) for rel in local_fragments.values()):
            if local == "generic":
                from repro.multiway.wcoj import generic_join

                result = generic_join(query, local_fragments)
            else:
                result = query.evaluate(local_fragments)
            out.append(step_result(result))
        else:
            out.append(None)
    return out
