"""The per-server local step — the reference the one-pass chunk tasks meet.

:func:`repro.joins.base.join_fragment_chunk`,
:func:`repro.multiway.base.semijoin_filter_chunk` and
:func:`repro.multiway.hypercube.hypercube_eval_chunk` run a chunk —
one table per fragment, with each server's row bounds — as one kernel
pass keyed on ``(server, key)`` and return one table and its bounds.
What they replaced lives on here: a loop over per-server payloads that
builds the relations of one server and joins, filters or evaluates them
on their own. ``tests/kernels/test_chunk_pass.py`` turns the payloads
into a chunk and holds the tasks to these — values, value types, and a
tuple of columns per server.
"""

from __future__ import annotations

import numpy as np

from repro.data.relation import Relation
from repro.kernels.columnar import concatenated, key_columns
from repro.kernels.join import code_key_columns


def join_fragment_chunk(payloads: list, common) -> list:
    """``join.fragments``, one local join per payload."""
    left_name, left_schema, right_name, right_schema = common
    return [
        tuple(
            Relation.from_columns(left_name, left_schema, l_cols).join(
                Relation.from_columns(right_name, right_schema, r_cols)
            ).columns()
        )
        for l_cols, r_cols in payloads
    ]


def semijoin_filter_chunk(payloads: list, common) -> list:
    """``semijoin.filter``, one filter per payload."""
    t_idx, heavy_alive = common
    alive = key_columns(heavy_alive, range(len(t_idx)))
    out = []
    for key_cols, t_cols, stay_cols in payloads:
        # Every mask over the whole target.
        keep = np.logical_and.reduce([
            np.isin(*code_key_columns([t_cols[i] for i in t_idx], k)) for k in key_cols
        ])
        survivors = [column[keep] for column in t_cols]
        if heavy_alive:
            stays = np.isin(*code_key_columns([stay_cols[i] for i in t_idx], alive))
            survivors = [
                concatenated([light, heavy[stays]]) for light, heavy in zip(survivors, stay_cols)
            ]
        out.append(tuple(survivors))
    return out


def hypercube_eval_chunk(payloads: list, query) -> list:
    """``hypercube.eval``, one evaluation per payload."""
    out = []
    for per_atom in payloads:
        local_fragments = {
            atom.name: Relation.from_columns(atom.name, list(atom.variables), cols)
            for atom, cols in zip(query.atoms, per_atom)
        }
        out.append(tuple(query.evaluate(local_fragments).columns()))
    return out
