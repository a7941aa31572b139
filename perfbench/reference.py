"""The benchmark's own single-node reference answers.

Deliberately naive and independent: a dict-based left-deep hash join,
``sorted()`` and ``a @ b``. Nothing here imports ``repro.kernels`` or
``repro.mpc`` (``repro.testing.oracle`` is a nested-loop evaluator that
needs tens of seconds on one benchmark-sized slot, so it only
cross-checks this module on small inputs in ``perfbench/tests``).
Results are multisets (:class:`collections.Counter` of tuples).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Sequence

import numpy as np

Atom = tuple[Sequence[str], Sequence[np.ndarray]]   # (variables, columns)


def _rows(columns: Sequence[np.ndarray]) -> list[tuple]:
    return list(zip(*(np.asarray(col).tolist() for col in columns)))


def join(atoms: Sequence[Atom], out_vars: Sequence[str]) -> Counter:
    """Natural join of ``atoms`` left to right, projected to ``out_vars``."""
    variables = list(atoms[0][0])
    rows = _rows(atoms[0][1])
    for atom_vars, atom_cols in atoms[1:]:
        shared = [v for v in atom_vars if v in variables]
        fresh = [v for v in atom_vars if v not in variables]
        left_key = [variables.index(v) for v in shared]
        right_key = [list(atom_vars).index(v) for v in shared]
        right_new = [list(atom_vars).index(v) for v in fresh]
        index: dict[tuple, list[tuple]] = defaultdict(list)
        for row in _rows(atom_cols):
            index[tuple(row[i] for i in right_key)].append(
                tuple(row[i] for i in right_new)
            )
        rows = [
            row + extra
            for row in rows
            for extra in index.get(tuple(row[i] for i in left_key), ())
        ]
        variables += fresh
    picks = [variables.index(v) for v in out_vars]
    return Counter(tuple(row[i] for i in picks) for row in rows)


def semijoin(target: Atom, reducers: Sequence[Atom]) -> Counter:
    """Target rows whose shared-variable key occurs in every reducer."""
    target_vars, target_cols = target
    rows = _rows(target_cols)
    for red_vars, red_cols in reducers:
        shared = [v for v in target_vars if v in red_vars]
        t_key = [list(target_vars).index(v) for v in shared]
        r_key = [list(red_vars).index(v) for v in shared]
        present = {tuple(row[i] for i in r_key) for row in _rows(red_cols)}
        rows = [row for row in rows if tuple(row[i] for i in t_key) in present]
    return Counter(rows)


def bag(relation_rows: Sequence[Sequence]) -> Counter:
    """The multiset of an engine output (rows of Python or numpy ints)."""
    return Counter(tuple(int(v) for v in row) for row in relation_rows)
