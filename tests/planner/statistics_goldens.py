"""The fixed instances behind ``goldens/statistics_parent.json``.

The JSON was captured **at the commit before the degree views became
arrays** (run this file as a script with that commit's ``src`` on
``PYTHONPATH``), so the reference cannot drift with the code it pins.
The four instances whose SkewHC grid moved when the shares became the
optimum over every grid (``explain-chain`` at p = 3 and 8, ``path4-600``
and ``path4-2000`` at p = 3) were re-captured at that change, and only
they; so were the 22 whose candidates moved when HyperCube and SkewHC
came to be priced by what their runs do (HyperCube a candidate under
skew), only their ``candidates`` and ``chosen``; and every two-atom
case's ``skew_join`` entry when the skew join came to run SkewHC's
residual plan (same output bag, one ``hypercube`` round), and the one
such entry that moved when it came to peel only the join key within p
servers (``at-threshold/8``). Per case and per p in {1, 3, 8}:

- the full :class:`~repro.planner.statistics.QueryStatistics` (per
  relation ``heavy``/``max_degree``, ``heavy_join_values``,
  ``heavy_joint_degrees``, ``max_joint_degree``, ``out_estimate``);
- the planner's choice and every candidate (predicted load, rounds,
  envelope, reason);
- ``find_heavy_values`` at SkewHC's threshold and, for two atoms,
  ``find_heavy_keys`` at IN/p and at the per-relation m/p pair, and
  ``estimate_join_size`` over every key and over the heavy ones;
- per round label and ``received``, plus an output digest, of
  ``skewhc_join``, of ``skew_join`` (two atoms) and of
  ``shuffle_multi_semijoin`` of the first atom by the second.

The corpus: perfbench's five engine classes at n = 600 and 2 000, the
four explain cases, ``str`` keys, keys equal across types
(``1``/``1.0``/``True``), ``uint64`` keys above ``int64`` max, empty
relations, heavy hitters at exactly m/p, the sampled path, a
disconnected acyclic query and a single atom. Values are recorded by
``repr``, so ``1``, ``1.0`` and ``True`` stay apart.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from perfbench import datagen
from repro.data.relation import Relation
from repro.joins.base import estimate_join_size
from repro.joins.skew_join import find_heavy_keys, skew_join
from repro.kernels.memo import clear_memo
from repro.multiway.base import shuffle_multi_semijoin
from repro.multiway.skewhc import find_heavy_values, skewhc_join
from repro.planner.optimizer import plan_query
from repro.planner.statistics import collect_query_statistics
from repro.query.parser import parse_query
from tests.planner.test_explain_golden import CASES as EXPLAIN_CASES

GOLDEN = Path(__file__).parent / "goldens" / "statistics_parent.json"
P_VALUES = (1, 3, 8)
MIXED = [1, 1.0, True, 2, 2.0, 0, False, 0.0, 3]


def _perfbench_case(klass, n):
    op = datagen.make_op(klass, n, 0, np.random.default_rng(11))
    relations = {
        name: Relation.from_columns(name, attrs, cols)
        for name, (attrs, cols) in op.relations.items()
    }
    return datagen.query_text(klass), relations


def _rel(name, attributes, rows):
    return Relation(name, attributes, rows)


def special_cases():
    """``{name: (query text, relations, sample or None)}``."""
    # 24 rows: 8 of one value (= m/p at p = 3), 3 of another (= m/p at p = 8).
    at_threshold = [(i, 0) for i in range(8)] + [(i, 1) for i in range(3)]
    at_threshold += [(i, 10 + i) for i in range(13)]
    return {
        "str": ("R(x, y), S(y, z)", {
            "R": _rel("R", ["x", "y"], [(i, f"k{0 if i % 3 else i % 11}") for i in range(90)]),
            "S": _rel("S", ["y", "z"], [(f"k{i % 7}", f"s{i}") for i in range(70)]),
        }, None),
        "mixed-equal": ("R(x, y), S(y, z), T(z, w)", {
            "R": _rel("R", ["x", "y"], [(i, MIXED[(i * 5) % len(MIXED)]) for i in range(60)]),
            "S": _rel("S", ["y", "z"], [(MIXED[i % len(MIXED)], i % 4) for i in range(45)]),
            "T": _rel("T", ["z", "w"], [(i % 4, i) for i in range(20)]),
        }, None),
        "uint64": ("R(x, y), S(y, z)", {
            "R": _rel("R", ["x", "y"], [(i, 2**63 + (0 if i % 2 else i % 9)) for i in range(80)]),
            "S": _rel("S", ["y", "z"], [(2**63 + i % 5, i) for i in range(40)]),
        }, None),
        "empty-side": ("R(x, y), S(y, z)", {
            "R": _rel("R", ["x", "y"], []),
            "S": _rel("S", ["y", "z"], [(i % 3, i) for i in range(12)]),
        }, None),
        "empty-middle": ("R(x, y), S(y, z), T(z, w)", {
            "R": _rel("R", ["x", "y"], [(i, i % 4) for i in range(16)]),
            "S": _rel("S", ["y", "z"], []),
            "T": _rel("T", ["z", "w"], [(i % 4, i) for i in range(16)]),
        }, None),
        "at-threshold": ("R(x, y), S(y, z)", {
            "R": _rel("R", ["x", "y"], at_threshold),
            "S": _rel("S", ["y", "z"], [(y, x) for x, y in at_threshold]),
        }, None),
        "sampled": ("R(x, y), S(y, z), T(z, w)", {
            "R": _rel("R", ["x", "y"], [(i, 0 if i % 4 == 0 else i % 50) for i in range(600)]),
            "S": _rel("S", ["y", "z"], [(i % 50, i % 30) for i in range(400)]),
            "T": _rel("T", ["z", "w"], [(i % 30, i) for i in range(300)]),
        }, 150),
        "disconnected": ("R(x, y), S(y, z), T(u, v), U(v, w)", {
            "R": _rel("R", ["x", "y"], [(i % 9, i % 4) for i in range(30)]),
            "S": _rel("S", ["y", "z"], [(i % 4, i % 6) for i in range(24)]),
            "T": _rel("T", ["u", "v"], [(i, 0 if i % 2 else i % 5) for i in range(20)]),
            "U": _rel("U", ["v", "w"], [(i % 5, i) for i in range(15)]),
        }, None),
        "single": ("R(x, y)", {
            "R": _rel("R", ["x", "y"], [(i % 5, i % 3) for i in range(40)]),
        }, None),
    }


def cases():
    """``{name: thunk -> (query text, relations, sample or None)}``."""
    made = {}
    for klass in datagen.ENGINE_CLASSES:
        for n in (600, 2000):
            made[f"{klass}-{n}"] = lambda k=klass, n=n: (*_perfbench_case(k, n), None)
    for name, case in EXPLAIN_CASES.items():
        made[f"explain-{name}"] = lambda case=case: (*case(), None)
    for name in special_cases():
        made[name] = lambda name=name: special_cases()[name]
    return made


def _digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _run(output, stats):
    rows = output.rows()
    return {"received": [[rd.label, list(rd.received)] for rd in stats.rounds],
            "rows": len(rows), "output": _digest(rows)}


def _ascending(values):
    return repr(sorted(values))


def observe(name, p):
    """Everything the degree views decide, for one case at one p."""
    clear_memo()
    text, relations, sample = cases()[name]()
    query = parse_query(text)
    stats = collect_query_statistics(query, relations, p, sample=sample, seed=3)
    explain = plan_query(query, relations, p, sample=sample, seed=3)
    n_max = max(len(rel) for rel in relations.values())
    heavy = find_heavy_values(query, relations, max(n_max / p, 1.0))
    seen = {
        "statistics": repr(stats),
        "chosen": explain.chosen,
        "candidates": repr(explain.candidates),
        "heavy_values": {v: _ascending(values) for v, values in heavy.items()},
    }
    if len(query.atoms) >= 2:
        seen["skewhc"] = _run(*_unpack(skewhc_join(query, relations, p)))
    if len(query.atoms) == 2:
        r, s = (relations[atom.name] for atom in query.atoms)
        shared = r.schema.common(s.schema)
        in_size = len(r) + len(s)
        keys = find_heavy_keys(r, s, shared, in_size / p)
        seen["heavy_keys"] = repr(keys)
        seen["heavy_keys_per_relation"] = repr(find_heavy_keys(r, s, shared, (len(r) / p, len(s) / p)))
        seen["join_size"] = [estimate_join_size(r, s), estimate_join_size(r, s, keys=keys)]
        seen["skew_join"] = _run(*_unpack(skew_join(r, s, p)))
        seen["multi_semijoin"] = _run(*shuffle_multi_semijoin(r, [s], p))
    return seen


def _unpack(run):
    return run.output, run.stats


def observations():
    """``{golden key: thunk}`` for every instance."""
    return {
        f"{name}/{p}": (lambda name=name, p=p: observe(name, p))
        for name in cases() for p in P_VALUES
    }


if __name__ == "__main__":  # capture: run at the commit before the change it pins
    GOLDEN.parent.mkdir(exist_ok=True)
    seen = {key: thunk() for key, thunk in observations().items()}
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(seen[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(seen)
    ) + "\n}\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
