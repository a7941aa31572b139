"""The fixed instances behind ``goldens/skew_one_pass.json``.

The JSON was captured **at the commit before the one-pass rewrite** (run
this file as a script with that commit's ``src`` on ``PYTHONPATH``), so
the reference cannot drift with the code it pins: per-round ``received``
lists, ``details["jobs"]`` and the output of ``skewhc_join`` on a
triangle, a two-way join, a star and a 3-path, and of ``skew_join`` /
``sort_join`` through the big-key, packed and degenerate-unary-S
branches of the heavy products.

The ``sort_join/*`` entries alone were re-captured, in a commit of their
own, when its heavy products moved after the boundary report they need:
each instance's r moved 4 → 5 where a key straddles, L and the output
stayed. The ``skew_join/*`` and ``sort_join/*`` entries were re-captured
again, in a commit of their own, when both came to run SkewHC's residual
plan on two atoms (the skew join at SkewHC's max(N)/p threshold): one
``hypercube`` round, the same output bag and r, Σ L over ``skew_join``
5 505 → 5 160; the ``sort_join/*`` entries once more when the straddling
keys' products moved from p // 2 servers to all p (L fell or stayed).
The ``skewhc/*`` entries are the parent commit's.
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.data.relation import Relation
from repro.joins.skew_join import skew_join
from repro.joins.sort_join import sort_join
from repro.multiway.skewhc import skewhc_join
from repro.query.cq import path_query, star_query, triangle_query, two_way_join

GOLDEN = Path(__file__).parent / "goldens" / "skew_one_pass.json"
P_VALUES = (1, 3, 8, 13, 27)
SEEDS = (0, 1, 7)


def _zipf(n, keys, s=1.3, stride=7919):
    """``n`` values over ``keys`` keys with degrees ~ k^-s, in a fixed shuffle."""
    weights = [(k + 1) ** -s for k in range(keys)]
    degrees = [int(w / sum(weights) * n) for w in weights]
    degrees[0] += n - sum(degrees)
    values = [k for k, d in enumerate(degrees) for _ in range(d)]
    return [values[(i * stride) % n] for i in range(n)]  # stride coprime to n


def _spread(n, domain, stride=2_654_435_761):
    return [(i * stride) % 1_000_003 % domain for i in range(n)]


def skewhc_cases():
    """``{name: (query, {atom: (attributes, rows)})}`` — Zipf joins, light tails."""
    def rel(attrs, left, right):
        return (attrs, list(zip(left, right)))

    triangle = {
        "R": rel(["x", "y"], _spread(180, 23), _zipf(180, 30)),
        "S": rel(["y", "z"], _zipf(170, 30, 1.1), _spread(170, 19)),
        "T": rel(["z", "x"], _zipf(160, 19, 1.5), _zipf(160, 23, 0.9, 7907)),
    }
    two_way = {
        "R": rel(["x", "y"], _spread(150, 40), _zipf(150, 25, 1.4)),
        "S": rel(["y", "z"], _zipf(140, 25, 1.2), _zipf(140, 12, 1.6, 7907)),
    }
    two_way["S"][1].extend([(0, 0)] * 3)      # duplicates: bag semantics
    star = {
        "R1": rel(["A0", "A1"], _zipf(66, 20, 1.5), _spread(66, 9)),
        "R2": rel(["A0", "A2"], _zipf(60, 20, 1.2), _zipf(60, 6, 1.0, 7907)),
        "R3": rel(["A0", "A3"], _zipf(54, 20, 1.0), [-i for i in range(54)]),
    }
    path = {
        "R1": rel(["A0", "A1"], list(range(84)), _zipf(84, 18, 1.4)),
        "R2": rel(["A1", "A2"], _zipf(78, 18, 1.1), _zipf(78, 15, 1.3, 7907)),
        "R3": rel(["A2", "A3"], _zipf(72, 15, 1.5), _spread(72, 5)),
    }
    return {
        "triangle": (triangle_query(), triangle),
        "two-way": (two_way_join(), two_way),
        "star": (star_query(3), star),
        "3-path": (path_query(3), path),
    }


def two_way_cases():
    """``{name: ((R attributes, rows), (S attributes, rows))}`` per heavy branch."""
    return {
        # One key so heavy its fair share is whole servers: the grid product.
        "big-key": (
            (["x", "y"], [(i, 0 if i % 4 else 1 + i % 5) for i in range(120)]),
            (["y", "z"], [(0 if i % 3 else 1 + i % 7, -i) for i in range(90)]),
        ),
        # Many keys just above the threshold: all packed on one pool.
        "packed": (
            (["x", "y"], [(i, i % 6) for i in range(120)]),
            (["y", "z"], [(i % 8, i) for i in range(96)]),
        ),
        # Both kinds at once, with duplicates.
        "mixed": (
            (["x", "y"], [(i % 50, 0 if i % 2 else 1 + i % 4) for i in range(140)]),
            (["y", "z"], [(0 if i % 2 else 1 + i % 9, i % 30) for i in range(110)]),
        ),
        # S is unary: the join multiplies R rows, no new attribute.
        "unary-s": (
            (["x", "y"], [(i, 0 if i % 3 else 1 + i % 4) for i in range(90)]),
            (["y"], [(0 if i % 2 else 1 + i % 6,) for i in range(70)]),
        ),
    }


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _received(stats):
    return [[rd.label, list(rd.received)] for rd in stats.rounds]


def observe_skewhc(query, case, p, seed):
    relations = {name: Relation(name, attrs, rows) for name, (attrs, rows) in case.items()}
    run = skewhc_join(query, relations, p, seed=seed)
    rows = sorted(run.output.rows_readonly())
    return {"received": _received(run.stats), "jobs": run.details["jobs"],
            "rows": len(rows), "sorted": _digest(rows)}


def observe_two_way(algorithm, case, p, seed):
    (r_attrs, r_rows), (s_attrs, s_rows) = case
    run = algorithm(Relation("R", r_attrs, r_rows), Relation("S", s_attrs, s_rows), p, seed=seed)
    rows = run.output.rows_readonly()
    return {"received": _received(run.stats), "rows": len(rows),
            "ordered": _digest(rows), "sorted": _digest(sorted(rows))}


def observe_all():
    """Every golden observation, keyed ``algorithm/case/p/seed``."""
    seen = {}
    for name, (query, case) in skewhc_cases().items():
        for p in P_VALUES:
            for seed in SEEDS:
                seen[f"skewhc/{name}/{p}/{seed}"] = observe_skewhc(query, case, p, seed)
    for label, algorithm in (("skew_join", skew_join), ("sort_join", sort_join)):
        for name, case in two_way_cases().items():
            for p in P_VALUES:
                for seed in SEEDS:
                    seen[f"{label}/{name}/{p}/{seed}"] = observe_two_way(algorithm, case, p, seed)
    return seen


if __name__ == "__main__":  # capture: run at the parent commit only
    GOLDEN.parent.mkdir(exist_ok=True)
    seen = observe_all()
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(seen[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(seen)
    ) + "\n}\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
