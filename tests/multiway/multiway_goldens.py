"""The fixed instances behind ``goldens/multiway_parent.json``.

The JSON was captured **at the commit before the parallel steps of the
multi-round plans shared one pool helper** (run this file as a script with
that commit's ``src`` on ``PYTHONPATH``), so the reference cannot drift
with the code it pins. The five instances whose HyperCube grid moved when
the shares became the optimum over every grid (``gym-optimized`` on the
balanced 5-path at p = 3 and 8 and under the crash, ``reduced_hypercube``
at p = 8 and under the crash) were re-captured at that change, and only
they; so were, when a query's steps came to run on one cluster, the
fault counters of every ``faults/*`` instance (a crash at round 0 now
strikes the query's round 0 once, not every step's round 0) and
``triangle_hl_semijoin``'s second round, whose ``received`` now lists the
idle light pool's servers as zeros. Per entry point and per p in {1, 3, 8}: every
round's label and ``received`` list, L and r, and a digest of the output
in output order and sorted; and, once per entry point at p = 8, the same
plus the fault counters under one recovered crash of server 1 at round 0.
The entry points:

- ``gym``, optimized and vanilla, on a 4-path, a 3-star and the 5-path
  under ``path_balanced_ghd`` (so that bag joins run, one of them a grid
  product); at p = 1 and 3 the optimized waves oversubscribe the servers;
- ``two_path_semijoin_plan`` and ``triangle_hl_semijoin`` with heavy z
  values (the light/heavy split and the heavy residuals);
- ``binary_join_plan`` with a Cartesian step;
- ``reduced_hypercube`` on the 4-path;
- ``cartesian_product``.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from repro.data.relation import Relation
from repro.joins.cartesian import cartesian_product
from repro.mpc import CrashFault, FaultPlan, faulty
from repro.multiway.binary_plans import binary_join_plan
from repro.multiway.gym import gym
from repro.multiway.reduced import reduced_hypercube
from repro.multiway.semijoin import triangle_hl_semijoin, two_path_semijoin_plan
from repro.query.cq import Atom, ConjunctiveQuery, path_query, star_query
from repro.query.ghd import path_balanced_ghd

GOLDEN = Path(__file__).parent / "goldens" / "multiway_parent.json"
P_VALUES = (1, 3, 8)
FAULT_P = 8
CRASH = FaultPlan(crashes=(CrashFault(round=0, server=1),))


def _pairs(n, left, right, a=7, b=3):
    return [((i * a) % left, (i * b + i // 5) % right) for i in range(n)]


def path_relations(atoms):
    return {
        f"R{i}": Relation(f"R{i}", [f"A{i - 1}", f"A{i}"], _pairs(36 - 2 * i, 9, 8, 5 + i, i))
        for i in range(1, atoms + 1)
    }


def star_relations():
    return {
        f"R{i}": Relation(f"R{i}", ["A0", f"A{i}"], _pairs(30 + 4 * i, 6, 11 - i, 5, 2 + i))
        for i in range(1, 4)
    }


def gym_cases():
    """``{name: (query, relations, ghd or None)}``."""
    return {
        "4-path": (path_query(4), path_relations(4), None),
        "3-star": (star_query(3), star_relations(), None),
        "5-path-balanced": (path_query(5), path_relations(5), path_balanced_ghd(5)),
    }


def triangle_relations():
    """R(x,y), S(y,z), T(z,x) with z = 0 heavy at every p and z = 1 heavy at p = 8."""
    r = Relation("R", ["x", "y"], [(i % 7, (i * 3) % 8) for i in range(40)])
    s = Relation("S", ["y", "z"], [(i % 8, 0 if i % 4 else 1 + i % 3) for i in range(40)])
    t = Relation("T", ["z", "x"], [(0 if i % 3 else 1 + i % 5, i % 7) for i in range(40)])
    return r, s, t


def two_path_relations():
    r = Relation("R", ["x"], [(i % 6,) for i in range(20)])
    s = Relation("S", ["x", "y"], [(i % 9, (i * 5) % 7) for i in range(45)])
    t = Relation("T", ["y"], [(i % 4,) for i in range(12)])
    return r, s, t


def binary_case():
    """R(a,b) × S(c,d) first (no shared attribute), then ⋈ T(b,c)."""
    query = ConjunctiveQuery([Atom("R", ["a", "b"]), Atom("S", ["c", "d"]),
                              Atom("T", ["b", "c"])])
    relations = {
        "R": Relation("R", ["a", "b"], _pairs(14, 5, 4)),
        "S": Relation("S", ["c", "d"], _pairs(11, 3, 6, 2, 5)),
        "T": Relation("T", ["b", "c"], _pairs(9, 4, 3, 3, 1)),
    }
    return query, relations, ["R", "S", "T"]


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _faults(stats):
    """The fault counters, when a plan was active (not ``by_worker``: which
    worker a server's events land on depends on the backend)."""
    if stats.faults is None:
        return {}
    counters = dataclasses.asdict(stats.faults)
    del counters["by_worker"]
    return {"faults": counters}


def _observed(output, stats):
    rows = output.rows()
    return {
        "received": [[rd.label, list(rd.received)] for rd in stats.rounds],
        "L": stats.max_load, "r": stats.num_rounds, "rows": len(rows),
        "ordered": _digest(rows), "sorted": _digest(sorted(rows, key=repr)),
        **_faults(stats),
    }


def entry_points():
    """``{name: run(p) -> (output relation, stats)}``."""
    runs = {}
    for name, (query, relations, ghd) in gym_cases().items():
        for variant in ("optimized", "vanilla"):
            def run_gym(p, q=query, rels=relations, g=ghd, v=variant):
                run = gym(q, rels, p, ghd=g, variant=v, seed=3)
                return run.output, run.stats
            runs[f"gym-{variant}/{name}"] = run_gym

    def two_path(p):
        run = two_path_semijoin_plan(*two_path_relations(), p, seed=1)
        return run.output, run.stats

    def triangle(p):
        run = triangle_hl_semijoin(*triangle_relations(), p, seed=2)
        assert run.details["heavy_z"]
        return run.output, run.stats

    def binary(p):
        query, relations, order = binary_case()
        run = binary_join_plan(query, relations, p, seed=4, order=order)
        return run.output, run.stats

    def reduced(p):
        run = reduced_hypercube(path_query(4), path_relations(4), p, seed=5)
        return run.output, run.stats

    def cartesian(p):
        r = Relation("R", ["a", "b"], _pairs(23, 6, 5))
        s = Relation("S", ["c"], [(f"s{i % 4}",) for i in range(9)])
        run = cartesian_product(r, s, p, seed=6)
        return run.output, run.stats

    runs.update({"two_path_semijoin": two_path, "triangle_hl_semijoin": triangle,
                 "binary_join_plan": binary, "reduced_hypercube": reduced,
                 "cartesian_product": cartesian})
    return runs


def _crashed(run):
    with faulty(CRASH):
        return _observed(*run(FAULT_P))


def observations():
    """``{golden key: thunk}`` for every instance."""
    seen = {}
    for name, run in entry_points().items():
        for p in P_VALUES:
            seen[f"{name}/{p}"] = lambda run=run, p=p: _observed(*run(p))
        seen[f"faults/crash/{name}"] = lambda run=run: _crashed(run)
    return seen


if __name__ == "__main__":  # capture: run at the commit before the change it pins
    GOLDEN.parent.mkdir(exist_ok=True)
    seen = {key: observe() for key, observe in observations().items()}
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(seen[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(seen)
    ) + "\n}\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
