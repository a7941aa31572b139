"""The fixed instances behind ``goldens/sort_parent.json``.

The JSON was captured **at the commit before the sorts moved to (key,
position) columns** (run this file as a script with that commit's ``src``
on ``PYTHONPATH``), so the reference cannot drift with the code it pins:
per-round labels and ``received`` lists and a digest of the output of

- ``psrs_sort``, with regular and random sampling, on ints with
  duplicates, all-equal items, n < p, p = 1, strings, ``uint64`` values
  above ``int64`` max, floats mixed with ints and bools, and a custom key;
- ``sort_join`` and ``band_join`` (ε ∈ {0, 0.5, 2}) on uniform data and
  on one heavy key;
- ``multiround_sort`` on distinct keys only: with duplicates its load
  moved on purpose when the position tie-break reached it.

The ``sort_join/*`` entries alone were re-captured, in a commit of their
own, when its heavy products moved after the boundary report they need:
r moved 4 → 5 where a key straddles, L and the output stayed; and again
when the straddling keys came to run SkewHC's residual plan (the last
round is ``hypercube``, r and the output bag stayed), and once more when
those products moved from a budget of p // 2 servers to all p (L fell
or stayed).
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.data.relation import Relation
from repro.joins.sort_join import sort_join
from repro.sorting.band_join import band_join
from repro.sorting.multiround import multiround_sort
from repro.sorting.psrs import psrs_sort

GOLDEN = Path(__file__).parent / "goldens" / "sort_parent.json"
P_VALUES = (1, 3, 8)
EPSILONS = (0, 0.5, 2)


def _mod7_descending(x):
    return (x % 7, -x)


def psrs_cases():
    """``{name: (items, key or None)}``."""
    mixed = [1, 1.0, True, 0.5, -0.0, 0, False, 2, 2.0, -1.5, 0.0, 3]
    return {
        "ints-dup": ([(i * 7919) % 61 for i in range(240)], None),
        "all-equal": ([5] * 200, None),
        "few": ([3, 1, 2], None),
        "str": ([f"k{(i * 31) % 97}" for i in range(200)], None),
        # Every value above int64 max: the parent raised OverflowError when a
        # server held only small values and a splitter did not fit int64.
        "uint64": ([2**63 + (i * 13) % 50 for i in range(150)], None),
        "mixed-numeric": (
            [mixed[(i * 5) % len(mixed)] if i % 2 else (i % 11) / 2 if i % 3 else i % 7
             for i in range(180)],
            None,
        ),
        "custom-key": ([(i * 104729) % 301 for i in range(210)], _mod7_descending),
    }


def join_cases():
    """``{name: ((R attributes, rows), (S attributes, rows))}``."""
    return {
        "uniform": (
            (["x", "y"], [(i, (i * 7919) % 37) for i in range(160)]),
            (["y", "z"], [((i * 104729) % 37, -i) for i in range(150)]),
        ),
        "heavy": (
            (["x", "y"], [(i, 0 if i % 3 else (i * 7) % 29) for i in range(160)]),
            (["y", "z"], [(0 if i % 2 else (i * 11) % 29, i) for i in range(140)]),
        ),
    }


def multiround_cases():
    """``{name: (items, p, load_cap, key or None)}`` — distinct keys only."""
    return {
        "p6": ([(i * 48271) % 1009 for i in range(800)], 6, 48, None),
        "p16": ([(i * 7919) % 3001 for i in range(3000)], 16, 64, None),
        "p64": ([(i * 7919) % 4099 for i in range(4096)], 64, 80, None),
        "p64-deep": ([(i * 7919) % 4099 for i in range(4096)], 64, 16, None),
        "negated": ([(i * 48271) % 1009 for i in range(600)], 8, 40, _mod7_descending),
    }


def _digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _received(stats):
    return [[rd.label, list(rd.received)] for rd in stats.rounds]


def _observe(out, stats):
    return {"received": _received(stats), "rows": len(out), "output": _digest(out)}


def _keyed(key):
    return {} if key is None else {"key": key}


def observe_psrs(name, p, random_sampling):
    items, key = psrs_cases()[name]
    return _observe(*psrs_sort(items, p, use_random_sampling=random_sampling, **_keyed(key)))


def _relations(name):
    (r_attrs, r_rows), (s_attrs, s_rows) = join_cases()[name]
    return Relation("R", r_attrs, r_rows), Relation("S", s_attrs, s_rows)


def observe_sort_join(name, p):
    run = sort_join(*_relations(name), p)
    return _observe(run.output.rows(), run.stats)


def observe_band_join(name, epsilon, p):
    run = band_join(*_relations(name), "y", "y", epsilon, p)
    return _observe(run.output.rows(), run.stats)


def observe_multiround(name):
    items, p, load_cap, key = multiround_cases()[name]
    return _observe(*multiround_sort(items, p, load_cap, **_keyed(key)))


def observations():
    """``{golden key: thunk}`` for every instance."""
    seen = {}
    for name in psrs_cases():
        for p in P_VALUES:
            for sampling in ("regular", "random"):
                seen[f"psrs/{name}/{p}/{sampling}"] = (
                    lambda name=name, p=p, s=sampling: observe_psrs(name, p, s == "random")
                )
    for name in join_cases():
        for p in P_VALUES:
            seen[f"sort_join/{name}/{p}"] = lambda name=name, p=p: observe_sort_join(name, p)
            for epsilon in EPSILONS:
                seen[f"band_join/{name}/{epsilon}/{p}"] = (
                    lambda name=name, e=epsilon, p=p: observe_band_join(name, e, p)
                )
    for name in multiround_cases():
        seen[f"multiround/{name}"] = lambda name=name: observe_multiround(name)
    return seen


if __name__ == "__main__":  # capture: run at the parent commit only
    GOLDEN.parent.mkdir(exist_ok=True)
    seen = {key: observe() for key, observe in observations().items()}
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(seen[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(seen)
    ) + "\n}\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
