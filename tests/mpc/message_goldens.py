"""The fixed instances behind ``goldens/message_parent.json``.

The JSON was captured **at the commit before every round buffer became
column blocks** (run this file as a script with that commit's ``src`` on
``PYTHONPATH``), so the reference cannot drift with the code it pins:
per-round labels and ``received`` lists and a digest of the output of the
senders that moved tuples as rows there —

- ``group_by`` and ``two_phase_group_by``: two ``int`` keys, one heavy
  group, ``str`` keys, keys equal across types (``1``/``1.0``/``True``),
  ``uint64`` keys, an empty relation, and two-phase with no key;
- ``sql_matmul`` on dense, sparse, random-float and non-square inputs;
- ``square_block_matmul`` with one and several replicas per output block,
  fewer servers than blocks, and padded edge blocks;
- ``rectangle_block_matmul`` and ``rectangular_block_matmul``;
- ``cartesian_product``, one side empty too;
- ``shuffle_multi_semijoin`` with heavy keys;

and one round, and some of those senders, under an unrecovered channel
drop, an unrecovered duplicate and an unrecovered crash (their
``FaultStats`` and, for the round, the fragments' rows per server).
Relations are digested in output order, matrices by ``C.tobytes()``.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.data.relation import Relation
from repro.joins.cartesian import cartesian_product
from repro.kernels.memo import route
from repro.matmul.multi_round import square_block_matmul
from repro.matmul.one_round import rectangle_block_matmul
from repro.matmul.rectangular import rectangular_block_matmul
from repro.matmul.sql import sql_matmul
from repro.mpc import ChannelFault, Cluster, CrashFault, FaultPlan, RecoveryPolicy, faulty
from repro.multiway.aggregate import group_by, two_phase_group_by
from repro.multiway.base import shuffle_multi_semijoin

GOLDEN = Path(__file__).parent / "goldens" / "message_parent.json"
P_VALUES = (1, 3, 8)
MIXED = [1, 1.0, True, 2, 2.0, "a", 0, False, 0.0, -0.0, 3]


def group_cases():
    """``{name: (attributes, rows, keys)}``; the value attribute is ``v``."""
    return {
        "two-int": (["a", "b", "v"], [(i % 10, (i * 7) % 5, i - 40) for i in range(120)],
                    ["a", "b"]),
        "heavy": (["k", "v"], [(0 if i % 10 < 7 else i % 13, i * 0.1) for i in range(150)],
                  ["k"]),
        "str": (["cust", "month", "v"],
                [(f"c{(i * 31) % 13}", ["jan", "feb", "mar"][i % 3], i) for i in range(90)],
                ["cust", "month"]),
        "mixed-equal": (["k", "v"], [(MIXED[(i * 5) % len(MIXED)], i) for i in range(77)],
                        ["k"]),
        "uint64": (["k", "v"], [(2**63 + (i * 3) % 7, i) for i in range(60)], ["k"]),
        "empty": (["a", "v"], [], ["a"]),
    }


def _matrix(rows, cols, seed, kind="float"):
    rng = np.random.default_rng(seed)
    if kind == "int":
        return rng.integers(1, 10, size=(rows, cols)).astype(float)
    if kind == "sparse":
        dense = rng.integers(1, 10, size=(rows, cols)).astype(float)
        return np.where(rng.random((rows, cols)) < 0.15, dense, 0.0)
    return rng.standard_normal((rows, cols))


def sql_cases():
    """``{name: (A, B)}``."""
    return {
        "dense": (_matrix(5, 4, 1, "int"), _matrix(4, 6, 2, "int")),
        "sparse": (_matrix(8, 8, 3, "sparse"), _matrix(8, 8, 4, "sparse")),
        "random-float": (_matrix(7, 7, 5), _matrix(7, 7, 6)),
        "non-square": (_matrix(3, 9, 7), _matrix(9, 2, 8)),
    }


# (n, block size, p): H = ceil(n / b); replicas = max(1, p // H²).
SQUARE_BLOCK_CASES = {
    "one-replica": (6, 3, 4),
    "two-replicas": (6, 3, 8),
    "padded": (7, 3, 9),
    "padded-two-replicas": (7, 3, 18),
    "fewer-servers": (7, 3, 3),
    "one-server": (5, 2, 1),
}
RECTANGLE_GROUPS = (1, 2, 3)
RECTANGULAR_GROUPS = ((1, 1), (2, 3), (5, 7))


def cartesian_cases():
    """``{name: (R rows over (a, b), S rows over (c,))}``."""
    return {
        "mixed": ([(i, f"r{i}") for i in range(17)], [(i * 1.5,) for i in range(11)]),
        "lopsided": ([(i, -i) for i in range(40)], [("s",), ("t",)]),
        "empty-side": ([(i, i) for i in range(9)], []),
    }


def semijoin_relations():
    target = Relation("T", ["x", "y"], [(0 if i % 2 else i % 9, i) for i in range(60)])
    reducers = [
        Relation("K1", ["x", "z"], [(i % 7, -i) for i in range(20)]),
        Relation("K2", ["x", "w"], [(i % 5, "w") for i in range(12)]),
    ]
    return target, reducers


FAULT_PLANS = {
    "drop": FaultPlan(channel_faults=(ChannelFault(0, 2, "drop", count=2),),
                      recovery=RecoveryPolicy(enabled=False)),
    "duplicate": FaultPlan(channel_faults=(ChannelFault(0, 0, "duplicate", count=3),),
                           recovery=RecoveryPolicy(enabled=False)),
    "crash": FaultPlan(crashes=(CrashFault(0, 1),), recovery=RecoveryPolicy(enabled=False)),
}


def _digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _received(stats):
    return [[rd.label, list(rd.received)] for rd in stats.rounds]


def _faults(stats):
    """The fault counters, when a plan was active (not ``by_worker``: which
    worker a server's events land on depends on the backend)."""
    if stats.faults is None:
        return {}
    counters = dataclasses.asdict(stats.faults)
    del counters["by_worker"]
    return {"faults": counters}


def _relation(output, stats):
    rows = output.rows()
    return {"received": _received(stats), "rows": len(rows), "output": _digest(rows),
            **_faults(stats)}


def _matrix_out(c, stats):
    return {"received": _received(stats), "shape": list(c.shape),
            "output": hashlib.sha256(c.tobytes()).hexdigest()[:16], **_faults(stats)}


def observe_group(name, p, two_phase):
    attributes, rows, keys = group_cases()[name]
    rel = Relation("G", attributes, rows)
    if two_phase:
        return _relation(*two_phase_group_by(rel, keys, "v", sum, sum, p))
    return _relation(*group_by(rel, keys, "v", sum, p))


def observe_no_key_two_phase(p):
    rel = Relation("G", ["a", "v"], [(i % 4, i) for i in range(50)])
    return _relation(*two_phase_group_by(rel, [], "v", sum, sum, p))


def observe_sql(name, p):
    return _matrix_out(*sql_matmul(*sql_cases()[name], p))


def observe_square_block(name):
    n, block, p = SQUARE_BLOCK_CASES[name]
    return _matrix_out(*square_block_matmul(_matrix(n, n, n), _matrix(n, n, n + 1), p, block))


def observe_rectangle(groups):
    return _matrix_out(*rectangle_block_matmul(_matrix(6, 6, 11), _matrix(6, 6, 12), groups))


def observe_rectangular(k1, k3):
    return _matrix_out(*rectangular_block_matmul(_matrix(5, 4, 13), _matrix(4, 7, 14), k1, k3))


def observe_cartesian(name, p):
    r_rows, s_rows = cartesian_cases()[name]
    run = cartesian_product(Relation("R", ["a", "b"], r_rows), Relation("S", ["c"], s_rows), p)
    return _relation(run.output, run.stats)


def observe_semijoin(p):
    target, reducers = semijoin_relations()
    return _relation(*shuffle_multi_semijoin(target, reducers, p))


def observe_fault_round(kind):
    """One routed round of two fragments on 3 servers under an unrecovered fault."""
    cluster = Cluster(3, seed=5, faults=FAULT_PLANS[kind])
    cluster.scatter(Relation("R", ["x", "y"], [(i % 6, f"v{i}") for i in range(30)]), "R")
    cluster.scatter(Relation("S", ["x"], [(i,) for i in range(12)]), "S")
    h = cluster.hash_function(0)
    with cluster.round("faulty") as rnd:
        route(cluster, rnd, "R", (0,), h, "R@h")
        route(cluster, rnd, "S", (0,), h, "S@h")
    fragments = [
        {name: list(server.get(name)) for name in sorted(server.storage)}
        for server in cluster.servers
    ]
    return {"received": _received(cluster.stats), "fragments": _digest(fragments),
            **_faults(cluster.stats)}


FAULTY_SENDERS = {
    "cartesian": lambda: observe_cartesian("mixed", 3),
    "two-phase": lambda: observe_group("two-int", 3, True),
    "square-block": lambda: observe_square_block("padded-two-replicas"),
    "sql": lambda: observe_sql("dense", 3),
}


def observe_faulty_sender(kind, sender):
    with faulty(FAULT_PLANS[kind]):
        return FAULTY_SENDERS[sender]()


def observations():
    """``{golden key: thunk}`` for every instance."""
    seen = {}
    for p in P_VALUES:
        for name in group_cases():
            seen[f"group_by/{name}/{p}"] = lambda n=name, p=p: observe_group(n, p, False)
            seen[f"two_phase/{name}/{p}"] = lambda n=name, p=p: observe_group(n, p, True)
        seen[f"two_phase/no-key/{p}"] = lambda p=p: observe_no_key_two_phase(p)
        for name in sql_cases():
            seen[f"sql_matmul/{name}/{p}"] = lambda n=name, p=p: observe_sql(n, p)
        for name in cartesian_cases():
            seen[f"cartesian/{name}/{p}"] = lambda n=name, p=p: observe_cartesian(n, p)
        seen[f"semijoin/heavy/{p}"] = lambda p=p: observe_semijoin(p)
    for name in SQUARE_BLOCK_CASES:
        seen[f"square_block/{name}"] = lambda n=name: observe_square_block(n)
    for groups in RECTANGLE_GROUPS:
        seen[f"rectangle_block/{groups}"] = lambda g=groups: observe_rectangle(g)
    for k1, k3 in RECTANGULAR_GROUPS:
        seen[f"rectangular_block/{k1}x{k3}"] = lambda a=k1, b=k3: observe_rectangular(a, b)
    for kind in FAULT_PLANS:
        seen[f"faults/{kind}/round"] = lambda k=kind: observe_fault_round(k)
        for sender in FAULTY_SENDERS:
            seen[f"faults/{kind}/{sender}"] = (
                lambda k=kind, s=sender: observe_faulty_sender(k, s)
            )
    return seen


if __name__ == "__main__":  # capture: run at the parent commit only
    GOLDEN.parent.mkdir(exist_ok=True)
    seen = {key: observe() for key, observe in observations().items()}
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(seen[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(seen)
    ) + "\n}\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
