"""The parallel hash join (slide 23).

Round 1 communication: every tuple of R and S is sent to server
``h(join key)``; round 1 computation: each server joins what it received
locally. With skew-free data (every join value of degree ≤ IN/p·…) the
load concentrates at L = Θ(IN/p) (slides 24–25); a single heavy value of
degree d pushes the load to Θ(d).

The round exists once: :func:`scatter_and_route` is the communication
half (also the light part of :func:`repro.joins.skew_join.skew_join`),
:func:`one_round_hash_join` adds the distributed local join and the
gather on a given cluster; :func:`parallel_hash_join` and
:func:`repro.multiway.base.shuffle_join` build one for it, and the
multi-round plans run it as one step of their own cluster. Fragments
are named by role (``L``/``R``), never after the input relations, so two
inputs that share a ``name`` — a self-join written with ``rename`` —
cannot collide.
"""

from __future__ import annotations

from repro.data.relation import Relation
from repro.joins.base import JoinRun, local_join, require_join_key
from repro.kernels.memo import route
from repro.mpc.cluster import Cluster


def parallel_hash_join(
    r: Relation,
    s: Relation,
    p: int,
    seed: int = 0,
) -> JoinRun:
    """One-round hash-partitioned natural join of R and S on ``p`` servers."""
    cluster = Cluster(p, seed=seed)
    return JoinRun(one_round_hash_join(cluster, r, s, "hash-shuffle", "OUT"), cluster.stats)


def one_round_hash_join(
    cluster: Cluster, r: Relation, s: Relation, label: str, name: str
) -> Relation:
    """Scatter, shuffle by join key in round ``label``, join locally, gather.

    The gathered relation is called ``name``; it is also what the local
    joins of a *following* round ship as their input's name.
    """
    shared = require_join_key(r, s)
    scatter_and_route(cluster, r, s, shared, label)
    return local_join(cluster, "L@j", "R@j", r, s, name)


def scatter_and_route(
    cluster: Cluster, r: Relation, s: Relation, shared: tuple[str, ...], label: str
) -> None:
    """Scatter both inputs, then route both by the hashed shared key.

    One charged round called ``label``; leaves R's rows in ``L@j`` and
    S's in ``R@j`` on the server their join key hashes to.
    """
    r_frag = cluster.scatter(r, "L@in")
    s_frag = cluster.scatter(s, "R@in")
    h = cluster.hash_function(0)
    with cluster.round(label) as rnd:
        for rel, frag, out in ((r, r_frag, "L@j"), (s, s_frag, "R@j")):
            route(cluster, rnd, frag, rel.schema.indices(shared), h, out, rel)
