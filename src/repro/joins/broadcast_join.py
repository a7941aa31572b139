"""The broadcast join (slide 32).

When one relation is much smaller than the other, replicate the small
one to every server and leave the big one in place. One round, load
``|small|`` per server — cheaper than hash partitioning whenever
``|small| < |big| / p``. Hive, Impala and SparkSQL all implement this.
"""

from __future__ import annotations

from repro.data.relation import Relation
from repro.joins.base import JoinRun, join_schemas, local_join, require_join_key
from repro.mpc.cluster import Cluster
from repro.mpc.server import held


def broadcast_join(
    r: Relation,
    s: Relation,
    p: int,
    seed: int = 0,
) -> JoinRun:
    """Broadcast the smaller of R, S; join against the bigger in place."""
    require_join_key(r, s)
    small, big = (r, s) if len(r) <= len(s) else (s, r)

    cluster = Cluster(p, seed=seed)
    big_frag = cluster.scatter(big, "big@in")
    small_frag = cluster.scatter(small, "small@in")

    replica = "small@all"
    with cluster.round("broadcast") as rnd:
        for server in cluster.servers:
            # One batched send of the fragment's columns per destination.
            part = server.take(small_frag)
            if len(part):
                columns = held(part, small.schema.arity)
                for dest in range(p):
                    rnd.send_columns(dest, replica, columns)

    # Keep the user-facing attribute order: R's attributes first.
    left_frag = big_frag if big is r else replica
    right_frag = replica if big is r else big_frag
    local_join(cluster, left_frag, right_frag, r, s, "out")

    _shared, schema = join_schemas(r, s)
    output = cluster.gather_relation("out", "OUT", schema)
    return JoinRun(output, cluster.stats)
