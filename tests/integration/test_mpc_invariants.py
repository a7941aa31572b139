"""Property tests on MPC-simulator invariants.

Conservation laws every algorithm must respect:

- tuples are neither created nor destroyed by a shuffle (the union of
  destination fragments equals the union of sources);
- the recorded total communication equals the number of sent units;
- loads are non-negative and RunStats aggregation is consistent;
- C ≤ p · r · L (the identity used throughout the matmul section).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import uniform_relation
from repro.data.relation import Relation
from repro.joins import parallel_hash_join, skew_join, sort_join
from repro.mpc.cluster import Cluster
from repro.multiway import triangle_hypercube
from repro.data.graphs import random_edges, triangle_relations
from repro.testing.scalar_reference import send_row

pytestmark = pytest.mark.slow


class TestShuffleConservation:
    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60),
        st.integers(1, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_shuffle_preserves_tuples(self, rows, p):
        cluster = Cluster(p)
        r = Relation("R", ["x", "y"], rows)
        cluster.scatter(r, "R")
        h = cluster.hash_function(0)
        with cluster.round("shuffle") as rnd:
            for server in cluster.servers:
                for row in server.take("R"):
                    send_row(rnd, h(row[0]), "R@j", row)
        assert sorted(cluster.gather("R@j")) == sorted(rows)
        assert cluster.stats.total_communication == len(rows)

    @given(st.integers(1, 10), st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_broadcast_cost(self, p, n):
        cluster = Cluster(p)
        with cluster.round("b") as rnd:
            for i in range(n):
                for dest in range(p):
                    send_row(rnd, dest, "B", (i,))
        assert cluster.stats.total_communication == n * p
        assert all(len(s.get("B")) == n for s in cluster.servers)


class TestCostIdentities:
    def test_c_at_most_p_r_l(self):
        """C ≤ p·r·L for real runs (slide 107's cost identity)."""
        edges = random_edges(300, 50, seed=1)
        r, s, t = triangle_relations(edges)
        run = triangle_hypercube(r, s, t, p=8)
        stats = run.stats
        assert (
            stats.total_communication
            <= stats.p * max(stats.num_rounds, 1) * stats.max_load
        )

    @pytest.mark.parametrize("algorithm", [parallel_hash_join, skew_join, sort_join])
    def test_join_costs_consistent(self, algorithm):
        r = uniform_relation("R", ["x", "y"], 300, 60, seed=5)
        s = uniform_relation("S", ["y", "z"], 300, 60, seed=6)
        run = algorithm(r, s, p=8)
        stats = run.stats
        assert stats.max_load >= 0
        assert stats.total_communication >= stats.max_load
        per_round_max = max((rd.max_load for rd in stats.rounds), default=0)
        assert per_round_max == stats.max_load

    def test_round_received_lengths_match_p(self):
        edges = random_edges(100, 30, seed=2)
        r, s, t = triangle_relations(edges)
        run = triangle_hypercube(r, s, t, p=6)
        for rd in run.stats.rounds:
            assert len(rd.received) == 6


class TestHypercubeInvariants:
    def test_every_tuple_replicated_to_matching_servers_only(self):
        """Fragments on a server only hold tuples hashing to its coordinate."""
        from repro.mpc.topology import Grid
        from repro.query.cq import triangle_query
        from repro.query.shares import equal_size_shares

        edges = random_edges(120, 25, seed=3)
        r, s, t = triangle_relations(edges)
        p = 8
        cluster_seed = 0
        run = triangle_hypercube(r, s, t, p=p, seed=cluster_seed)
        shares = run.details["shares"]
        # Recompute the routing and confirm replication counts.
        grid_size = shares["x"] * shares["y"] * shares["z"]
        expected_repl = {
            "R": shares["z"],
            "S": shares["x"],
            "T": shares["y"],
        }
        total = run.stats.total_communication
        assert total == sum(
            len(rel) * expected_repl[name]
            for name, rel in (("R", r), ("S", s), ("T", t))
        )
        assert grid_size <= p
