"""Tests for join-tree depth minimization (the GYM round optimization)."""

import pytest

from repro.query.cq import Atom, ConjunctiveQuery, path_query, star_query
from repro.query.hypergraph import join_tree, minimize_depth, verify_join_tree


def tree_depth(parent: dict[str, str]) -> int:
    def depth_of(node: str) -> int:
        d = 0
        while parent[node] != node:
            node = parent[node]
            d += 1
        return d

    return max(depth_of(n) for n in parent)


class TestMinimizeDepth:
    def test_star_flattens_to_depth_one(self):
        q = star_query(6)
        flat = minimize_depth(q, join_tree(q))
        assert verify_join_tree(q, flat)
        assert tree_depth(flat) == 1

    def test_path_halves_by_center_rooting(self):
        # A path's running intersection forces a chain shape, but rooting
        # at the center still halves the depth: ⌈(n−1)/2⌉.
        q = path_query(5)
        flat = minimize_depth(q, join_tree(q))
        assert verify_join_tree(q, flat)
        assert tree_depth(flat) == 2

    def test_never_increases_depth(self):
        for q in (star_query(4), path_query(4)):
            original = join_tree(q)
            flat = minimize_depth(q, original)
            assert tree_depth(flat) <= tree_depth(original)

    def test_mixed_tree(self):
        # Slide 64's query: two branches under A0; depth can reach 2.
        q = ConjunctiveQuery(
            [
                Atom("R1", ["A0", "A1"]),
                Atom("R2", ["A0", "A2"]),
                Atom("R3", ["A1", "A3"]),
                Atom("R4", ["A2", "A4"]),
                Atom("R5", ["A2", "A5"]),
            ]
        )
        flat = minimize_depth(q, join_tree(q))
        assert verify_join_tree(q, flat)
        assert tree_depth(flat) <= 2

    def test_result_always_valid(self):
        q = star_query(3)
        flat = minimize_depth(q, join_tree(q))
        # Exactly one root, every node present.
        roots = [n for n, p in flat.items() if n == p]
        assert len(roots) == 1
        assert set(flat) == {a.name for a in q.atoms}


_HASHSEED_PROBE = """
from repro.data.generators import uniform_relation
from repro.multiway.gym import gym
from repro.query.cq import path_query
from repro.query.ghd import width1_ghd
from repro.query.parser import parse_query

for q in (path_query(4),
          parse_query("Q(a,b,c,d,e) :- R(a,b), S(b,c), T(c,d), U(d,e)")):
    rels = {
        a.name: uniform_relation(a.name, list(a.variables), 600, 600, seed=i)
        for i, a in enumerate(q.atoms)
    }
    print([c.cover for c in width1_ghd(q).root.children],
          gym(q, rels, p=8, seed=0).stats.max_load)
"""


def test_join_tree_and_gym_load_do_not_depend_on_the_hash_seed():
    # _reroot walks a set of atom names; iterating it in hash order made
    # the GHD's children order, and with it GYM's measured L, follow
    # PYTHONHASHSEED. String hashing is fixed per process, so the check
    # needs one interpreter per seed.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = set()
    for seed in ("0", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.add(subprocess.run(
            [sys.executable, "-c", _HASHSEED_PROBE], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout)
    assert len(outputs) == 1, outputs
