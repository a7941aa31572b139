"""Tests for the reduce-then-HyperCube hybrid (slides 63, 93)."""

import pytest

from repro.data.generators import skewed_relation, uniform_relation
from repro.data.relation import Relation
from repro.errors import QueryError
from repro.multiway.hypercube import hypercube_join
from repro.multiway.reduced import reduced_hypercube
from repro.query.cq import Atom, ConjunctiveQuery, path_query, star_query, triangle_query


def path_rels(n, size=150, universe=60, seed=0):
    return {
        f"R{i}": uniform_relation(
            f"R{i}", [f"A{i-1}", f"A{i}"], size, universe, seed=seed + i
        )
        for i in range(1, n + 1)
    }


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_paths_match_reference(self, n):
        q = path_query(n)
        rels = path_rels(n)
        run = reduced_hypercube(q, rels, p=8)
        assert sorted(run.output.rows()) == sorted(q.evaluate(rels).rows())

    def test_star_matches_reference(self):
        q = star_query(3)
        rels = {
            f"R{i}": uniform_relation(f"R{i}", ["A0", f"A{i}"], 150, 80, seed=i)
            for i in range(1, 4)
        }
        run = reduced_hypercube(q, rels, p=8)
        assert sorted(run.output.rows()) == sorted(q.evaluate(rels).rows())

    def test_empty_output(self):
        q = path_query(2)
        rels = {
            "R1": Relation("R1", ["A0", "A1"], [(1, 2)]),
            "R2": Relation("R2", ["A1", "A2"], [(9, 9)]),
        }
        run = reduced_hypercube(q, rels, p=4)
        assert len(run.output) == 0
        # Both relations reduce to nothing before the HyperCube round.
        assert run.details["reduction"]["R1"][1] == 0

    def test_cyclic_rejected(self):
        rels = {
            "R": Relation("R", ["x", "y"], [(1, 2)]),
            "S": Relation("S", ["y", "z"], [(2, 3)]),
            "T": Relation("T", ["z", "x"], [(3, 1)]),
        }
        with pytest.raises(Exception):
            reduced_hypercube(triangle_query(), rels, p=4)

    def test_missing_relation_rejected(self):
        with pytest.raises(QueryError):
            reduced_hypercube(path_query(2), {}, p=4)


class TestWhereItWins:
    def test_selective_query_beats_plain_hypercube(self):
        """Slide 63's upshot: semijoins shrink the one-round load when
        the output is small — non-joining filler dominates the inputs."""
        q = path_query(3)
        # 90% of every relation joins nothing.
        rels = {}
        for i in range(1, 4):
            joining = [(j % 10, j % 10) for j in range(30)]
            filler = [(1000 * i + j, 2000 * i + j) for j in range(270)]
            rels[f"R{i}"] = Relation(
                f"R{i}", [f"A{i-1}", f"A{i}"], joining + filler
            )
        plain = hypercube_join(q, rels, p=16)
        hybrid = reduced_hypercube(q, rels, p=16)
        assert sorted(hybrid.output.rows()) == sorted(plain.output.rows())
        # The final one-round join round is much cheaper after reduction
        # (the total run adds the semijoin rounds, but the max one-round
        # load drops).
        hc_round_load = max(
            r.max_load for r in hybrid.stats.rounds if r.label == "hypercube"
        )
        assert hc_round_load < plain.load / 2

    def test_reduction_ratios_reported(self):
        q = path_query(2)
        rels = {
            "R1": Relation("R1", ["A0", "A1"], [(1, 2), (3, 4)]),
            "R2": Relation("R2", ["A1", "A2"], [(2, 5)]),
        }
        run = reduced_hypercube(q, rels, p=4)
        assert run.details["reduction"]["R1"] == (2, 1)
        assert run.details["reduction"]["R2"] == (1, 1)

    def test_rounds_are_depth_plus_one(self):
        q = path_query(4)
        rels = path_rels(4, size=80, universe=30)
        run = reduced_hypercube(q, rels, p=8)
        # up sweep + down sweep + 1 HyperCube round: O(depth).
        assert run.rounds <= 2 * 3 + 1


class TestReducerGolden:
    """``reduced_hypercube`` is GYM's reducer under its own seeds
    (``seed``, ``seed + 500``, HyperCube at ``seed + 999``): |OUT| and
    every round's per-server ``received`` list are pinned, so a change
    to the shared reducer cannot silently move this plan's loads.
    """

    TREE = ConjunctiveQuery([
        Atom("A", ["x", "y"]), Atom("B", ["y", "z"]), Atom("C", ["y", "w"]),
        Atom("D", ["z", "u"]), Atom("E", ["z", "v"]),
    ])
    CASES = {
        "path3": (
            path_query(3),
            lambda: path_rels(3),
            8,
            1020,
            [
                ("semijoin-up", [27, 37, 25, 29, 28, 19, 16, 24]),
                ("semijoin-up", [23, 32, 26, 32, 30, 15, 11, 26]),
                ("semijoin-down", [73, 52, 35, 35, 68, 56, 45, 34]),
                ("hypercube", [111, 134, 132, 151, 92, 114, 76, 97]),
            ],
        ),
        "skewed-star": (
            star_query(3),
            lambda: {
                f"R{i}": skewed_relation(
                    f"R{i}", ["A0", f"A{i}"], 60, "A0", 40, 1.4, seed=i
                )
                for i in range(1, 4)
            },
            4,
            10163,
            [
                ("semijoin-up", [18, 39, 29, 8]),
                ("semijoin-down", [52, 19, 52, 19]),
                ("hypercube", [15, 87, 7, 47]),
            ],
        ),
        "tree5": (
            TREE,
            lambda: {
                a.name: uniform_relation(
                    a.name, list(a.variables), 60, 30, seed=20 + i
                )
                for i, a in enumerate(TestReducerGolden.TREE.atoms)
            },
            13,
            1560,
            [
                ("semijoin-up", [0, 2, 7, 12, 14, 17, 0, 10, 0, 12, 27, 6, 4]),
                ("semijoin-up", [0, 2, 7, 7, 13, 18, 0, 9, 0, 6, 20, 11, 6]),
                ("semijoin-down", [26, 32, 19, 0, 23, 26, 31, 20, 22, 38, 15, 31, 31]),
                ("hypercube", [91, 59, 56, 87, 55, 53, 52, 26, 27, 61, 32, 32, 0]),
            ],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_per_round_received(self, case):
        query, relations, p, out_size, rounds = self.CASES[case]
        rels = relations()
        run = reduced_hypercube(query, rels, p=p, seed=3)
        assert len(run.output) == out_size
        assert sorted(run.output.rows()) == sorted(query.evaluate(rels).rows())
        assert [(rd.label, rd.received) for rd in run.stats.rounds] == rounds
