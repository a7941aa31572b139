"""Tests for the one local step of a HyperCube server.

Every grid server evaluates the query on its fragments with the
left-deep plan of ``hypercube.eval``; these cases run it through
:func:`repro.multiway.hypercube.hypercube_join` on one server (the whole
query is local) and on eight, and hold the output to
:meth:`ConjunctiveQuery.evaluate` on the unsplit inputs. (The file is
named for the per-row Generic Join these cases once checked.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.graphs import count_triangles, random_edges, triangle_relations
from repro.data.relation import Relation
from repro.errors import QueryError
from repro.multiway.hypercube import hypercube_join
from repro.query.cq import Atom, ConjunctiveQuery, cycle_query, path_query, triangle_query

SERVERS = (1, 8)


def local_outputs(query, relations):
    """The output rows of ``hypercube_join`` at every p in ``SERVERS``."""
    return [sorted(hypercube_join(query, relations, p).output.rows()) for p in SERVERS]


class TestCorrectness:
    def test_triangle_matches_reference(self):
        edges = random_edges(150, 25, seed=1)
        r, s, t = triangle_relations(edges)
        q = triangle_query()
        rels = {"R": r, "S": s, "T": t}
        want = sorted(q.evaluate(rels).rows())
        assert len(want) == count_triangles(edges)
        assert local_outputs(q, rels) == [want] * len(SERVERS)

    def test_path_matches_reference(self):
        q = path_query(3)
        rels = {
            f"R{i}": Relation(
                f"R{i}", [f"A{i-1}", f"A{i}"],
                [((j * i) % 7, (j + i) % 7) for j in range(20)],
            )
            for i in range(1, 4)
        }
        want = sorted(q.evaluate(rels).rows())
        assert local_outputs(q, rels) == [want] * len(SERVERS)

    def test_four_cycle(self):
        q = cycle_query(4)
        edges = random_edges(80, 15, seed=2)
        u, v = edges.schema.attributes
        rels = {
            a.name: edges.rename({u: a.variables[0], v: a.variables[1]}, name=a.name)
            for a in q.atoms
        }
        want = sorted(q.evaluate(rels).rows())
        assert local_outputs(q, rels) == [want] * len(SERVERS)

    def test_bag_multiplicities(self):
        q = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "z"])])
        r = Relation("R", ["x", "y"], [(1, 2), (1, 2)])
        s = Relation("S", ["y", "z"], [(2, 3), (2, 3), (2, 4)])
        want = sorted(q.evaluate({"R": r, "S": s}).rows())
        assert len(want) == 6
        assert local_outputs(q, {"R": r, "S": s}) == [want] * len(SERVERS)

    def test_missing_relation_rejected(self):
        for p in SERVERS:
            with pytest.raises(QueryError):
                hypercube_join(triangle_query(), {}, p)

    rows = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20)

    @given(rows, rows, rows)
    @settings(max_examples=20, deadline=None)
    def test_property_triangle_agreement(self, e1, e2, e3):
        q = triangle_query()
        rels = {
            "R": Relation("R", ["x", "y"], e1),
            "S": Relation("S", ["y", "z"], e2),
            "T": Relation("T", ["z", "x"], e3),
        }
        want = sorted(q.evaluate(rels).rows())
        assert local_outputs(q, rels) == [want] * len(SERVERS)
