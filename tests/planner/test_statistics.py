"""Tests for planner statistics."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.kernels.memo import clear_memo, degree_view, forget, memo_cache_sizes
from repro.planner.statistics import (
    JoinStatistics,
    QueryStatistics,
    collect_query_statistics,
    join_statistics,
    relation_statistics,
)
from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.parser import parse_query


def _relation_with_degree(name, attrs, size, degree, key_index=1):
    """``size`` rows where one join value occurs exactly ``degree`` times."""
    assert degree <= size
    rows = [(i, 0) for i in range(degree)]
    rows += [(1000 + i, 1 + i) for i in range(size - degree)]
    if key_index == 0:
        rows = [(b, a) for a, b in rows]
    return Relation(name, attrs, rows)


class TestJoinStatistics:
    def test_basic_profile(self):
        r = Relation("R", ["x", "y"], [(1, 2), (3, 2), (4, 5)])
        s = Relation("S", ["y", "z"], [(2, 0), (2, 1), (9, 9)])
        stats = join_statistics(r, s)
        assert stats.r_size == 3 and stats.s_size == 3
        assert stats.shared == ("y",)
        assert stats.out_size == 4  # y=2: 2x2
        assert stats.max_degree_r == 2
        assert stats.max_degree_s == 2
        assert stats.in_size == 6

    def test_no_shared_attrs_is_product(self):
        r = Relation("R", ["x"], [(1,), (2,)])
        s = Relation("S", ["z"], [(1,), (2,), (3,)])
        stats = join_statistics(r, s)
        assert stats.shared == ()
        assert stats.out_size == 6

    def test_empty_relations(self):
        r = Relation("R", ["x", "y"])
        s = Relation("S", ["y", "z"], [(1, 2)])
        stats = join_statistics(r, s)
        assert stats.out_size == 0
        assert stats.max_degree_r == 0

    def test_heavy_hitter_detection(self):
        r = Relation("R", ["x", "y"], [(i, 0) for i in range(10)])
        s = Relation("S", ["y", "z"], [(0, 0)])
        stats = join_statistics(r, s)
        assert stats.has_heavy_hitter(p=4)      # degree 10 ≥ 11/4
        assert not stats.has_heavy_hitter(p=1)  # threshold 11 > 10

    rows = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30)

    @given(rows, rows)
    def test_out_size_matches_actual_join(self, r_rows, s_rows):
        r = Relation("R", ["x", "y"], r_rows)
        s = Relation("S", ["y", "z"], s_rows)
        assert join_statistics(r, s).out_size == len(r.join(s))


class TestHeavyHitterThresholdBoundary:
    """The paper's rule (arXiv:1401.1872): heavy iff frequency > m/p,
    with m the size of the relation the value appears in — NOT the
    combined input IN/p. These pin the boundary exactly; they fail
    against the old IN/p-relative implementation.
    """

    def test_exactly_m_over_p_is_not_heavy(self):
        # m=100, p=4: threshold 25. Degree exactly 25 is NOT heavy.
        r = _relation_with_degree("R", ["x", "y"], 100, 25)
        s = Relation("S", ["y", "z"], [(i, i) for i in range(100)])
        assert not join_statistics(r, s).has_heavy_hitter(p=4)

    def test_one_above_m_over_p_is_heavy(self):
        # Degree 26 > 100/4: heavy — even though the old IN/p threshold
        # (200/4 = 50) would have called this uniform.
        r = _relation_with_degree("R", ["x", "y"], 100, 26)
        s = Relation("S", ["y", "z"], [(i, i) for i in range(100)])
        assert join_statistics(r, s).has_heavy_hitter(p=4)

    def test_one_below_m_over_p_is_not_heavy(self):
        r = _relation_with_degree("R", ["x", "y"], 100, 24)
        s = Relation("S", ["y", "z"], [(i, i) for i in range(100)])
        assert not join_statistics(r, s).has_heavy_hitter(p=4)

    def test_threshold_is_per_relation_not_combined(self):
        # The heavy side is small next to its partner: degree 26 in a
        # 100-row R is heavy at p=4 (26 > 25) although the combined
        # input's IN/p = (100+900)/4 = 250 would miss it entirely.
        r = _relation_with_degree("R", ["x", "y"], 100, 26)
        s = Relation("S", ["y", "z"], [(i, i) for i in range(900)])
        assert join_statistics(r, s).has_heavy_hitter(p=4)

    def test_heavy_in_s_side_uses_s_size(self):
        r = Relation("R", ["x", "y"], [(i, 1000 + i) for i in range(400)])
        s = _relation_with_degree("S", ["y", "z"], 100, 26, key_index=0)
        assert join_statistics(r, s).has_heavy_hitter(p=4)
        s_ok = _relation_with_degree("S", ["y", "z"], 100, 25, key_index=0)
        assert not join_statistics(r, s_ok).has_heavy_hitter(p=4)

    def test_relation_statistics_same_boundary(self):
        heavy = _relation_with_degree("R", ["x", "y"], 100, 26)
        level = _relation_with_degree("R", ["x", "y"], 100, 25)
        assert relation_statistics(heavy, p=4).heavy_values("y") == (0,)
        assert relation_statistics(level, p=4).heavy_values("y") == ()

    def test_query_statistics_skewed_flag_same_boundary(self):
        cq = parse_query("R(x, y), S(y, z)")
        s = Relation("S", ["y", "z"], [(i, i) for i in range(100)])
        heavy = collect_query_statistics(
            cq, {"R": _relation_with_degree("R", ["x", "y"], 100, 26), "S": s},
            p=4,
        )
        level = collect_query_statistics(
            cq, {"R": _relation_with_degree("R", ["x", "y"], 100, 25), "S": s},
            p=4,
        )
        assert heavy.skewed and not level.skewed
        # Heavy joint degrees carry the summed cross-atom degree: 26
        # from R plus the single matching S tuple.
        assert heavy.heavy_joint_degrees["y"] == ((0, 27),)
        assert level.heavy_joint_degrees["y"] == ()


class TestQueryStatistics:
    def test_sampled_statistics_flagged_and_plausible(self):
        cq = parse_query("R(x, y), S(y, z)")
        r = Relation("R", ["x", "y"], [(i, i % 7) for i in range(600)])
        s = Relation("S", ["y", "z"], [(i % 7, i) for i in range(600)])
        stats = collect_query_statistics(cq, {"R": r, "S": s}, p=4, sample=200)
        assert stats.sampled
        assert stats.in_size == 1200
        # Every residue class has degree ~86 > 150/…? threshold 600/4:
        # none heavy; the sampled estimate must agree at this margin.
        assert not stats.skewed

    def test_out_estimate_override(self):
        cq = parse_query("R(x, y), S(y, z)")
        r = Relation("R", ["x", "y"], [(1, 1)])
        s = Relation("S", ["y", "z"], [(1, 2)])
        stats = collect_query_statistics(cq, {"R": r, "S": s}, p=2,
                                         out_estimate=99)
        assert stats.out_estimate == 99

    def test_statistics_are_frozen(self):
        stats = QueryStatistics(
            p=2, in_size=0, out_estimate=0, sizes={},
            heavy_join_values={}, max_joint_degree=0, per_relation=(),
        )
        with pytest.raises(AttributeError):
            stats.p = 4


def _row_loop_join_statistics(r, s):
    """Reference: count the join key per row tuple, no cache."""
    shared = r.schema.common(s.schema)
    r_idx, s_idx = r.schema.indices(shared), s.schema.indices(shared)
    r_deg = Counter(tuple(row[i] for i in r_idx) for row in r.rows_readonly())
    s_deg = Counter(tuple(row[i] for i in s_idx) for row in s.rows_readonly())
    out = (sum(c * s_deg.get(k, 0) for k, c in r_deg.items()) if shared
           else len(r) * len(s))
    return JoinStatistics(len(r), len(s), shared, out,
                          max(r_deg.values(), default=0),
                          max(s_deg.values(), default=0))


def _row_loop_profile(cq, relations, p):
    """Reference for the exact degree fields of ``collect_query_statistics``."""
    join_vars = [v for v in cq.variables if len(cq.atoms_with(v)) >= 2]
    heavy = {v: set() for v in join_vars}
    joint = Counter()
    max_degree = {}
    for atom in cq.atoms:
        rel = relations[atom.name]
        for v in atom.variables:
            if v not in join_vars:
                continue
            i = rel.schema.index(v)
            degrees = Counter(row[i] for row in rel.rows_readonly())
            max_degree[atom.name, v] = max(degrees.values(), default=0)
            heavy[v].update(x for x, c in degrees.items() if c > len(rel) / p)
            for value, count in degrees.items():
                joint[v, value] += count
    return (
        {v: tuple(sorted(s)) for v, s in heavy.items()},
        max(joint.values(), default=0),
        {v: tuple((x, joint[v, x]) for x in sorted(heavy[v])) for v in join_vars},
        max_degree,
    )


def _assert_profile_matches(cq, relations, p):
    stats = collect_query_statistics(cq, relations, p)
    heavy, max_joint, heavy_joint, max_degree = _row_loop_profile(cq, relations, p)
    assert stats.heavy_join_values == heavy
    assert stats.max_joint_degree == max_joint
    assert stats.heavy_joint_degrees == heavy_joint
    for rel_stats in stats.per_relation:
        for attr, degree in rel_stats.max_degree.items():
            assert degree == max_degree[rel_stats.name, attr]
    return stats


class TestDegreeViewsMatchTheRowLoop:
    """Exact statistics read the memoized degree views; the row loop is
    the reference they must equal — cached, after a ``rows()`` hand-out,
    or freshly mutated."""

    CASES = [
        (Relation("R", ["x", "y"], [(1, 2), (3, 2), (4, 5)]),
         Relation("S", ["y", "z"], [(2, 0), (2, 1), (9, 9)])),
        (Relation("R", ["x"], [(1,), (2,)]),
         Relation("S", ["z"], [(1,), (2,), (3,)])),
        (Relation("R", ["x", "y"]), Relation("S", ["y", "z"], [(1, 2)])),
        (Relation("R", ["x", "y"], []), Relation("S", ["z"], [])),
        (_relation_with_degree("R", ["x", "y"], 100, 26),
         Relation("S", ["y", "z"], [(i, i) for i in range(900)])),
        (Relation("R", ["x", "y"], [(i, 1000 + i) for i in range(400)]),
         _relation_with_degree("S", ["y", "z"], 100, 26, key_index=0)),
        (Relation("R", ["a", "b", "c"], [(i % 3, i % 4, i) for i in range(60)]),
         Relation("S", ["b", "a", "d"], [(i % 4, i % 3, -i) for i in range(45)])),
        (Relation("R", ["x", "y"], [("u", "k"), ("v", "k")]),
         Relation("S", ["y", "z"], [("k", 1.5), ("m", 2.5)])),
    ]

    @pytest.mark.parametrize("r, s", CASES)
    def test_join_statistics_equal_the_row_loop(self, r, s):
        expected = _row_loop_join_statistics(r, s)
        assert join_statistics(r, s) == expected
        assert join_statistics(r, s) == expected  # served from the views

    rows = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30)

    @given(rows, rows, st.integers(1, 8))
    def test_query_statistics_equal_the_row_loop(self, r_rows, s_rows, p):
        cq = parse_query("R(x, y), S(y, z)")
        relations = {"R": Relation("R", ["x", "y"], r_rows),
                     "S": Relation("S", ["y", "z"], s_rows)}
        first = _assert_profile_matches(cq, relations, p)
        assert collect_query_statistics(cq, relations, p) == first
        assert (join_statistics(relations["R"], relations["S"])
                == _row_loop_join_statistics(relations["R"], relations["S"]))

    def test_triangle_profile_equals_the_row_loop(self):
        cq = parse_query("R(x, y), S(y, z), T(z, x)")
        relations = {
            "R": Relation("R", ["x", "y"], [(i % 5, 0) for i in range(40)]),
            "S": Relation("S", ["y", "z"], [(i % 3, i % 7) for i in range(40)]),
            "T": Relation("T", ["z", "x"], [(i % 7, i % 5) for i in range(40)]),
        }
        stats = _assert_profile_matches(cq, relations, p=4)
        assert stats.skewed

    def test_borrowed_relation_is_recounted_never_cached(self):
        cq = parse_query("R(x, y), S(y, z)")
        r = Relation("R", ["x", "y"], [(i, 0) for i in range(10)])
        s = Relation("S", ["y", "z"], [(i, i) for i in range(12)])
        rows = r.rows()  # the caller's copy: the relation is not lent out
        first = _assert_profile_matches(cq, {"R": r, "S": s}, p=4)
        assert join_statistics(r, s) == _row_loop_join_statistics(r, s)
        before = memo_cache_sizes()[1]
        rows[:] = [(i, 1) for i in range(6)]  # in place, on the copy
        stats = _assert_profile_matches(cq, {"R": r, "S": s}, p=4)
        assert stats == first and stats.heavy_join_values["y"] == (0,)
        assert join_statistics(r, s) == _row_loop_join_statistics(r, s)
        assert join_statistics(r, s).max_degree_r == 10
        assert memo_cache_sizes()[1] == before  # served, not recounted
        assert forget(r) >= 1  # the degree views were pinned to r

    def test_join_statistics_reads_the_profile_views(self):
        # One join attribute: R ⋈ S is counted over the value-degree views
        # the query profile has already built, not over a second view.
        clear_memo()
        cq = parse_query("R(x, y), S(y, z)")
        r = Relation("R", ["x", "y"], [(i, i % 4) for i in range(10)])
        s = Relation("S", ["y", "z"], [(i % 3, i) for i in range(12)])
        collect_query_statistics(cq, {"R": r, "S": s}, p=4)
        views = memo_cache_sizes()[1]
        assert join_statistics(r, s) == _row_loop_join_statistics(r, s)
        assert memo_cache_sizes()[1] == views

    def test_mutation_between_calls_recounts(self):
        cq = parse_query("R(x, y), S(y, z)")
        r = Relation("R", ["x", "y"], [(i, i) for i in range(12)])
        s = Relation("S", ["y", "z"], [(i, i) for i in range(12)])
        level = _assert_profile_matches(cq, {"R": r, "S": s}, p=4)
        assert not level.skewed and join_statistics(r, s).max_degree_r == 1
        r.extend([(100 + i, 3) for i in range(9)])  # the token moves
        skewed = _assert_profile_matches(cq, {"R": r, "S": s}, p=4)
        assert skewed.heavy_join_values["y"] == (3,)
        assert skewed.heavy_joint_degrees["y"] == ((3, 11),)
        assert join_statistics(r, s) == _row_loop_join_statistics(r, s)
        assert join_statistics(r, s).max_degree_r == 10

    def test_planner_and_skewhc_share_one_degree_view(self):
        from repro.multiway.skewhc import find_heavy_values

        clear_memo()
        cq = parse_query("R(x, y), S(y, z)")
        relations = {"R": Relation("R", ["x", "y"], [(i, 0) for i in range(10)]),
                     "S": Relation("S", ["y", "z"], [(0, i) for i in range(10)])}
        collect_query_statistics(cq, relations, p=4)
        views = memo_cache_sizes()[1]
        assert views == 2  # R.y and S.y, each counted once
        assert degree_view(relations["R"], (1,)) is degree_view(relations["R"], (1,))
        find_heavy_values(cq, relations, threshold=5.0)
        # SkewHC scans every variable: x and z are new, both y views are
        # reused, and the heavy sets are one view of their own.
        assert memo_cache_sizes()[1] == views + 3
        find_heavy_values(cq, relations, threshold=5.0)
        assert memo_cache_sizes()[1] == views + 3

    @pytest.mark.parametrize("r, s", CASES)
    def test_two_atom_out_is_counted_not_materialised(self, r, s, monkeypatch):
        # One join variable, two, none (a Cartesian pair), empty sides,
        # duplicates, string keys: OUT equals the evaluated join's size
        # without evaluating it.
        cq = ConjunctiveQuery(
            [Atom("R", r.schema.attributes), Atom("S", s.schema.attributes)]
        )
        relations = {"R": r, "S": s}
        expected = len(cq.evaluate(relations))
        monkeypatch.setattr(
            ConjunctiveQuery, "evaluate",
            lambda *_args: pytest.fail("a two-atom OUT must be counted"),
        )
        assert collect_query_statistics(cq, relations, p=4).out_estimate == expected

    @given(rows, rows)
    def test_two_atom_out_equals_the_evaluated_join_with_duplicates(self, r_rows, s_rows):
        for s_attrs in (["y", "z"], ["z", "y"], ["x", "y"], ["u", "v"]):
            r = Relation("R", ["x", "y"], r_rows + r_rows[:3])
            s = Relation("S", s_attrs, s_rows)
            cq = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", s_attrs)])
            stats = collect_query_statistics(cq, {"R": r, "S": s}, p=3)
            assert stats.out_estimate == len(cq.evaluate({"R": r, "S": s}))

    def test_three_atoms_still_evaluate_for_out(self):
        # A cyclic query: its OUT is evaluated on first read, once.
        from unittest import mock

        cq = parse_query("R(x, y), S(y, z), T(z, x)")
        relations = {
            "R": Relation("R", ["x", "y"], [(i % 5, i % 3) for i in range(30)]),
            "S": Relation("S", ["y", "z"], [(i % 3, i % 7) for i in range(30)]),
            "T": Relation("T", ["z", "x"], [(i % 7, i % 5) for i in range(30)]),
        }
        expected = len(cq.evaluate(relations))
        with mock.patch.object(ConjunctiveQuery, "evaluate", autospec=True,
                               side_effect=ConjunctiveQuery.evaluate) as evaluate:
            stats = collect_query_statistics(cq, relations, p=4)
            assert evaluate.call_count == 0
            assert stats.out_estimate == expected
            assert evaluate.call_count == 1
            assert stats.out_estimate == expected
            assert evaluate.call_count == 1

    def test_sampled_path_still_counts_the_sampled_rows(self):
        import random

        rel = Relation("R", ["x", "y"], [(i, i % 7) for i in range(600)])
        sample = random.Random(5).sample(list(rel.rows_readonly()), 200)
        degrees = Counter(row[1] for row in sample)
        stats = relation_statistics(rel, p=4, attributes=("y",), sample=200, seed=5)
        assert stats.sampled
        assert stats.max_degree["y"] == int(round(max(degrees.values()) * 3.0))
        assert stats.heavy["y"] == tuple(
            sorted(v for v, c in degrees.items() if c * 3.0 > 150)
        )
        # A sample at least as large as the relation is the exact path.
        exact = relation_statistics(rel, p=4, attributes=("y",), sample=600)
        assert not exact.sampled and exact.max_degree["y"] == 86



class TestMixedTypeHeavyValues:
    """An ``object`` join column whose heavy values are a ``str`` and an
    ``int``: they cannot be sorted, so they keep the degree view's
    first-seen order, and every strategy still answers."""

    QUERY = "R(x, y), S(y, z)"

    @staticmethod
    def _relations():
        r = Relation("R", ["x", "y"], [(i, "a") for i in range(20)]
                     + [(i, 1) for i in range(20)] + [(i, f"l{i}") for i in range(5)])
        s = Relation("S", ["y", "z"], [("a", 0), (1, 1), (1, 2), ("l3", 3), ("b", 4)])
        return {"R": r, "S": s}

    @pytest.mark.parametrize("strategy", ["hash", "skew", "hypercube", "skewhc", "gym"])
    def test_every_strategy_matches_the_oracle(self, strategy):
        from repro.engine import Engine
        from repro.testing.oracle import oracle_join, same_bag

        relations = self._relations()
        engine = Engine(p=4)
        for rel in relations.values():
            engine.register(rel)
        run = engine.query(self.QUERY, strategy=strategy)
        expected = oracle_join(parse_query(self.QUERY), relations)
        assert run.output.attributes == expected.attributes
        assert same_bag(expected.rows(), run.output.rows())

    def test_heavy_values_keep_first_seen_order(self):
        from repro.joins.skew_join import find_heavy_keys, skew_join
        from repro.multiway.skewhc import find_heavy_values
        from repro.testing.oracle import oracle_two_way, same_bag

        relations = self._relations()
        r, s = relations["R"], relations["S"]
        stats = collect_query_statistics(parse_query(self.QUERY), relations, p=4)
        assert stats.heavy_join_values == {"y": ("a", 1)}
        assert stats.heavy_joint_degrees == {"y": (("a", 21), (1, 22))}
        assert find_heavy_keys(r, s, ("y",), 10) == [("a",), (1,)]
        assert find_heavy_values(parse_query(self.QUERY), relations, 10)["y"] == ("a", 1)
        assert same_bag(oracle_two_way(r, s).rows(), skew_join(r, s, p=4).output.rows())

    def test_the_heavy_light_triangle_takes_mixed_heavy_z(self):
        from repro.multiway.semijoin import triangle_hl_semijoin
        from repro.testing.oracle import oracle_join, same_bag

        r = Relation("R", ["x", "y"], [(x, y) for x in range(4) for y in range(4)])
        s = Relation("S", ["y", "z"], [(y, z) for y in range(4) for z in ("a", 1, 2.5)])
        t = Relation("T", ["z", "x"], [(z, x) for z in ("a", 1) for x in range(4)])
        run = triangle_hl_semijoin(r, s, t, p=8, threshold=5)
        assert run.details["heavy_z"] == ["a", 1]
        expected = oracle_join(parse_query("R(x, y), S(y, z), T(z, x)"),
                               {"R": r, "S": s, "T": t})
        assert same_bag(expected.rows(), run.output.rows())


VALUES = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b", 1.0, True, 2**64]))


@st.composite
def acyclic_instances(draw):
    """A random acyclic query — each atom hangs off an earlier one, sharing
    some (maybe none: a new component) of its variables — and relations
    for it with duplicates, ``object`` keys, empty sides, and attributes in
    another order than the atom's."""
    atoms, fresh = [], iter(f"v{i}" for i in range(99))
    for i in range(draw(st.integers(1, 5))):
        parent = atoms[draw(st.integers(0, i - 1))][1] if atoms else []
        shared = [v for v in parent if draw(st.booleans())]
        variables = shared + [next(fresh) for _ in range(draw(st.integers(0 if shared else 1, 2)))]
        atoms.append((f"R{i}", variables))
    relations = {}
    for name, variables in atoms:
        attrs = draw(st.permutations(variables))
        values = st.sampled_from([0, 1]) if draw(st.booleans()) else VALUES
        rows = draw(st.lists(st.tuples(*[values] * len(attrs)), max_size=8))
        relations[name] = Relation(name, attrs, rows)
    return ConjunctiveQuery([Atom(name, variables) for name, variables in atoms]), relations


class TestAcyclicOutIsCounted:
    """The planner counts an acyclic query's OUT over its join tree."""

    @given(acyclic_instances(), st.integers(1, 8))
    def test_the_count_equals_the_evaluated_size(self, instance, p):
        from unittest import mock

        cq, relations = instance
        expected = len(cq.evaluate(relations))
        with mock.patch.object(ConjunctiveQuery, "evaluate", side_effect=AssertionError):
            out = collect_query_statistics(cq, relations, p).out_estimate
        assert out == expected and type(out) is int

    def test_past_int64_the_count_is_exact(self):
        import numpy as np

        side = 2**16
        cq = parse_query("A(k), B(k), C(k), D(k)")
        relations = {name: Relation.from_columns(name, ["k"], [np.zeros(side, np.int64)])
                     for name in "ABCD"}
        out = collect_query_statistics(cq, relations, p=4).out_estimate
        assert out == side**4 == 2**64 and type(out) is int


def _perfbench_engine(klass, n=600):
    """An engine over perfbench's ``klass`` generator, and its query."""
    import numpy as np

    from perfbench import datagen
    from repro.engine import Engine

    op = datagen.make_op(klass, n, 0, np.random.default_rng(21))
    engine = Engine(p=8)
    for name, (attrs, cols) in op.relations.items():
        engine.register(Relation.from_columns(name, attrs, cols))
    return engine, parse_query(datagen.query_text(klass))


class TestCyclicOutOnRead:
    """No ranking reads a cyclic query's OUT, so planning never evaluates
    it; the fields that print it compute it on first read, to the value
    an eager evaluation gives."""

    @pytest.mark.parametrize("klass, chosen", [("tri", "hypercube"), ("skewtri", "skewhc")])
    def test_engine_query_evaluates_no_cyclic_query(self, klass, chosen, monkeypatch):
        import math

        from repro.theory.lower_bounds import join_load_lower_bound

        clear_memo()
        engine, cq = _perfbench_engine(klass)
        bindings = {atom.name: engine.relation(atom.name) for atom in cq.atoms}
        expected = len(cq.evaluate(bindings))
        calls = []
        real = ConjunctiveQuery.evaluate

        def spy(self, relations):
            calls.append(self is cq)  # the servers' local plans are other queries
            return real(self, relations)

        monkeypatch.setattr(ConjunctiveQuery, "evaluate", spy)
        # Forced: both pick HyperCube, and skewtri's one-server pools are SkewHC's.
        result = engine.query(cq, strategy=chosen)
        assert result.plan.algorithm == chosen and calls.count(True) == 0
        assert result.explain.chosen == "hypercube"
        assert Counter(result.output.rows_readonly()) == Counter(
            real(cq, bindings).rows_readonly())
        explain = result.explain
        assert result.plan.out_estimate == explain.statistics.out_estimate == expected
        assert calls.count(True) == 1
        rho = explain.rho_star
        assert explain.lower_bound == join_load_lower_bound(expected, rho, 8, rounds=1)
        skewhc = explain.candidate("skewhc")
        assert skewhc.envelope_additive == (
            8 + 8.0 + math.sqrt(max(expected, 1) / 8) + explain.statistics.max_joint_degree)
        assert "OUT~%d" % expected in explain.describe()
        assert engine.query(cq, strategy=chosen).explain is explain and calls.count(True) == 1
        clear_memo()

    def test_out_counts_the_rows_planning_saw(self):
        # Rows appended after planning are not in the OUT read afterwards,
        # and the statistics keep no input alive.
        import gc
        import pickle
        import weakref

        cq = parse_query("R(x, y), S(y, z), T(z, x)")
        relations = {
            "R": Relation("R", ["x", "y"], [(i % 5, i % 3) for i in range(30)]),
            "S": Relation("S", ["y", "z"], [(i % 3, i % 7) for i in range(30)]),
            "T": Relation("T", ["z", "x"], [(i % 7, i % 5) for i in range(30)]),
        }
        expected = len(cq.evaluate(relations))
        stats = collect_query_statistics(cq, relations, p=4)
        twin = collect_query_statistics(cq, relations, p=4)
        relations["R"].extend([(x, y) for x in range(5) for y in range(3)])
        assert len(cq.evaluate(relations)) > expected
        refs = [weakref.ref(rel) for rel in relations.values()]
        del relations
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        assert stats.out_estimate == expected
        assert pickle.loads(pickle.dumps(twin)) == stats
