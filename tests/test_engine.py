"""Tests for the Engine facade and the query parser."""

import pytest

from repro.data.generators import single_value_relation, uniform_relation
from repro.data.graphs import count_triangles, random_edges, triangle_relations
from repro.data.relation import Relation
from repro.engine import Engine
from repro.errors import QueryError
from repro.kernels.memo import clear_memo, memo_cache_sizes
from repro.query import lp
from repro.query.parser import parse_query


class TestParser:
    def test_body_only(self):
        q = parse_query("R(x, y), S(y, z)")
        assert [str(a) for a in q.atoms] == ["R(x, y)", "S(y, z)"]
        assert q.variables == ("x", "y", "z")

    def test_with_head(self):
        q = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)")
        assert len(q.atoms) == 3

    def test_unicode_names(self):
        q = parse_query("Δ(x,y,z) :- R(x,y), S(y,z), T(z,x)")
        assert q.variables == ("x", "y", "z")

    def test_whitespace_insensitive(self):
        q = parse_query("  R( x ,y ) ,S(y,  z)  ")
        assert q.variables == ("x", "y", "z")

    def test_head_missing_variable_rejected(self):
        with pytest.raises(QueryError):
            parse_query("Q(x) :- R(x, y)")

    def test_head_extra_variable_rejected(self):
        with pytest.raises(QueryError):
            parse_query("Q(x, y, w) :- R(x, y)")

    def test_garbage_rejected(self):
        with pytest.raises(QueryError):
            parse_query("SELECT * FROM R")
        with pytest.raises(QueryError):
            parse_query("R(x, y) S(y, z)")  # missing comma
        with pytest.raises(QueryError):
            parse_query("R()")
        with pytest.raises(QueryError):
            parse_query("")


class TestEngineCatalog:
    def test_register_and_lookup(self):
        engine = Engine(p=4)
        r = Relation("R", ["x", "y"], [(1, 2)])
        engine.register(r)
        assert engine.relation("R") is r
        assert engine.names() == ["R"]

    def test_register_under_alias(self):
        engine = Engine(p=4)
        engine.register(Relation("R", ["x", "y"], [(1, 2)]), name="Edges")
        assert engine.names() == ["Edges"]

    def test_missing_relation_raises(self):
        with pytest.raises(QueryError):
            Engine(p=4).relation("Nope")

    def test_invalid_p(self):
        with pytest.raises(QueryError):
            Engine(p=0)


class TestEngineQueries:
    def test_two_way_join(self):
        engine = Engine(p=8)
        r = uniform_relation("R", ["x", "y"], 300, 60, seed=1)
        s = uniform_relation("S", ["y", "z"], 300, 60, seed=2)
        engine.register(r)
        engine.register(s)
        result = engine.query("R(x, y), S(y, z)")
        assert sorted(result.output.rows()) == sorted(r.join(s).rows())
        assert result.plan.algorithm == "hash"
        assert result.rounds >= 1

    def test_triangle_query(self):
        engine = Engine(p=8)
        edges = random_edges(200, 30, seed=3)
        r, s, t = triangle_relations(edges)
        for rel in (r, s, t):
            engine.register(rel)
        result = engine.query("Δ(x,y,z) :- R(x,y), S(y,z), T(z,x)")
        assert len(result.output) == count_triangles(edges)
        assert result.plan.algorithm in ("hypercube", "skewhc")

    def test_single_atom_scan(self):
        engine = Engine(p=4)
        engine.register(Relation("R", ["x", "y"], [(1, 2), (3, 4)]))
        result = engine.query("R(x, y)")
        assert sorted(result.output.rows()) == [(1, 2), (3, 4)]
        assert result.load == 0  # no communication needed

    def test_skewed_join_picks_skew_algorithm(self):
        engine = Engine(p=8)
        engine.register(single_value_relation("R", ["x", "y"], 150, "y"))
        engine.register(single_value_relation("S", ["y", "z"], 150, "y"))
        result = engine.query("R(x,y), S(y,z)")
        assert result.plan.algorithm == "skew"
        assert len(result.output) == 150 * 150

    def test_acyclic_multiway_uses_gym(self):
        engine = Engine(p=16)
        for i in range(1, 4):
            engine.register(
                uniform_relation(f"R{i}", [f"A{i-1}", f"A{i}"], 200, 300, seed=i)
            )
        result = engine.query("R1(A0,A1), R2(A1,A2), R3(A2,A3)")
        assert result.plan.algorithm == "gym"

    def test_query_object_accepted(self):
        from repro.query.cq import two_way_join

        engine = Engine(p=4)
        engine.register(uniform_relation("R", ["x", "y"], 50, 20, seed=4))
        engine.register(uniform_relation("S", ["y", "z"], 50, 20, seed=5))
        result = engine.query(two_way_join())
        expected = engine.relation("R").join(engine.relation("S"))
        assert sorted(result.output.rows()) == sorted(expected.rows())

    def test_unregistered_atom_raises(self):
        engine = Engine(p=4)
        engine.register(Relation("R", ["x", "y"], [(1, 2)]))
        with pytest.raises(QueryError):
            engine.query("R(x,y), S(y,z)")

    def test_mismatched_schema_raises(self):
        engine = Engine(p=4)
        engine.register(Relation("R", ["a", "b"], [(1, 2)]))
        engine.register(Relation("S", ["y", "z"], [(2, 3)]))
        with pytest.raises(QueryError):
            engine.query("R(x,y), S(y,z)")


class TestAlignCache:
    """The memoized input alignment (perf fix): correctness over reuse."""

    def _engine(self, p=4):
        engine = Engine(p=p)
        engine.register(uniform_relation("R", ["b", "a"], 60, 20, seed=1))
        engine.register(uniform_relation("S", ["b", "z"], 60, 20, seed=2))
        return engine

    def test_first_run_misses_then_hits(self):
        engine = self._engine()
        first = engine.query("R(a,b), S(b,z)")
        assert first.align_cache_hits == 0
        second = engine.query("R(a,b), S(b,z)")
        assert second.align_cache_hits == 2  # both atoms served from cache
        assert sorted(second.output.rows()) == sorted(first.output.rows())

    def test_register_invalidates(self):
        engine = self._engine()
        first = engine.query("R(a,b), S(b,z)")
        engine.register(uniform_relation("R", ["b", "a"], 80, 20, seed=9))
        refreshed = engine.query("R(a,b), S(b,z)")
        # Only the replaced relation is forgotten: R misses, S still hits.
        assert refreshed.align_cache_hits == 1
        assert sorted(refreshed.output.rows()) != sorted(first.output.rows())
        verify = engine.query("R(a,b), S(b,z)", verify=True)
        assert verify.align_cache_hits > 0

    def test_cached_result_matches_oracle(self):
        engine = self._engine()
        engine.query("R(a,b), S(b,z)")
        engine.query("R(a,b), S(b,z)", verify=True)  # oracle cross-check

    def test_distinct_alignments_cached_separately(self):
        engine = self._engine()
        engine.register(Relation("T", ["u", "v"], [(1, 2), (2, 3)]))
        first = engine.query("T(u,v)")
        assert first.align_cache_hits == 0
        # A different variable order over the same relation is a new entry.
        swapped = engine.query("T(v,u)")
        assert swapped.align_cache_hits == 0
        again = engine.query("T(v,u)")
        assert again.align_cache_hits == 1
        assert sorted(swapped.output.rows()) == [(2, 1), (3, 2)]

    def test_lru_eviction_bounds_the_cache(self):
        clear_memo()
        engine = Engine(p=2)
        capacity = 256  # the view cache's fixed bound
        for i in range(capacity + 8):
            engine.register(Relation(f"T{i}", ["u", "v"], [(i, i + 1)]))
        for i in range(capacity + 8):
            engine.query(f"T{i}(u,v)")
        assert memo_cache_sizes()[1] == capacity
        # Oldest entries evicted; the most recent still hit.
        assert engine.query("T0(u,v)").align_cache_hits == 0
        recent = engine.query(f"T{capacity + 7}(u,v)")
        assert recent.align_cache_hits == 1

    def test_mutating_a_registered_relation_between_queries(self):
        # Regression: the cache used to key on (name, id, schema) only,
        # so add()/extend() after a query kept serving the old aligned
        # projection — the second query answered over vanished data.
        engine = Engine(p=4)
        engine.register(Relation("T", ["v", "u"], [(2, 1)]))
        first = engine.query("T(u,v)")
        assert sorted(first.output.rows()) == [(1, 2)]
        engine.relation("T").add((4, 3))
        second = engine.query("T(u,v)")
        assert second.align_cache_hits == 0  # token bump = new cache key
        assert sorted(second.output.rows()) == [(1, 2), (3, 4)]
        engine.relation("T").extend([(6, 5)])
        engine.query("T(u,v)", verify=True)  # oracle agrees post-mutation

    def test_mutated_two_way_join_inputs_verify(self):
        engine = self._engine()
        engine.query("R(a,b), S(b,z)")
        engine.relation("R").add((1, 99))
        engine.relation("S").extend([(1, 7), (1, 8)])
        after = engine.query("R(a,b), S(b,z)", verify=True)
        assert after.align_cache_hits == 0
        assert (99, 1, 7) in after.output.rows_readonly()

    def test_borrowed_relation_is_never_cached(self):
        # The constructor reads the list into columns and rows() hands out
        # a copy: neither edit reaches T, so the cached alignment is right.
        engine = Engine(p=2)
        rows = [(2, 1)]
        engine.register(Relation("T", ["v", "u"], rows))
        engine.query("T(u,v)")
        rows[0] = (9, 8)
        engine.relation("T").rows().append((7, 6))
        again = engine.query("T(u,v)")
        assert again.align_cache_hits == 1
        assert sorted(again.output.rows()) == [(1, 2)]


class TestPlanningSolvesEachLPOnce:
    """A repeated query plans from the LP memo: ``linprog`` is not called."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The list of ``linprog`` calls made through ``repro.query.lp``."""
        calls = []
        real = lp.linprog

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lp, "linprog", counting)
        lp.clear()
        return calls

    @pytest.mark.parametrize("text, schemas", [
        ("R(a,b), S(b,c)", {"R": ["a", "b"], "S": ["b", "c"]}),
        ("R(x,y), S(y,z), T(z,x)",
         {"R": ["x", "y"], "S": ["y", "z"], "T": ["z", "x"]}),
    ], ids=["hash-join", "triangle"])
    def test_repeat_makes_no_linprog_call(self, solves, text, schemas):
        engine = Engine(p=8)
        for seed, (name, attrs) in enumerate(schemas.items()):
            engine.register(uniform_relation(name, attrs, 200, 40, seed=seed))
        first = engine.query(text)
        assert len(solves) == 2  # τ* and ρ*, each solved once; no share LP
        second = engine.query(text)
        assert len(solves) == 2
        assert second.explain == first.explain
        assert second.plan == first.plan
        assert second.output.rows_readonly() == first.output.rows_readonly()

        # Growing an input makes a new size profile. τ*/ρ* (hypergraph
        # only) are read from the query's shape record and the shares from
        # the grid table: the plan, and a HyperCube run, look no LP up.
        engine.relation("R").extend([(1, 2), (3, 4)])
        counters = lp.counters()[:2]
        grown = engine.query(text, verify=True)
        assert len(solves) == 2
        assert lp.counters()[:2] == counters
        assert grown.explain.tau_star == first.explain.tau_star
        assert grown.explain.rho_star == first.explain.rho_star

    def test_memo_outlives_the_engine_and_clear_memo(self, solves):
        def run():
            engine = Engine(p=8)
            engine.register(uniform_relation("R", ["a", "b"], 200, 40, seed=1))
            engine.register(uniform_relation("S", ["b", "c"], 200, 40, seed=2))
            return engine.query("R(a,b), S(b,c)").explain

        first = run()
        solved = len(solves)
        clear_memo()  # relation-derived state only; the LP memo is value-keyed
        assert run() == first
        assert len(solves) == solved


class TestThePlanIsAView:
    """A repeated query is served its decision record: no statistics pass,
    the same ``ExplainResult`` object, every per-query counter unmoved."""

    @pytest.fixture
    def statistics_calls(self, monkeypatch):
        from repro.planner import optimizer

        calls = []
        original = optimizer.collect_query_statistics

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer, "collect_query_statistics", counting)
        return calls

    def _engine(self):
        clear_memo()
        engine = Engine(p=4)
        engine.register(uniform_relation("R", ["x", "y"], 200, 40, seed=1))
        engine.register(uniform_relation("S", ["y", "z"], 200, 40, seed=2))
        engine.register(uniform_relation("T", ["z", "x"], 200, 40, seed=3))
        return engine

    @pytest.mark.parametrize("text", ["R(x,y), S(y,z)", "R(x,y), S(y,z), T(z,x)"])
    def test_repeat_shares_the_record_and_keeps_its_hit_counts(self, statistics_calls, text):
        engine = self._engine()
        engine.query(text)
        warm = engine.query(text)
        misses = lp.counters()[1]
        repeat = engine.query(text)
        assert repeat.explain is warm.explain
        assert repeat.plan == warm.plan
        assert len(statistics_calls) == 1
        # The plan lookup counts nothing into the query's own ledger.
        assert repeat.align_cache_hits == warm.align_cache_hits == len(warm.explain.statistics.sizes)
        assert repeat.stats.memo.view_hits == warm.stats.memo.view_hits
        assert repeat.stats.memo.partition_hits == warm.stats.memo.partition_hits
        assert lp.counters()[1] == misses

    def test_forced_strategy_reads_the_same_record(self, statistics_calls):
        engine = self._engine()
        auto = engine.query("R(x,y), S(y,z)")
        forced = engine.query("R(x,y), S(y,z)", strategy="hypercube")
        assert forced.explain is auto.explain
        assert forced.plan.algorithm == "hypercube"
        assert len(statistics_calls) == 1

    def test_register_replacement_and_mutation_replan(self, statistics_calls):
        engine = self._engine()
        first = engine.query("R(x,y), S(y,z)")
        engine.register(single_value_relation("S", ["y", "z"], 200, "y", 7))
        replaced = engine.query("R(x,y), S(y,z)", verify=True)
        assert replaced.explain is not first.explain
        assert replaced.explain.statistics.skewed and not first.explain.statistics.skewed
        engine.relation("R").extend([(1, 7)] * 50)
        grown = engine.query("R(x,y), S(y,z)", verify=True)
        assert grown.explain.statistics.in_size == replaced.explain.statistics.in_size + 50
        assert len(statistics_calls) == 3


class TestSharedAlignCache:
    """Engines over the same relation objects share one alignment memo.

    The service's split path spins up a throwaway engine per branch; the
    view cache is process-wide and keyed by relation identity, so the
    branches neither re-derive nor separately store the alignment of an
    input they share, each query counts only its own hits, and replacing
    a relation invalidates it for every engine at once.
    """

    def _owner(self):
        clear_memo()
        owner = Engine(p=4)
        owner.register(uniform_relation("R", ["b", "a"], 60, 20, seed=1))
        owner.register(uniform_relation("S", ["b", "z"], 60, 20, seed=2))
        return owner

    def _branch(self, owner, bindings=None):
        branch = Engine(p=4)
        for name, rel in (bindings or owner._relations).items():
            branch.register(rel, name=name)
        return branch

    def test_borrower_stores_into_the_owner_memo(self):
        owner = self._owner()
        branch = self._branch(owner)
        first = branch.query("R(a,b), S(b,z)")
        assert first.align_cache_hits == 0
        views = memo_cache_sizes()[1]
        # The owner finds both alignments the branch stored, adding none.
        assert owner.query("R(a,b), S(b,z)").align_cache_hits == 2
        assert memo_cache_sizes()[1] == views

    def test_hits_cross_engines_and_single_count(self):
        owner = self._owner()
        owner.query("R(a,b), S(b,z)")  # owner warms both alignments
        views = memo_cache_sizes()[1]
        for _ in range(3):
            result = self._branch(owner).query("R(a,b), S(b,z)")
            # Each query reports its own two hits, not a running total.
            assert result.align_cache_hits == 2
        assert memo_cache_sizes()[1] == views  # still stored exactly once

    def test_borrower_register_does_not_wipe_the_owner(self):
        owner = self._owner()
        owner.query("R(a,b), S(b,z)")
        views = memo_cache_sizes()[1]
        # Branch engines register their (partly shared) bindings on
        # construction; a first registration forgets nothing.
        branch = self._branch(owner)
        assert memo_cache_sizes()[1] == views
        assert branch.query("R(a,b), S(b,z)").align_cache_hits == 2
        assert owner.query("R(a,b), S(b,z)").align_cache_hits == 2

    def test_owner_register_still_invalidates_for_borrowers(self):
        owner = self._owner()
        branch = self._branch(owner)
        branch.query("R(a,b), S(b,z)")
        owner.register(uniform_relation("R", ["b", "a"], 80, 20, seed=9))
        # The replaced R is gone for every engine; the untouched S is not.
        assert branch.query("R(a,b), S(b,z)").align_cache_hits == 1
        assert self._branch(owner).query("R(a,b), S(b,z)").align_cache_hits == 1
