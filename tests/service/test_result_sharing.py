"""A result shares arrays, never ownership.

A query result used to be able to overwrite the catalog: a scan's output
shared the registered relation's arrays, writable, and through the
service the same write landed in the result-cache entry. Arrays that
leave through a result are read-only shares now — which is also what
makes a cache hit O(arity): it hands out the entry's arrays instead of
re-tupling every row.
"""

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.engine import Engine
from repro.service import QueryService
from repro.service.splitter import canonical, merge_branches, split_bindings

JOIN = "R(a, b), S(b, c)"


def columnar():
    n = np.arange(80)
    return {
        "R": Relation.from_columns("R", ["a", "b"], [n, n % 7]),
        "S": Relation.from_columns("S", ["b", "c"], [n % 7, -n]),
        "C": Relation.from_columns("C", ["a", "b"], [n[:10], n[:10] * 2]),
    }


def row_primary():
    return {
        name: Relation(name, rel.schema, rel.rows_readonly())
        for name, rel in columnar().items()
    }


class TestAResultCannotOverwriteTheCatalog:
    def test_a_scan_through_the_engine(self):
        engine = Engine(4)
        catalog = columnar()["C"]
        engine.register(catalog)
        before = catalog.rows_readonly()[:]
        output = engine.query("C(a, b)").output
        assert output.is_columnar
        assert np.shares_memory(output.columns()[0], catalog.columns()[0])
        with pytest.raises(ValueError):
            output.columns()[0][0] = 999
        assert catalog.columns()[0][0] == 0 and catalog.mutation_token() == 0
        assert engine.query("C(a, b)").output.rows_readonly() == before
        rows = output.rows()             # a private, mutable list all the same
        rows[0] = (999, 999)
        assert catalog.rows_readonly() == before

    @pytest.mark.parametrize("query", ["C(a, b)", JOIN])
    def test_a_result_through_the_service(self, query):
        relations = columnar()
        with QueryService(relations, p=4) as service:
            first = service.query(query)
            want = first.output.rows_readonly()[:]
            assert first.output.is_columnar and not first.cache_hit
            for column in first.output.columns():
                with pytest.raises(ValueError):
                    column[0] = 999
            hit = service.query(query)
            assert hit.cache_hit and hit.output.rows_readonly() == want
        assert not relations["C"].columns()[0].flags.writeable   # the owner's are read-only too
        assert relations["C"].columns()[0][0] == 0

    def test_projections_and_renames_share_read_only(self):
        rel = columnar()["R"]
        for twin in (rel.project(["b", "a"]), rel.rename({"a": "x"})):
            assert twin.columns()[0] is rel.columns()[1 if twin.attributes[0] == "b" else 0]
            assert not any(c.flags.writeable for c in twin.columns())
        assert not any(c.flags.writeable for c in rel.columns())


class TestAHitSharesArrays:
    @pytest.mark.parametrize("strategy, split", [
        ("auto", 1), ("hash", 1), ("broadcast", 1), ("auto", 2), ("hash", 3),
    ])
    def test_a_hit_shares_memory_with_the_entry(self, strategy, split):
        with QueryService(columnar(), p=4) as service:
            miss = service.query(JOIN, strategy=strategy, split=split)
            hit = service.query(JOIN, strategy=strategy, split=split)
            again = service.query(JOIN, strategy=strategy, split=split)
            assert (miss.cache_hit, hit.cache_hit, again.cache_hit) == (False, True, True)
            for a, b in zip(miss.output.columns(), hit.output.columns()):
                assert np.shares_memory(a, b)
            # rows() on a hit is the caller's copy: the output stays columnar
            # and still shares the entry's arrays.
            rows = hit.output.rows()
            rows.clear()
            assert hit.output.is_columnar and again.output.is_columnar
            assert np.shares_memory(hit.output.columns()[0], miss.output.columns()[0])
            assert service.query(JOIN, strategy=strategy, split=split).output.rows_readonly() \
                == miss.output.rows_readonly()

    def test_a_row_primary_entry_is_copied_as_before(self):
        relations = {
            "R": Relation("R", ["a", "b"], [(i, f"k{i % 3}") for i in range(12)]),
            "S": Relation("S", ["b", "c"], [(f"k{i % 3}", i) for i in range(6)]),
        }
        with QueryService(relations, p=3) as service:
            miss = service.query(JOIN, strategy="hash")
            assert not miss.output.is_columnar
            miss.output.rows().clear()
            hit = service.query(JOIN, strategy="hash")
            assert hit.cache_hit and len(hit.output) == 24


class TestCanonicalOrder:
    """``canonical(merge) == canonical(unsplit)``, down to the row list,
    whichever way the outputs are held."""

    @pytest.mark.parametrize("build", [columnar, row_primary], ids=["columnar", "row-primary"])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_merge_equals_unsplit(self, build, k):
        from repro.engine import run_query
        from repro.query.parser import parse_query

        relations = build()
        cq = parse_query(JOIN)
        bindings = {name: relations[name] for name in ("R", "S")}
        whole = run_query(cq, bindings, 4, strategy="hash").output
        branches = [
            run_query(cq, branch, 4, strategy="hash").output
            for branch in split_bindings(cq, bindings, k)
        ]
        merged = merge_branches(branches)
        assert merged.rows_readonly() == canonical(whole).rows_readonly() \
            == sorted(whole.rows_readonly())
        assert merged.is_columnar and canonical(whole).is_columnar
        assert merged.name == "OUT" and merged.schema == whole.schema

    def test_canonical_of_a_row_primary_relation_sorts_its_tuples(self):
        rel = Relation("X", ["k", "v"], [("b", 2), ("a", 9), ("b", 1)])
        out = canonical(rel)
        assert out.rows_readonly() == [("a", 9), ("b", 1), ("b", 2)]
        assert out.name == "OUT" and rel.rows_readonly()[0] == ("b", 2)

    def test_negative_and_unsigned_columns_sort_like_tuples(self):
        rows = [(3, -1), (-2, 5), (3, -7), (-2, -9), (0, 0)]
        cols = [np.array([r[0] for r in rows]), np.array([r[1] for r in rows])]
        assert canonical(Relation.from_columns("X", ["a", "b"], cols)).rows_readonly() == sorted(rows)
        big = [(2**63 + 2, 1), (2**63 + 1, 2), (2**63 + 2, 0)]
        cols = [np.array([r[0] for r in big], dtype=np.uint64), np.array([r[1] for r in big])]
        assert canonical(Relation.from_columns("X", ["a", "b"], cols)).rows_readonly() == sorted(big)
