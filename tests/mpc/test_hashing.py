"""Tests for the seeded hash family."""

from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.joins.hash_join import parallel_hash_join
from repro.kernels.columnar import column_of
from repro.kernels.hashing import bucket_value_column
from repro.mpc.hashing import HashFamily, HashFunction, canonical, splitmix64
from repro.multiway.base import shuffle_semijoin
from repro.multiway.hypercube import triangle_hypercube
from repro.query.cq import triangle_query
from repro.testing.oracle import multiset_diff, oracle_join, oracle_two_way


class TestSplitmix64:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_stays_64_bit(self):
        assert 0 <= splitmix64(2**64 - 1) < 2**64

    @given(st.integers(0, 2**64 - 1))
    def test_range_property(self, x):
        assert 0 <= splitmix64(x) < 2**64


class TestHashFunction:
    def test_range(self):
        h = HashFamily(0).function(0, 16)
        assert all(0 <= h(v) < 16 for v in range(1000))

    def test_deterministic_across_instances(self):
        h1 = HashFamily(9).function(2, 8)
        h2 = HashFamily(9).function(2, 8)
        assert [h1(v) for v in range(100)] == [h2(v) for v in range(100)]

    def test_indices_give_distinct_functions(self):
        fam = HashFamily(0)
        h0, h1 = fam.function(0, 64), fam.function(1, 64)
        assert [h0(v) for v in range(200)] != [h1(v) for v in range(200)]

    def test_seeds_give_distinct_functions(self):
        h0 = HashFamily(0).function(0, 64)
        h1 = HashFamily(1).function(0, 64)
        assert [h0(v) for v in range(200)] != [h1(v) for v in range(200)]

    def test_roughly_uniform(self):
        h = HashFamily(3).function(0, 10)
        counts = Counter(h(v) for v in range(10_000))
        assert len(counts) == 10
        assert max(counts.values()) < 2 * 10_000 / 10

    def test_non_integer_values(self):
        h = HashFamily(0).function(0, 8)
        assert 0 <= h("hello") < 8
        assert h(("a", 1)) == h(("a", 1))

    def test_bool_hashes_like_int(self):
        h = HashFamily(0).function(0, 8)
        assert h(True) == h(1)

    def test_negative_integers(self):
        h = HashFamily(0).function(0, 8)
        assert 0 <= h(-12345) < 8

    def test_invalid_buckets(self):
        import pytest

        with pytest.raises(ValueError):
            HashFunction(0, salt=1)


class TestIndexValidation:
    """Regression: the (index + 1) salt masked to 64 bits aliased
    index=-1 with seed-only hashing and index i with i + 2**64."""

    def test_negative_index_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="index"):
            HashFamily(7).function(-1, 64)

    def test_huge_index_rejected(self):
        import pytest

        # 2**64 - 1 produced the same salt as index -1 before the fix.
        with pytest.raises(ValueError, match="index"):
            HashFamily(7).function(2**64 - 1, 64)
        with pytest.raises(ValueError, match="index"):
            HashFamily(7).function(2**64, 64)

    def test_largest_valid_index_accepted(self):
        h = HashFamily(7).function(2**64 - 2, 64)
        assert 0 <= h(123) < 64

    def test_distinct_indices_give_distinct_functions(self):
        """Golden: across a window of indices no two functions agree on a
        probe vector (independence across indices, per HyperCube)."""
        fam = HashFamily(seed=7)
        probes = list(range(32))
        seen = {}
        for index in (0, 1, 2, 3, 17, 255, 2**32, 2**64 - 2):
            signature = tuple(fam.function(index, 1 << 30)(v) for v in probes)
            assert signature not in seen.values(), f"index {index} collides"
            seen[index] = signature

    def test_valid_index_salts_unchanged(self):
        """The fix must not move any existing destination: the salt of a
        valid index is still splitmix64(splitmix64(seed) ^ (index + 1))."""
        from repro.mpc.hashing import splitmix64

        fam = HashFamily(seed=11)
        for index in (0, 1, 5):
            expected = splitmix64(splitmix64(11) ^ (index + 1))
            assert fam.function(index, 64).salt == expected


# Equal keys of different types, as a dict join matches them.
EQUAL_PAIRS = [(1, 1.0), (0.0, -0.0), (Decimal("1.0"), Decimal("1.00")), ((1, "a"), (True, "a"))]


class TestEqualValuesHashEqual:
    """Regression: a shuffle is only correct if equal keys meet on one
    server. ``1`` and ``1.0`` (and the other pairs) used to hash apart, so
    the distributed joins lost the match ``Relation.join`` finds."""

    @pytest.mark.parametrize("a, b", EQUAL_PAIRS, ids=["int-float", "zeros", "decimals", "pairs"])
    def test_the_pair_hashes_equal(self, a, b):
        for index in range(4):
            h = HashFamily(3).function(index, 1 << 20)
            assert h(a) == h(b) and h((a,)) == h((b,))

    def test_canonical_forms(self):
        assert [canonical(v) for v in (True, 2.0, -0.0, Decimal("3.00"), complex(4, 0))] == \
            [1, 2, 0, 3, 4]
        assert [type(canonical(v)) for v in (True, 2.0, Decimal("3.00"))] == [int] * 3
        assert canonical(Fraction(1, 2)) == 0.5 and type(canonical(Fraction(1, 2))) is float
        assert canonical((True, (2.0, "x"))) == (1, (2, "x"))
        for kept in ("a", 3.5, None, b"b", Decimal("1.1"), complex(1, 1)):
            assert canonical(kept) is kept

    def test_the_value_table_agrees_with_the_spec(self):
        # The per-distinct table of a value list once keyed (type, value):
        # 0.0 and -0.0 shared an entry there while the spec hashed them apart.
        values = [0.0, -0.0, 1, 1.0, True, "1", (1, "a"), (True, "a")]
        h = HashFamily(5).function(2, 64)
        got = bucket_value_column(column_of(values), h.salt, h.buckets).tolist()
        assert got == [h(v) for v in values]
        assert got[0] == got[1] and got[2] == got[3] == got[4] and got[6] == got[7]

    @pytest.mark.parametrize("a, b", EQUAL_PAIRS, ids=["int-float", "zeros", "decimals", "pairs"])
    def test_the_shuffles_meet_the_oracle(self, a, b):
        r = Relation("R", ["x", "y"], [(a, 7)])
        s = Relation("S", ["x", "z"], [(b, 8)])
        want = oracle_two_way(r, s).rows_readonly()
        assert len(want) == 1 and r.join(s).rows_readonly() == want
        assert parallel_hash_join(r, s, p=8, seed=0).output.rows_readonly() == want
        semijoin, _stats = shuffle_semijoin(r, s, p=8, seed=0)
        assert semijoin.rows_readonly() == r.rows_readonly()
        # x spans many values, so its share is all of p = 8.
        tri = {
            "R": Relation("R", ["x", "y"], [(a, 0)] + [(i + 10, 0) for i in range(30)]),
            "S": Relation("S", ["y", "z"], [(0, 0)]),
            "T": Relation("T", ["z", "x"], [(0, b)] + [(0, i + 10) for i in range(30)]),
        }
        run = triangle_hypercube(tri["R"], tri["S"], tri["T"], p=8, seed=0)
        assert run.details["shares"]["x"] == 8
        assert not multiset_diff(
            oracle_join(triangle_query(), tri).rows_readonly(), run.output.rows_readonly()
        )
