"""Tests for distributed GROUP BY (slide 52's workload)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import skewed_relation
from repro.data.relation import Relation
from repro.multiway.aggregate import group_by, reference_group_by, two_phase_group_by


def orders(rows):
    return Relation("Orders", ["cust", "month", "price"], rows)


SAMPLE = orders(
    [(1, "jan", 10), (1, "jan", 5), (1, "feb", 2), (2, "jan", 7), (2, "jan", 1)]
)


class TestOnePhase:
    def test_sum_by_two_keys(self):
        out, stats = group_by(SAMPLE, ["cust", "month"], "price", sum, p=3)
        assert sorted(out.rows()) == [
            (1, "feb", 2),
            (1, "jan", 15),
            (2, "jan", 8),
        ]
        assert stats.num_rounds == 1

    def test_matches_reference(self):
        out, _ = group_by(SAMPLE, ["cust"], "price", max, p=4)
        ref = reference_group_by(SAMPLE, ["cust"], "price", max)
        assert sorted(out.rows()) == sorted(ref.rows())

    def test_empty_relation(self):
        out, _ = group_by(orders([]), ["cust"], "price", sum, p=2)
        assert len(out) == 0

    def test_no_key_is_one_group_on_one_server(self):
        """Regression: with no key attribute ``group_by`` raised ``ValueError:
        hash_tuple_columns needs at least one column``; every row routes to
        ``h(())``, as the two-phase partials and the reference agree."""
        from repro.mpc.cluster import Cluster
        from repro.mpc.hashing import hash_int_tuple

        rel = orders([(1, "jan", 5), (2, "feb", 7), (3, "mar", 14)])
        out, stats = group_by(rel, [], "price", sum, p=4)
        assert out.rows() == [(26,)] == reference_group_by(rel, [], "price", sum).rows()
        assert two_phase_group_by(rel, [], "price", sum, sum, p=4)[0].rows() == [(26,)]
        h = Cluster(4).hash_function(0)
        dest = hash_int_tuple((), h.salt) % 4
        assert h(()) == dest
        assert stats.rounds[0].received == [3 if s == dest else 0 for s in range(4)]

    def test_output_schema(self):
        out, _ = group_by(SAMPLE, ["cust"], "price", sum, p=2)
        assert out.schema.attributes == ("cust", "price_agg")


class TestTwoPhase:
    def test_sum_matches_reference(self):
        out, _ = two_phase_group_by(
            SAMPLE, ["cust", "month"], "price", sum, sum, p=3
        )
        ref = reference_group_by(SAMPLE, ["cust", "month"], "price", sum)
        assert sorted(out.rows()) == sorted(ref.rows())

    def test_min_max_count(self):
        for fold, merge in ((min, min), (max, max), (len, sum)):
            out, _ = two_phase_group_by(SAMPLE, ["cust"], "price", fold, merge, p=4)
            ref = reference_group_by(SAMPLE, ["cust"], "price", fold)
            if fold is len:
                # count: local fold counts, merge sums them.
                assert sorted(out.rows()) == sorted(ref.rows())
            else:
                assert sorted(out.rows()) == sorted(ref.rows())

    def test_combiner_caps_load_under_skew(self):
        # One whale customer: one-phase concentrates all its orders on a
        # single server; two-phase ships one partial per source server.
        rel = skewed_relation(
            "Orders", ["order", "cust"], 4000, "cust", universe=100, s=1.6, seed=1
        ).rename({"order": "price"})
        rel = Relation("Orders", ["price", "cust"], rel.rows())
        p = 16
        one, one_stats = group_by(rel, ["cust"], "price", sum, p=p)
        two, two_stats = two_phase_group_by(rel, ["cust"], "price", sum, sum, p=p)
        assert sorted(one.rows()) == sorted(two.rows())
        assert two_stats.max_load < one_stats.max_load / 2
        # Two-phase load is bounded by the number of distinct groups.
        assert two_stats.max_load <= 100

    rows = st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 5), st.integers(-50, 50)),
        max_size=60,
    )

    @given(rows, st.integers(1, 8), st.sampled_from([["cust", "month"], ["cust"], []]),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_property_both_match_reference(self, raw, p, keys, str_cust):
        if str_cust:
            raw = [(f"c{cust}", month, price) for cust, month, price in raw]
        rel = orders(raw)
        ref = sorted(reference_group_by(rel, keys, "price", sum).rows())
        one, _ = group_by(rel, keys, "price", sum, p=p)
        two, _ = two_phase_group_by(rel, keys, "price", sum, sum, p=p)
        assert sorted(one.rows()) == ref
        assert sorted(two.rows()) == ref
