"""Tests for SkewHC's internal decomposition machinery."""

import pytest

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.multiway.skewhc import _residual_jobs, find_heavy_values, skewhc_join
from repro.query.cq import triangle_query, two_way_join


def _build_job(query, relations, heavy, bound):
    """The residual job of one combination, or None if provably empty."""
    jobs = _residual_jobs(query, relations, heavy, max_combinations=2**62)
    return next((job for job in jobs if job.bound == bound), None)


def tiny_triangle():
    # y = 0 is heavy; everything else light.
    r = Relation("R", ["x", "y"], [(i, 0) for i in range(6)] + [(9, 9)])
    s = Relation("S", ["y", "z"], [(0, i) for i in range(6)] + [(9, 8)])
    t = Relation("T", ["z", "x"], [(i, j) for i in range(3) for j in range(3)])
    return {"R": r, "S": s, "T": t}


class TestBuildJob:
    def test_light_job_restricts_heavy_values_out(self):
        q = triangle_query()
        rels = tiny_triangle()
        heavy = {"x": set(), "y": {0}, "z": set()}
        job = _build_job(q, rels, heavy, bound={})
        assert job is not None
        # No y=0 rows remain in the light R restriction.
        assert all(row[1] != 0 for row in job.restricted["R"])

    def test_heavy_job_binds_value(self):
        q = triangle_query()
        rels = tiny_triangle()
        heavy = {"x": set(), "y": {0}, "z": set()}
        job = _build_job(q, rels, heavy, bound={"y": 0})
        assert job is not None
        # R's residual drops the bound y column: schema is (x,).
        assert job.restricted["R"].schema.attributes == ("x",)
        assert len(job.restricted["R"]) == 6

    def test_empty_restriction_returns_none(self):
        q = triangle_query()
        rels = tiny_triangle()
        heavy = {"x": set(), "y": {0, 42}, "z": set()}
        # y=42 appears nowhere: the job is provably empty.
        assert _build_job(q, rels, heavy, bound={"y": 42}) is None

    def test_vanished_atom_multiplicity(self):
        q = two_way_join()
        r = Relation("R", ["x", "y"], [(1, 0)])
        s = Relation("S", ["y", "z"], [(0, 5), (0, 5)])
        heavy = {"x": {1}, "y": {0}, "z": {5}}
        job = _build_job(q, {"R": r, "S": s}, heavy, bound={"x": 1, "y": 0, "z": 5})
        assert job is not None
        assert job.multiplicity == 2  # two identical S rows


class TestResidualJobs:
    def test_job_count_bounded(self):
        q = triangle_query()
        rels = tiny_triangle()
        heavy = find_heavy_values(q, rels, threshold=5)
        jobs = _residual_jobs(q, rels, heavy, max_combinations=1000)
        # At least the all-light job plus the y=0 job.
        assert len(jobs) >= 2

    def test_combination_explosion_guarded(self):
        q = triangle_query()
        rels = tiny_triangle()
        heavy = {"x": set(range(50)), "y": set(range(50)), "z": set(range(50))}
        with pytest.raises(QueryError):
            _residual_jobs(q, rels, heavy, max_combinations=10)


class TestThresholdOverride:
    def test_zero_heavy_with_huge_threshold(self):
        q = triangle_query()
        rels = tiny_triangle()
        run = skewhc_join(q, rels, p=4, threshold=10**9)
        assert run.details["jobs"] == 1  # only the all-light job
        expected = q.evaluate(rels)
        assert sorted(run.output.rows()) == sorted(expected.rows())

    def test_tiny_threshold_everything_heavy_still_correct(self):
        q = triangle_query()
        rels = tiny_triangle()
        run = skewhc_join(q, rels, p=4, threshold=1)
        expected = q.evaluate(rels)
        assert sorted(run.output.rows()) == sorted(expected.rows())
