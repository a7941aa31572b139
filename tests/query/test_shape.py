"""One shape record per atom tuple: what planning reads of the hypergraph.

:func:`repro.query.shape.shape` keeps τ*, ρ*, acyclicity, connectivity,
the GYO join tree and the depth-minimised width-1 GHD beside the LP memo.
A second plan of the same atoms over other relations runs no GYO, builds
no GHD and looks no program up — τ*/ρ* are the record's and the shares
come from the grid table; GYM's default GHD is the record's,
shared by every run and thread and never changed by one.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.errors import DecompositionError
from repro.kernels.memo import clear_memo
from repro.multiway.gym import gym
from repro.planner.optimizer import plan_query
from repro.query import ghd as ghd_module
from repro.query import hypergraph, lp
from repro.query import shape as shape_module
from repro.query.cq import path_query, star_query, triangle_query
from repro.query.fractional import rho_star, tau_star
from repro.query.ghd import width1_ghd
from repro.query.hypergraph import is_acyclic, join_tree
from repro.query.shape import shape


def _relations(query, seed, n=300, domain=60):
    rng = np.random.default_rng(seed)
    return {
        a.name: Relation.from_columns(a.name, a.variables, [rng.integers(0, domain, n) for _ in a.variables])
        for a in query.atoms
    }


@pytest.fixture
def counted(monkeypatch):
    """Calls of GYO, the width-1 GHD builder, τ*/ρ* and the LP memo."""
    calls = {"gyo": 0, "ghd": 0, "tau/rho": 0, "programs": []}

    def wrap(module, name, key):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module in (hypergraph, shape_module):
        wrap(module, "gyo_reduction", "gyo")
    for module in (ghd_module, shape_module):
        wrap(module, "width1_ghd", "ghd")
    wrap(shape_module, "tau_star", "tau/rho")
    wrap(shape_module, "rho_star", "tau/rho")
    real_solve = lp.solve

    def solve(c, a_ub, b_ub, bounds):
        calls["programs"].append(tuple(map(tuple, bounds)))
        return real_solve(c, a_ub, b_ub, bounds)

    monkeypatch.setattr(lp, "solve", solve)
    lp.clear()
    clear_memo()
    yield calls
    lp.clear()


class TestTheRecord:
    @pytest.mark.parametrize("query", [
        path_query(4), star_query(3), triangle_query(), path_query(1),
    ], ids=["path4", "star3", "triangle", "one-atom"])
    def test_it_holds_what_the_builders_compute(self, query):
        facts = shape(query)
        assert facts.tau_star == tau_star(query)
        assert facts.rho_star == rho_star(query)
        assert facts.acyclic == is_acyclic(query)
        if facts.acyclic:
            assert dict(facts.join_tree(query)) == join_tree(query)
            assert repr(facts.width1_ghd(query)) == repr(width1_ghd(query))
        else:
            with pytest.raises(DecompositionError, match="cyclic; no join tree"):
                facts.join_tree(query)
            with pytest.raises(DecompositionError, match="cyclic; no join tree"):
                facts.width1_ghd(query)

    def test_it_is_kept_per_atom_tuple(self):
        assert shape(path_query(3)) is shape(path_query(3))
        assert shape(path_query(3)) is not shape(path_query(4))

    def test_the_join_tree_is_read_only(self):
        with pytest.raises(TypeError):
            shape(path_query(3)).join_tree(path_query(3))["R1"] = "R1"


class TestASecondPlan:
    @pytest.mark.parametrize("query", [path_query(4), triangle_query()], ids=["path4", "triangle"])
    def test_runs_no_gyo_builds_no_ghd_and_looks_up_no_lp(self, counted, query):
        first = plan_query(query, _relations(query, 1), p=8)
        assert counted["gyo"] >= 1 and counted["tau/rho"] == 2
        assert counted["ghd"] == (1 if first.acyclic else 0)
        # The programs are τ*'s and ρ*'s (every variable ≥ 0): the shares
        # come from the grid table, with no share LP (its λ is unbounded).
        assert len(counted["programs"]) == 2
        assert all(bounds[-1] != (None, None) for bounds in counted["programs"])
        before = {key: value for key, value in counted.items() if key != "programs"}
        del counted["programs"][:]
        second = plan_query(query, _relations(query, 2), p=8)
        assert second is not first
        assert {key: value for key, value in counted.items() if key != "programs"} == before
        assert counted["programs"] == []
        assert (second.tau_star, second.rho_star) == (first.tau_star, first.rho_star)


def _layout(ghd):
    nodes = ghd.nodes()
    return (
        [(id(n), sorted(n.bag), n.cover, [id(c) for c in n.children]) for n in nodes],
        [[id(n) for n in level] for level in ghd.levels()],
        ghd.width, ghd.depth,
    )


class TestGYMSharesTheRecordsGHD:
    QUERY = path_query(4)

    def _run(self, seed, variant):
        relations = _relations(self.QUERY, seed, n=120, domain=40)
        return gym(self.QUERY, relations, 4, variant=variant)

    def test_serial_and_threaded_runs_leave_it_unchanged(self):
        shared = shape(self.QUERY).width1_ghd(self.QUERY)
        before = _layout(shared)
        expected = {
            (seed, variant): gym(self.QUERY, _relations(self.QUERY, seed, n=120, domain=40), 4,
                                 ghd=width1_ghd(self.QUERY), variant=variant)
            for seed in range(4) for variant in ("optimized", "vanilla")
        }
        for (seed, variant), want in expected.items():
            got = self._run(seed, variant)
            assert got.output.rows() == want.output.rows()
            assert [rd.received for rd in got.stats.rounds] == [rd.received for rd in want.stats.rounds]
        assert _layout(shared) == before
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = {pool.submit(self._run, *key): key for key in list(expected) * 3}
                runs = [(key, future.result(timeout=120)) for future, key in futures.items()]
        finally:
            sys.setswitchinterval(interval)
        for key, got in runs:
            assert got.output.rows() == expected[key].output.rows()
        assert _layout(shared) == before
        assert shape(self.QUERY).width1_ghd(self.QUERY) is shared

    def test_threads_racing_to_build_the_record_agree(self):
        lp.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(self._run, seed % 2, "optimized") for seed in range(8)]
                runs = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for seed, got in enumerate(runs):
            assert got.output.rows() == runs[seed % 2].output.rows()
        kept = shape(self.QUERY).width1_ghd(self.QUERY)
        fresh = width1_ghd(self.QUERY)
        assert [(sorted(n.bag), n.cover) for n in kept.nodes()] == [
            (sorted(n.bag), n.cover) for n in fresh.nodes()
        ]
