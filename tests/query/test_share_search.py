"""The share search ranks every grid in one array pass, exactly as the loop did.

:func:`repro.query.shares._round_shares` must return the integral shares
the per-grid loop it replaced returns (``tests/query/share_reference.py``):
the same dict, in the same key order, for every query shape, size profile,
server count and fractional share, the ``max_enumeration`` fallback
included.
"""

import math
import tracemalloc

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.query.cq import Atom, ConjunctiveQuery, path_query, star_query, triangle_query
from repro.query.shares import _round_shares, optimal_shares
from tests.query.share_reference import _round_shares as reference

NAMES = ("a", "b", "m", "x", "y", "z", "q0")
# The loop costs ~10 µs a grid: larger searches are the big-grid cases below.
LOOP_GRIDS = 4096


def grids_searched(fractional, p):
    """How many grids the exhaustive search ranks for these shares."""
    return math.prod(
        len([c for c in {1, *range(max(1, math.floor(f) - 1), max(1, math.ceil(f) + 1) + 1)}
             if c <= p])
        for f in fractional.values()
    )


@st.composite
def queries(draw):
    """1–7 variables (names in a drawn order, so name order and appearance
    order differ) over 1–6 atoms; every variable is in some atom."""
    names = draw(st.permutations(NAMES))[: draw(st.integers(1, 7))]
    n_atoms = draw(st.integers(1, 6))
    members = [[] for _ in range(n_atoms)]
    for v in names:
        homes = draw(st.sets(st.integers(0, n_atoms - 1), min_size=1))
        for i in sorted(homes):
            members[i].append(v)
    atoms = [
        Atom(f"R{i}", draw(st.permutations(vs)))
        for i, vs in enumerate(members) if vs
    ]
    return ConjunctiveQuery(atoms)


@st.composite
def searches(draw):
    query = draw(queries())
    p = draw(st.integers(1, 1000))
    sizes = {a.name: draw(st.integers(0, 10**7)) for a in query.atoms}
    # Shares the LP can produce: p^e with e ≥ 0 and Σ e ≤ 1 — real
    # exponents, or small fractions, whose shares hit integers and ties.
    if draw(st.booleans()):
        raw = [draw(st.floats(0, 1)) for _ in query.variables]
    else:
        raw = [draw(st.integers(0, 6)) / 6 for _ in query.variables]
    scale = max(sum(raw), 1.0)
    fractional = {v: p ** (e / scale) for v, e in zip(query.variables, raw)}
    max_enumeration = draw(st.one_of(st.just(200_000), st.integers(0, 300)))
    return query, sizes, p, fractional, max_enumeration


@settings(max_examples=400, deadline=None)
@given(searches())
def test_the_array_pass_returns_the_loops_shares(search):
    query, sizes, p, fractional, max_enumeration = search
    assume(min(grids_searched(fractional, p), max_enumeration + 1) <= LOOP_GRIDS)
    got = _round_shares(*search)
    want = reference(*search)
    assert got == want
    assert list(got) == list(want)
    assert all(type(share) is int for share in got.values())


@settings(max_examples=60, deadline=None)
@given(queries(), st.integers(1, 1000), st.data())
def test_the_lp_shares_round_as_the_loop_rounds_them(query, p, data):
    sizes = {a.name: data.draw(st.integers(0, 10**7)) for a in query.atoms}
    assignment = optimal_shares(query, sizes, p)
    assume(grids_searched(assignment.fractional, p) <= LOOP_GRIDS)
    assert assignment.integral == reference(query, sizes, p, assignment.fractional, 200_000)


class TestKnownGrids:
    """The grids the planner searches most, against the loop."""

    def test_the_planners_grids(self):
        grids = [
            (ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "z"])]),
             {"R": 600, "S": 600}, 8),
            (triangle_query(), {"R": 2000, "S": 1900, "T": 2100}, 8),
            (path_query(4), {f"R{i}": 2000 for i in range(1, 5)}, 8),
            (ConjunctiveQuery([Atom("Orders", ["order", "cust", "month"]),
                               Atom("Customers", ["cust", "region", "segment"])]),
             {"Orders": 2000, "Customers": 400}, 8),
            (star_query(6), {f"R{i}": 10_000 for i in range(1, 7)}, 64),
        ]
        for query, sizes, p in grids:
            fractional = optimal_shares(query, sizes, p).fractional
            for max_enumeration in (200_000, 1, 0):
                got = _round_shares(query, sizes, p, fractional, max_enumeration)
                assert got == reference(query, sizes, p, fractional, max_enumeration)
                assert math.prod(got.values()) <= p

    def test_seven_variables_on_a_wide_grid(self):
        # 4^7 = 16 384 grids: every variable's share sits between 2 and 3.
        query = star_query(6)
        for p, sizes in ((1000, {f"R{i}": 10**7 - 7 * i for i in range(1, 7)}),
                         (900, {f"R{i}": 0 if i % 2 else 5 for i in range(1, 7)})):
            fractional = {v: 2.5 for v in query.variables}
            assert grids_searched(fractional, p) == 4**7
            assert _round_shares(query, sizes, p, fractional, 200_000) == reference(
                query, sizes, p, fractional, 200_000
            )

    def test_eleven_variables_rank_in_memory_per_atom(self):
        # 3^11 = 177 147 grids, most of them feasible at p = 1000: the
        # ranking holds grids × atoms floats, never grids × atoms × variables
        # (that intermediate peaked at ~110 MB here).
        query = path_query(10)
        sizes = {a.name: 1000 + i for i, a in enumerate(query.atoms)}
        fractional = {v: 1.5 for v in query.variables}
        assert grids_searched(fractional, 1000) == 3**11
        tracemalloc.start()
        try:
            got = _round_shares(query, sizes, 1000, fractional, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert got == reference(query, sizes, 1000, fractional, 200_000)
