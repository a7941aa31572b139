"""The share search: the best integral grid, and the window it replaced.

:func:`repro.query.shares.optimal_shares` ranks every grid with Π ≤ p and
must return the brute-force optimum (the first minimum of worst atom load,
total load, name-ordered shares), never a worse grid than the ±1 window
around the LP's shares (``tests/query/share_reference.py``) returns. When
the table would exceed ``max_enumeration`` that window still runs:
:func:`repro.query.shares._round_shares` must return the integral shares
the per-grid loop returns — the same dict, in the same key order, for
every query shape, size profile, server count and fractional share, the
``max_enumeration`` fallback included.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.query.cq import Atom, ConjunctiveQuery, path_query, star_query, triangle_query
from repro.query.shares import _grid_table, _round_shares, optimal_shares
from tests.query.share_reference import _max_atom_load
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


def reference_repair_ends(fractional, p):
    """Whether the reference's floor repair ends on these shares: it loops
    forever once its top ratio sits on a share of one (the hang the
    library's loop was mended of), so only the draws it ends on compare."""
    floored = {v: max(1, math.floor(f)) for v, f in fractional.items()}
    while math.prod(floored.values()) > p:
        victim = max(sorted(floored), key=lambda v: floored[v] / max(fractional[v], 1e-12))
        if floored[victim] == 1:
            return False
        floored[victim] -= 1
    return True


@st.composite
def overfull_searches(draw):
    """Shares whose floors multiply above p, searched with a table too
    small to hold their window: the fallback floors and must repair."""
    query = draw(queries())
    assume(len(query.variables) >= 2)
    p = draw(st.integers(1, 1000))
    sizes = {a.name: draw(st.integers(0, 10**7)) for a in query.atoms}
    fractional = {
        v: draw(st.one_of(st.floats(1, p), st.integers(1, p).map(float)))
        for v in query.variables
    }
    assume(math.prod(max(1, math.floor(f)) for f in fractional.values()) > p)
    assume(reference_repair_ends(fractional, p))
    max_enumeration = draw(st.integers(0, grids_searched(fractional, p) - 1))
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
    # The window an oversized table falls back to, centred on the shares
    # the LP really solves: the array pass rounds them as the loop does.
    sizes = {a.name: data.draw(st.integers(0, 10**7)) for a in query.atoms}
    fractional = optimal_shares(query, sizes, p).fractional
    assume(grids_searched(fractional, p) <= LOOP_GRIDS)
    got = _round_shares(query, sizes, p, fractional, 200_000)
    want = reference(query, sizes, p, fractional, 200_000)
    assert got == want
    assert list(got) == list(want)


@settings(max_examples=200, deadline=None)
@given(overfull_searches())
def test_the_floor_repair_shrinks_as_the_loop_does(search):
    query, sizes, p, fractional, max_enumeration = search
    got = _round_shares(*search)
    assert got == reference(*search)
    assert list(got) == list(query.variables)
    assert math.prod(got.values()) <= p


def every_grid(k, p):
    """Every k-tuple of shares ≥ 1 with product ≤ p."""
    if k == 0:
        return [()]
    return [(share, *rest) for share in range(1, p + 1) for rest in every_grid(k - 1, p // share)]


def brute_force(query, sizes, p):
    """The first minimum of (worst atom load, total load, name-ordered
    shares) over every grid with Π ≤ p, and its worst load."""
    names = sorted(query.variables)

    def rank(grid):
        shares = dict(zip(names, grid))
        loads = [sizes[a.name] / math.prod(shares[v] for v in a.variables) for a in query.atoms]
        return max(loads), sum(sorted(loads)), grid

    worst, _, grid = min(map(rank, every_grid(len(names), p)))
    return dict(zip(names, grid)), worst


# Brute force in Python takes ~5 µs a grid: up to 7 variables at p ≤ 256
# is at most 132 442 grids.
@settings(max_examples=150, deadline=None)
@given(queries(), st.integers(1, 256), st.data())
def test_the_shares_are_the_brute_force_optimum(query, p, data):
    sizes = {a.name: data.draw(st.integers(0, 10**7)) for a in query.atoms}
    assignment = optimal_shares(query, sizes, p)
    want, worst = brute_force(query, sizes, p)
    assert assignment.integral == want
    assert list(assignment.integral) == list(query.variables)
    assert all(type(share) is int for share in assignment.integral.values())
    assert assignment.integral_load == worst
    window = reference(query, sizes, p, assignment.fractional, 200_000)
    assert assignment.integral_load <= _max_atom_load(query, sizes, window)


@settings(max_examples=100, deadline=None)
@given(queries(), st.integers(1, 1000), st.integers(0, 300), st.data())
def test_an_oversized_table_rounds_the_lp_shares_as_the_loop_does(query, p, max_enumeration, data):
    assume(len(every_grid(len(query.variables), min(p, 40))) > max_enumeration)
    sizes = {a.name: data.draw(st.integers(0, 10**7)) for a in query.atoms}
    assignment = optimal_shares(query, sizes, p, max_enumeration)
    assume(grids_searched(assignment.fractional, p) <= LOOP_GRIDS)
    assert assignment.integral == reference(query, sizes, p, assignment.fractional, max_enumeration)
    assert assignment.integral_load == _max_atom_load(query, sizes, assignment.integral)


def test_the_floor_fallback_ends_when_the_top_ratio_sits_on_a_share_of_one():
    # a's floor ratio 1/1 ties b's 5/5 and wins the tie on name, but a share
    # of 1 cannot shrink: the repair picked a on every pass and never ended.
    # A subprocess bounds the call, so a loop fails the test, not the suite.
    script = (
        "from repro.query.cq import Atom, ConjunctiveQuery\n"
        "from repro.query.shares import _round_shares\n"
        "q = ConjunctiveQuery([Atom('R', ['a', 'b'])])\n"
        "print(_round_shares(q, {'R': 100}, 4, {'a': 1.0, 'b': 5.0}, 0))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout == "{'a': 1, 'b': 4}\n", result.stderr


def test_atom_order_cannot_break_a_tie_through_rounding():
    # Grids x=3 and y=3 both load the atoms 28/3, 11/3 and 11: the same
    # total, which summed in atom order rounds differently for R, T, S.
    sizes = {"R": 28, "S": 11, "T": 11}
    atoms = {"R": Atom("R", ["x", "y"]), "S": Atom("S", ["y", "z"]), "T": Atom("T", ["z", "x"])}
    for order in ("RST", "RTS", "SRT", "TSR"):
        query = ConjunctiveQuery([atoms[name] for name in order])
        assert optimal_shares(query, sizes, 3).integral == {"x": 1, "y": 3, "z": 1}, order
        assert _round_shares(query, sizes, 3, {"x": 1.5, "y": 1.5, "z": 1.0}, 200_000) == {
            "x": 1, "y": 3, "z": 1}, order


def test_the_grid_table_lists_every_grid_in_order():
    for k, p in ((1, 1), (1, 9), (3, 8), (4, 30), (7, 12)):
        table = _grid_table(k, p, 200_000)
        assert table.shape[0] == k and not table.flags.writeable
        assert [tuple(grid) for grid in table.T.tolist()] == every_grid(k, p)
    assert _grid_table(3, 8, 37).shape == (3, 0)  # 38 grids
    assert _grid_table(3, 8, 38).shape == (3, 38)


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

    def test_the_largest_tables_hold_the_brute_force_optimum(self):
        # 7 variables at p = 256: 132 442 grids.
        for query in (star_query(6), path_query(6)):
            sizes = {a.name: 10**7 // (i + 1) for i, a in enumerate(query.atoms)}
            want, worst = brute_force(query, sizes, 256)
            got = optimal_shares(query, sizes, 256)
            assert got.integral == want and got.integral_load == worst

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
