import json
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import bland_simplex, generic_config, packed_int
from waldschmidt import cone, dp4, simplex
from waldschmidt.errors import SolverInvariantError
from waldschmidt.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

F = Fraction
POOLS = Path(__file__).parent.parent / "perfbench" / "data"
GENERIC_R8_POOL = POOLS / "generic-r8.json"


def test_simple_optimum_with_dual():
    # min x0 + x1 s.t. x0 + 2 x1 = 4, exact optimum at x = (0, 2).
    res = solve_lp([[1, 2]], [4], [1, 1])
    assert res.status == OPTIMAL
    assert res.x == (F(0), F(2))
    assert res.objective == F(2)
    # strong duality: y.b == objective
    assert res.dual is not None and res.dual[0] * 4 == res.objective


def test_equality_system_unique_solution():
    # x0 = 1, x1 = 2 forced; objective arbitrary.
    res = solve_lp([[1, 0], [0, 1]], [1, 2], [3, 5])
    assert res.status == OPTIMAL
    assert res.x == (F(1), F(2))
    assert res.objective == F(13)
    assert sum(y * b for y, b in zip(res.dual, [1, 2])) == F(13)


def test_infeasible():
    # x0 + x1 = -1 has no nonnegative solution.
    res = solve_lp([[1, 1]], [-1], [0, 0])
    assert res.status == INFEASIBLE


def test_infeasible_inconsistent_rows():
    res = solve_lp([[1, 1], [1, 1]], [1, 2], [0, 0])
    assert res.status == INFEASIBLE


def test_unbounded():
    # min -x0 with x0 - x1 = 0: push both to infinity.
    res = solve_lp([[1, -1]], [0], [-1, 0])
    assert res.status == UNBOUNDED


def test_redundant_row_handled():
    res = solve_lp([[1, 1], [2, 2]], [3, 6], [1, 2])
    assert res.status == OPTIMAL
    assert res.objective == F(3)
    assert sum(y * b for y, b in zip(res.dual, [3, 6])) == F(3)


def test_negative_rhs_normalisation_and_dual_sign():
    # Same problem written with a negated row; duals must agree in meaning.
    res1 = solve_lp([[1, 2]], [4], [1, 1])
    res2 = solve_lp([[-1, -2]], [-4], [1, 1])
    assert res2.status == OPTIMAL and res2.objective == res1.objective
    assert res2.dual[0] * (-4) == res2.objective


def test_exact_fractions_no_drift():
    # A system engineered to produce awkward denominators.
    a = [[3, 1, 0], [1, 2, 1]]
    b = [1, 1]
    res = solve_lp(a, b, [1, 1, 1])
    assert res.status == OPTIMAL
    x = res.x
    assert all(q >= 0 for q in x)
    assert 3 * x[0] + x[1] == F(1)
    assert x[0] + 2 * x[1] + x[2] == F(1)
    assert res.objective == sum(x, F(0))
    assert sum(y * q for y, q in zip(res.dual, b)) == res.objective


def test_zero_row_lp():
    # No constraints: x = 0 is the only basis, so a negative cost is unbounded.
    res = solve_lp([], [], [1, 2])
    assert res == simplex.LpResult(OPTIMAL, 1, (0, 0), 0, ())
    assert (res.x, res.objective, res.dual) == ((F(0), F(0)), F(0), ())
    assert solve_lp([], [], [1, -2]).status == UNBOUNDED


def test_unbounded_phase_one_raises_typed_error(monkeypatch):
    monkeypatch.setattr(simplex, "_run_phase", lambda t, limit: UNBOUNDED)
    with pytest.raises(SolverInvariantError, match="phase 1"):
        solve_lp([[1]], [1], [1])


@pytest.mark.parametrize("a, b, c, message", [
    ([[1, 2], [1]], [1, 1], [1, 1], "row 1 has 1 entries, not 2"),
    ([[1, 2]], [1], [1], "row 0 has 2 entries, not 1"),
    ([[1, 2]], [1, 2], [1, 1], "1 rows but 2 right-hand sides"),
    ([[1, 2.0]], [1], [1, 1], "row 0 has an entry"),
    ([[1, 2], [1, 1]], [1, 0.5], [1, 1], "row 1 has an entry"),
    ([[1, 2]], [1], [1, 1.0], "cost row has an entry"),
    ([[1, F(1, 2)]], [1], [1, 1], "row 0 has an entry"),
    ([[1, 2], [1, 1]], [1, F(1, 2)], [1, 1], "row 1 has an entry"),
    ([[1, 2]], [1], [F(1, 2), 1], "cost row has an entry"),
    ([[1, 2]], [1], [1, F(1)], "cost row has an entry"),
    ([[True, 2]], [1], [1, 1], "row 0 has an entry"),
    ([[1, 2]], [False], [1, 1], "row 0 has an entry"),
    ([[1, 2]], [1], [1, True], "cost row has an entry"),
])
def test_malformed_lp_raises_typed_error_naming_the_row(a, b, c, message):
    with pytest.raises(SolverInvariantError, match=message):
        solve_lp(a, b, c)


def test_pivot_path_matches_the_benchmark_pool(monkeypatch):
    # The pool records each r=8 LP's value and its Bland pivot count on the
    # record's full LP; the solver must take the same pivots, counted
    # through _Tableau.pivot as the pool generator (perfbench/make_pools.py)
    # counts them.  cone.waldschmidt solves these in the symmetry quotient,
    # so the full LP is solved here directly.
    entries = json.loads(GENERIC_R8_POOL.read_text(encoding="utf-8"))["entries"]
    picks = entries[:3] + [
        max(entries, key=lambda e: e["pivots"]),
        min(entries, key=lambda e: e["pivots"]),
    ]
    prep = cone._record(generic_config(8))
    cost = [0] * len(prep.coeffs) + [1]
    pivots = [0]
    original = simplex._Tableau.pivot

    def counting_pivot(self, row, col):
        pivots[0] += 1
        return original(self, row, col)

    monkeypatch.setattr(simplex._Tableau, "pivot", counting_pivot)
    for entry in picks:
        pivots[0] = 0
        res = solve_lp(prep, (0,) + tuple(-x for x in entry["m"]), cost)
        assert (res.objective, pivots[0]) == (F(entry["value"]), entry["pivots"]), entry["m"]


_ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
# Entries up to 2**64 and denominators up to 10**6 make wide tableau slots.
_WIDE_ENTRIES = st.one_of(
    st.integers(-2**64, 2**64),
    st.fractions(min_value=-2**64, max_value=2**64, max_denominator=10**6),
)


@st.composite
def _lps(draw, entries=_ENTRIES):
    """Small LPs with int and Fraction entries drawn from `entries`, and
    any sign of b; the test scales them to integers (`_integer_lp`).

    Half are feasible by construction (b = A x0 with x0 >= 0), and some
    repeat a scaled copy of a row, so redundant rows reach the solver.
    """
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 6))
    a = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    feasible = draw(st.booleans())
    if feasible:
        x0 = draw(st.lists(
            st.fractions(min_value=0, max_value=3, max_denominator=4),
            min_size=ncols, max_size=ncols,
        ))
        b = [sum((v * q for v, q in zip(row, x0)), F(0)) for row in a]
    else:
        b = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, nrows - 1))
        k = draw(st.sampled_from([2, -1, F(1, 3)]))
        a.append([k * v for v in a[i]])
        b.append(k * b[i])
    c = draw(st.lists(entries, min_size=ncols, max_size=ncols))
    return a, b, c, feasible


def _integer_lp(a, b, c):
    """The same LP over integers: each row with its b entry, and the cost
    row, times the lcm of their denominators."""
    rows, rhs = [], []
    for row, bi in zip(a, b):
        s = lcm(bi.denominator, *[v.denominator for v in row])
        rows.append([int(v * s) for v in row])
        rhs.append(int(bi * s))
    s = lcm(*[v.denominator for v in c])
    return rows, rhs, [int(v * s) for v in c]


def _check_optimality_conditions(lp):
    # Solver-independent oracle: primal feasibility, dual feasibility and
    # strong duality, checked in exact arithmetic on the integer LP.
    a, b, c, feasible = lp
    a, b, c = _integer_lp(a, b, c)
    res = solve_lp(a, b, c)
    if feasible:
        assert res.status != INFEASIBLE
        if all(v >= 0 for v in c):
            assert res.status == OPTIMAL
    if res.status != OPTIMAL:
        return
    x, y = res.x, res.dual
    assert len(x) == len(c) and len(y) == len(a)
    assert all(q >= 0 for q in x)
    for row, bi in zip(a, b):
        assert sum(v * q for v, q in zip(row, x)) == bi
    for j, cj in enumerate(c):
        assert sum(yi * row[j] for yi, row in zip(y, a)) <= cj
    assert res.objective == sum(cj * q for cj, q in zip(c, x))
    assert sum(yi * bi for yi, bi in zip(y, b)) == res.objective


@settings(max_examples=300, deadline=None)
@given(_lps())
def test_optimal_results_satisfy_the_optimality_conditions(lp):
    _check_optimality_conditions(lp)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_lps(), _lps(_WIDE_ENTRIES)))
def test_results_are_numerators_over_one_positive_denominator(lp):
    # An optimal result holds ints over one den > 0: each Fraction view is
    # its numerator over den in lowest terms, and y.b = objective holds on
    # the numerators.  Any other result holds None throughout.
    a, b, c = _integer_lp(*lp[:3])
    res = solve_lp(a, b, c)
    if res.status != OPTIMAL:
        assert (res.den, res.x_num, res.objective_num, res.dual_num) == (None,) * 4
        assert (res.x, res.objective, res.dual) == (None,) * 3
        return
    den = res.den
    assert type(den) is int and den > 0
    assert len(res.x_num) == len(c) and len(res.dual_num) == len(a)
    nums = [*res.x_num, res.objective_num, *res.dual_num]
    for v, q in zip(nums, [*res.x, res.objective, *res.dual], strict=True):
        assert type(v) is int and type(q) is Fraction
        g = gcd(v, den)
        assert (q.numerator, q.denominator) == (v // g, den // g)
    assert sum(y * bi for y, bi in zip(res.dual_num, b)) == res.objective_num


@settings(max_examples=200, deadline=None)
@given(_lps(_WIDE_ENTRIES))
def test_wide_entry_lps_satisfy_the_optimality_conditions(lp):
    # Negative b, redundant rows (so negative pivots when artificials are
    # driven out) and huge entries, which force wide packed slots.
    _check_optimality_conditions(lp)


def _assert_bland_path(a, b, c):
    """solve_lp gives the result of the plain tableau (helpers.bland_simplex)
    after as many pivots, counted through _Tableau.pivot, on A as row
    lists, as a fresh PackedMatrix, as one widened 64 bits past the width
    the solve needs (which the solve packs back at that width), and as A
    itself when A is a record."""
    pivots = [0]
    original = simplex._Tableau.pivot

    def counting_pivot(self, row, col):
        pivots[0] += 1
        return original(self, row, col)

    rows = [list(row) for row in getattr(a, "coords", a)]
    expected = bland_simplex(rows, b, c)
    fresh, wide = simplex.PackedMatrix(rows, len(c)), simplex.PackedMatrix(rows, len(c))
    inputs = [rows, fresh, wide] + [a] * isinstance(a, simplex.PackedMatrix)
    for i, matrix in enumerate(inputs):
        if matrix is wide:
            wide.widen(2 ** (fresh.k + 64))
        pivots[0] = 0
        with mock.patch.object(simplex._Tableau, "pivot", counting_pivot):
            res = solve_lp(matrix, b, c)
        assert (res.status, res.x, res.objective, res.dual, pivots[0]) == expected, i
        assert getattr(matrix, "k", fresh.k) == fresh.k, i


def _pool_lps(queries):
    """The LP that cone.waldschmidt solves for each (config, m)."""
    lps = []
    real = cone.solve_lp

    def recording(a, b, c):
        lps.append((a, b, c))
        return real(a, b, c)

    with mock.patch.object(cone, "solve_lp", recording):
        for cfg, m in queries:
            cone.waldschmidt(cfg, m)
    assert len(lps) == len(queries)
    return lps


@settings(max_examples=200, deadline=None)
@given(_lps())
def test_small_lps_take_the_plain_bland_path(lp):
    _assert_bland_path(*_integer_lp(*lp[:3]))


@settings(max_examples=100, deadline=None)
@given(_lps(_WIDE_ENTRIES))
def test_wide_entry_lps_take_the_plain_bland_path(lp):
    _assert_bland_path(*_integer_lp(*lp[:3]))


def test_generic_r8_pool_lps_take_the_plain_bland_path():
    entries = json.loads(GENERIC_R8_POOL.read_text(encoding="utf-8"))["entries"]
    cfg = generic_config(8)
    for lp in _pool_lps([(cfg, tuple(e["m"])) for e in entries]):
        _assert_bland_path(*lp)


@pytest.mark.parametrize("r", [6, 7])
def test_generic_r6_r7_lps_take_the_plain_bland_path(r):
    cfg = generic_config(r)
    ms = [(1,) * r, (1, 2) * (r // 2) + (3,) * (r % 2), tuple(range(1, r + 1))]
    for lp in _pool_lps([(cfg, m) for m in ms]):
        _assert_bland_path(*lp)


def test_a_record_must_match_the_cost_row():
    a = simplex.PackedMatrix([[1, 2]], 2)
    with pytest.raises(SolverInvariantError, match="row 0 has 2 entries, not 3"):
        solve_lp(a, [1], [1, 1, 1])
    with pytest.raises(SolverInvariantError, match="row 0 has an entry"):
        solve_lp(a, [1.0], [1, 1])


def test_packed_rows_hold_each_entry_in_its_slot():
    # Entries at the edge of the slot range, and entries far apart.
    rng = random.Random(5)
    rows = [[rng.randint(-127, 127) for _ in range(200)] + [127, -127] for _ in range(3)]
    for limit, k in [(0, 8), (128, 16)]:
        a = simplex.PackedMatrix(rows, 202)
        a.widen(limit)
        assert a.k == k and a.rows == [packed_int(r, k) for r in rows]
    wide = simplex.PackedMatrix([[2**60, -(2**60), 3]], 3)
    wide.widen(0)
    assert wide.k == 64 and wide.rows == [packed_int([2**60, -(2**60), 3], 64)]


def test_dp4_catalog_pool_lps_take_the_plain_bland_path():
    entries = json.loads((POOLS / "dp4-catalog.json").read_text(encoding="utf-8"))["entries"]
    models = {e.label: e.config() for e in dp4.catalog()}
    sample = random.Random(18).sample(entries, 120)
    for lp in _pool_lps([(models[e["label"]], tuple(e["m"])) for e in sample]):
        _assert_bland_path(*lp)
