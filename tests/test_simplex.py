from fractions import Fraction

import pytest

from waldschmidt import simplex
from waldschmidt.errors import SolverInvariantError
from waldschmidt.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

F = Fraction


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
    b = [F(1), F(1)]
    res = solve_lp(a, b, [1, 1, 1])
    assert res.status == OPTIMAL
    x = res.x
    assert all(q >= 0 for q in x)
    assert 3 * x[0] + x[1] == F(1)
    assert x[0] + 2 * x[1] + x[2] == F(1)
    assert res.objective == sum(x, F(0))
    assert sum(y * q for y, q in zip(res.dual, b)) == res.objective


def test_unbounded_phase_one_raises_typed_error(monkeypatch):
    monkeypatch.setattr(simplex, "_run_simplex", lambda t, cost, allowed: UNBOUNDED)
    with pytest.raises(SolverInvariantError, match="phase 1"):
        solve_lp([[1]], [1], [1])
