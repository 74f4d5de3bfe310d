"""Two-phase primal simplex over exact rationals with Bland's rule.

Solves min c.x subject to A x = b, x >= 0, entirely in Fraction
arithmetic.  Bland's anti-cycling rule (smallest eligible index enters,
smallest basic index leaves) guarantees termination.  Problem sizes in
this package are tiny (<= 9 rows, a few hundred columns), so a dense
tableau is the simplest correct choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SolverInvariantError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LpResult:
    status: str
    x: tuple[Fraction, ...] | None
    objective: Fraction | None
    dual: tuple[Fraction, ...] | None


class _Tableau:
    """Dense simplex tableau with an explicit cost row."""

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction]) -> None:
        self.rows = rows
        self.rhs = rhs
        self.basis: list[int] = []

    def pivot(self, row: int, col: int) -> None:
        piv = self.rows[row][col]
        inv = _ONE / piv
        self.rows[row] = [a * inv for a in self.rows[row]]
        self.rhs[row] *= inv
        for i in range(len(self.rows)):
            if i == row:
                continue
            factor = self.rows[i][col]
            if factor:
                self.rows[i] = [
                    a - factor * b for a, b in zip(self.rows[i], self.rows[row])
                ]
                self.rhs[i] -= factor * self.rhs[row]
        self.basis[row] = col


def _reduced_costs(t: _Tableau, cost: list[Fraction]) -> list[Fraction]:
    ncols = len(cost)
    red = list(cost)
    for row, j in enumerate(t.basis):
        cb = cost[j]
        if cb:
            r = t.rows[row]
            for col in range(ncols):
                if r[col]:
                    red[col] -= cb * r[col]
    return red


def _run_simplex(t: _Tableau, cost: list[Fraction], allowed: list[bool]) -> str:
    """Iterate Bland pivots until optimal or unbounded."""
    while True:
        red = _reduced_costs(t, cost)
        enter = -1
        for j, dj in enumerate(red):
            if allowed[j] and j not in t.basis and dj < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave_row = -1
        best = None
        for i, row in enumerate(t.rows):
            a = row[enter]
            if a > 0:
                ratio = t.rhs[i] / a
                if best is None or ratio < best or (
                    ratio == best and t.basis[i] < t.basis[leave_row]
                ):
                    best = ratio
                    leave_row = i
        if leave_row < 0:
            return UNBOUNDED
        t.pivot(leave_row, enter)


def solve_lp(
    a: Sequence[Sequence[Fraction | int]],
    b: Sequence[Fraction | int],
    c: Sequence[Fraction | int],
) -> LpResult:
    """min c.x s.t. A x = b, x >= 0.

    Returns the optimum with a primal solution and the dual vector y
    (one entry per constraint row, satisfying y.A <= c and y.b = c.x at
    the optimum).
    """
    nrows = len(a)
    ncols = len(c)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    signs: list[int] = []
    for i in range(nrows):
        row = [Fraction(v) for v in a[i]]
        bi = Fraction(b[i])
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
            signs.append(-1)
        else:
            signs.append(1)
        rows.append(row)
        rhs.append(bi)

    # Artificial identity columns ncols..ncols+nrows-1 seed the basis.
    for i in range(nrows):
        for j in range(nrows):
            rows[i].append(_ONE if i == j else _ZERO)
    total = ncols + nrows
    t = _Tableau(rows, rhs)
    t.basis = list(range(ncols, total))

    phase1_cost = [_ZERO] * ncols + [_ONE] * nrows
    allowed = [True] * total
    status = _run_simplex(t, phase1_cost, allowed)
    if status != OPTIMAL:
        raise SolverInvariantError(f"phase 1 ended {status}; it is bounded below by 0")
    infeasibility = sum(
        (t.rhs[i] for i in range(nrows) if t.basis[i] >= ncols), _ZERO
    )
    if infeasibility > 0:
        return LpResult(INFEASIBLE, None, None, None)

    # Drive any residual zero-valued artificials out of the basis.
    for i in range(nrows):
        if t.basis[i] >= ncols:
            for j in range(ncols):
                if t.rows[i][j] != 0:
                    t.pivot(i, j)
                    break

    phase2_cost = [Fraction(v) for v in c] + [_ZERO] * nrows
    for j in range(ncols, total):
        allowed[j] = False
    status = _run_simplex(t, phase2_cost, allowed)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, None)

    x = [_ZERO] * ncols
    for i, j in enumerate(t.basis):
        if j < ncols:
            x[j] = t.rhs[i]
    objective = sum((ci * xi for ci, xi in zip(phase2_cost, x)), _ZERO)
    red = _reduced_costs(t, phase2_cost)
    dual = tuple(
        signs[i] * -red[ncols + i] for i in range(nrows)
    )
    return LpResult(OPTIMAL, tuple(x), objective, dual)
