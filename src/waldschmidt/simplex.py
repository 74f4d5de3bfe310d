"""Two-phase primal simplex over exact rationals with Bland's rule.

Solves min c.x subject to A x = b, x >= 0 by integer pivoting (the
Edmonds-Bareiss fraction-free elimination of Avis's lrs).  The tableau
holds only integers: every entry is its true rational value times D,
the absolute value of the current basis determinant, and D > 0.  A
pivot on entry p turns each entry x of another row into
(p*x - f*y) // D, where f is that row's entry in the pivot column and y
the pivot row's entry in x's column; the division is exact.  D then
becomes |p|.  Both cost rows are tableau rows, pivoted with the others,
so reduced costs and duals are read off, never recomputed.  Bland's
anti-cycling rule (smallest eligible index enters, smallest basic index
leaves) guarantees termination.  Problem sizes in this package are tiny
(<= 9 rows, a few hundred columns), so a dense tableau is the simplest
correct choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import SolverInvariantError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LpResult:
    status: str
    x: tuple[Fraction, ...] | None
    objective: Fraction | None
    dual: tuple[Fraction, ...] | None


class _Tableau:
    """Integer tableau: the constraint rows, then the cost rows.

    Each row ends with its right-hand side.  `basis[i]` is the column
    basic in constraint row i; `d` is the common denominator D.
    """

    def __init__(self, rows: list[list[int]], basis: list[int]) -> None:
        self.rows = rows
        self.basis = basis
        self.d = 1

    def pivot(self, row: int, col: int) -> None:
        prow = self.rows[row]
        p = prow[col]
        d = self.d
        for i, r in enumerate(self.rows):
            if i == row:
                continue
            f = r[col]
            if f:
                self.rows[i] = [(p * x - f * y) // d for x, y in zip(r, prow)]
            elif p != d:
                self.rows[i] = [p * x // d for x in r]
        if p < 0:
            self.rows = [[-x for x in r] for r in self.rows]
            p = -p
        self.d = p
        self.basis[row] = col


def _run_phase(t: _Tableau, limit: int) -> str:
    """Bland pivots on the last row's reduced costs, entering only
    columns below `limit`, until optimal or unbounded."""
    while True:
        cost = t.rows[-1]
        enter = next((j for j in range(limit) if cost[j] < 0), -1)
        if enter < 0:
            return OPTIMAL
        leave = -1
        for i in range(len(t.basis)):
            a = t.rows[i][enter]
            if a > 0:
                rhs = t.rows[i][-1]
                # rhs / a against best_rhs / best_a, both a > 0.
                if leave < 0 or rhs * best_a < best_rhs * a or (
                    rhs * best_a == best_rhs * a and t.basis[i] < t.basis[leave]
                ):
                    leave, best_rhs, best_a = i, rhs, a
        if leave < 0:
            return UNBOUNDED
        t.pivot(leave, enter)


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
    # Tuples and argument lists here are built from lists, not generators:
    # a tuple built from a generator is resized once full, which leaves one
    # more tuple on CPython's free lists per call in a long-running process.
    nrows = len(a)
    ncols = len(c)
    total = ncols + nrows
    # Row i enters times scale[i]: the lcm of its denominators, negated
    # when b[i] < 0 so that every right-hand side starts >= 0.
    scale: list[int] = []
    rows: list[list[int]] = []
    for i in range(nrows):
        s = lcm(b[i].denominator, *[v.denominator for v in a[i]])
        if b[i] < 0:
            s = -s
        scale.append(s)
        # Artificial identity columns ncols..total-1 seed the basis.
        unit = [0] * nrows
        unit[i] = 1
        rows.append([int(v * s) for v in a[i]] + unit + [int(b[i] * s)])
    cost_scale = lcm(*[v.denominator for v in c])
    phase2 = [int(v * cost_scale) for v in c] + [0] * (nrows + 1)
    # Phase 1 minimises the sum of the artificials.
    phase1 = [-sum(r[j] for r in rows) for j in range(ncols)] + [0] * nrows
    phase1.append(-sum(r[-1] for r in rows))
    t = _Tableau(rows + [phase2, phase1], list(range(ncols, total)))

    status = _run_phase(t, total)
    if status != OPTIMAL:
        raise SolverInvariantError(f"phase 1 ended {status}; it is bounded below by 0")
    # The phase-1 right-hand side is minus the sum of the artificials, times D.
    if t.rows.pop()[-1] != 0:
        return LpResult(INFEASIBLE, None, None, None)

    # Drive any residual zero-valued artificials out of the basis.
    for i in range(nrows):
        if t.basis[i] >= ncols:
            for j in range(ncols):
                if t.rows[i][j] != 0:
                    t.pivot(i, j)
                    break

    if _run_phase(t, ncols) == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, None)

    d = t.d
    x = [_ZERO] * ncols
    for row, j in zip(t.rows, t.basis):
        if j < ncols:
            x[j] = Fraction(row[-1], d)
    cost = t.rows[-1]
    objective = Fraction(-cost[-1], d * cost_scale)
    dual = tuple([
        Fraction(-s * cost[ncols + i], d * cost_scale) for i, s in enumerate(scale)
    ])
    return LpResult(OPTIMAL, tuple(x), objective, dual)
