"""Two-phase primal simplex on integer data, with exact rational results.

Solves min c.x subject to A x = b, x >= 0 for integer A, b and c by
integer pivoting (the Edmonds-Bareiss fraction-free elimination of
Avis's lrs); the optimum, primal solution and duals come out as exact
Fractions.  The tableau holds only integers: every entry is its true
rational value times D, the absolute value of the current basis
determinant, and D > 0.  A pivot on entry p turns each entry x of
another row into (p*x - f*y) // D, where f is that row's entry in the
pivot column and y the pivot row's entry in x's column; the division is
exact.  D then becomes |p|.  Both cost rows are tableau rows, pivoted
with the others, so reduced costs and duals are read off, never
recomputed.  Bland's anti-cycling rule (smallest eligible index enters,
smallest basic index leaves) guarantees termination.

Packed rows.  A row T is stored as one Python int, the sum of
T[j] * 2**(k*j) over its slots j: the columns in order, then the
right-hand side in the last slot.  A pivot then costs a few big-int
operations per row instead of one Python operation per entry.

Slot width.  By Cramer's rule every entry the solve ever holds is, up
to sign, a minor of the initial integer tableau: D and the constraint
entries are minors of the constraint rows, and a cost entry is a minor
of all the constraint rows and that one cost row.  The phase-1 row is
minus the sum of the constraint rows plus their artificial unit slots,
so adding every constraint row to it changes none of its minors and
turns it into the 0/1 row of the artificial columns.  By Hadamard's
inequality a minor is at most the product of the Euclidean norms of its
rows.  So H, the product of isqrt(sum of squares) + 1 over the
constraint rows, times the larger of that factor for the phase-2 row
and isqrt(number of rows) + 1 for the 0/1 row, exceeds every entry in
absolute value.  k is the least multiple of 8 with 2**(k-1) > H, so
every slot lies in (-2**(k-1), 2**(k-1)) for the whole solve.  The
bound is proven from the input, never taken from entry sizes seen in
runs.

Exact pivots on packed rows.  The update (p*x - f*y) // D is linear in
the row and D divides every slot of p*x - f*y, so the same expression
on whole packed rows, (p*row - f*prow) // D, is exactly the packed new
row; its slots are the new entries, which the bound keeps in range.
Negating a packed row negates every slot.

Reading slots.  `offset` holds 2**(k-1) in every slot.  In
row + offset each slot is T[j] + 2**(k-1), which lies in [0, 2**k), so
no slot borrows from the next and
T[j] = ((row + offset) >> k*j & (2**k - 1)) - 2**(k-1).  There the top
bit of a slot is clear exactly when the entry is negative, so Bland's
entering column is the lowest slot below the column limit with that bit
clear: the lowest set bit, `negative & -negative`, of the clear top
bits.  An entry is zero exactly when its slot of
(row + offset) ^ offset is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul
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
    """Packed integer tableau: the constraint rows, then the cost rows.

    `rows[i]` packs row i into `k`-bit slots, the last one holding its
    right-hand side.  `basis[i]` is the column basic in constraint row i;
    `d` is the common denominator D.
    """

    def __init__(self, rows: list[list[int]], cost: list[int]) -> None:
        """Pack the constraint rows, whose artificial columns (just before
        the right-hand side) form an identity, and the phase-2 cost row;
        the phase-1 row is derived from them."""
        nrows = len(rows)
        ncols = len(cost) - 1 - nrows
        # Hadamard's bound H (module docstring).
        bound = max(isqrt(sum(map(mul, cost, cost))), isqrt(nrows)) + 1
        for r in rows:
            bound *= isqrt(sum(map(mul, r, r))) + 1
        k = self.k = (bound.bit_length() + 8) // 8 * 8
        self.mask = (1 << k) - 1
        self.half = 1 << (k - 1)
        self.offset = self.half * (((1 << k * len(cost)) - 1) // self.mask)
        self.rhs_shift = k * (len(cost) - 1)
        self.rows = [self._pack(r) for r in rows]
        self.rows.append(self._pack(cost))
        # Phase 1 minimises the sum of the artificials: minus the sum of the
        # constraint rows, plus their artificial unit slots.
        units = ((1 << k * nrows) - 1) // self.mask << k * ncols
        self.rows.append(units - sum(self.rows[:nrows]))
        self.basis = list(range(ncols, ncols + nrows))
        self.d = 1

    def _pack(self, values: list[int]) -> int:
        half, nbytes = self.half, self.k // 8
        slots = b"".join([(v + half).to_bytes(nbytes, "little") for v in values])
        return int.from_bytes(slots, "little") - self.offset

    def entry(self, row: int, col: int) -> int:
        return ((self.rows[row] + self.offset) >> self.k * col & self.mask) - self.half

    def pivot(self, row: int, col: int) -> None:
        rows = self.rows
        offset, mask, half = self.offset, self.mask, self.half
        shift = self.k * col
        prow = rows[row]
        p = ((prow + offset) >> shift & mask) - half
        d = self.d
        for i, r in enumerate(rows):
            if i == row:
                continue
            f = ((r + offset) >> shift & mask) - half
            if f:
                rows[i] = (p * r - f * prow) // d
            elif p != d:
                rows[i] = p * r // d
        if p < 0:
            rows[:] = [-r for r in rows]
            p = -p
        self.d = p
        self.basis[row] = col


def _run_phase(t: _Tableau, limit: int) -> str:
    """Bland pivots on the last row's reduced costs, entering only
    columns below `limit`, until optimal or unbounded."""
    k, offset, mask, half, rhs_shift = t.k, t.offset, t.mask, t.half, t.rhs_shift
    rows, basis = t.rows, t.basis
    tops = offset & ((1 << k * limit) - 1)
    while True:
        negative = tops & ~(rows[-1] + offset)
        if not negative:
            return OPTIMAL
        shift = (negative & -negative).bit_length() - k
        leave = -1
        for i, j in enumerate(basis):
            u = rows[i] + offset
            a = (u >> shift & mask) - half
            if a > 0:
                rhs = (u >> rhs_shift) - half
                # rhs / a against best_rhs / best_a, both a > 0.
                if leave < 0 or rhs * best_a < best_rhs * a or (
                    rhs * best_a == best_rhs * a and j < basis[leave]
                ):
                    leave, best_rhs, best_a = i, rhs, a
        if leave < 0:
            return UNBOUNDED
        t.pivot(leave, shift // k)


def solve_lp(a: Sequence[Sequence[int]], b: Sequence[int], c: Sequence[int]) -> LpResult:
    """min c.x s.t. A x = b, x >= 0, over integer data.

    Returns the optimum with a primal solution and the dual vector y
    (one entry per constraint row, satisfying y.A <= c and y.b = c.x at
    the optimum), all as exact Fractions.  Every entry of A, b and c must
    be an int (a bool is not one), b must have one entry per row of A and
    every row one entry per entry of c; otherwise SolverInvariantError
    names the offending row, or the cost row.
    """
    nrows = len(a)
    ncols = len(c)
    total = ncols + nrows
    if len(b) != nrows:
        raise SolverInvariantError(f"LP has {nrows} rows but {len(b)} right-hand sides")
    if not {int}.issuperset(map(type, c)):
        raise SolverInvariantError("LP cost row has an entry that is not an int")
    # Row i enters times sign[i], so that every right-hand side starts >= 0.
    sign: list[int] = []
    rows: list[list[int]] = []
    for i in range(nrows):
        row, bi = a[i], b[i]
        if len(row) != ncols:
            raise SolverInvariantError(f"LP row {i} has {len(row)} entries, not {ncols}")
        if type(bi) is not int or not {int}.issuperset(map(type, row)):
            raise SolverInvariantError(f"LP row {i} has an entry that is not an int")
        s = -1 if bi < 0 else 1
        # Artificial identity columns ncols..total-1 seed the basis.
        unit = [0] * nrows
        unit[i] = 1
        rows.append([v * s for v in row] + unit + [bi * s])
        sign.append(s)
    t = _Tableau(rows, list(c) + [0] * (nrows + 1))

    status = _run_phase(t, total)
    if status != OPTIMAL:
        raise SolverInvariantError(f"phase 1 ended {status}; it is bounded below by 0")
    # The phase-1 right-hand side is minus the sum of the artificials, times D.
    if t.entry(-1, total) != 0:
        return LpResult(INFEASIBLE, None, None, None)
    t.rows.pop()

    # Drive any residual zero-valued artificials out of the basis: pivot
    # on the row's first nonzero entry among the original columns.
    low = (1 << t.k * ncols) - 1
    for i in range(nrows):
        if t.basis[i] >= ncols:
            nonzero = ((t.rows[i] + t.offset) ^ t.offset) & low
            if nonzero:
                t.pivot(i, ((nonzero & -nonzero).bit_length() - 1) // t.k)

    if _run_phase(t, ncols) == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, None)

    d = t.d
    x = [_ZERO] * ncols
    for i, j in enumerate(t.basis):
        if j < ncols:
            x[j] = Fraction(t.entry(i, total), d)
    objective = Fraction(-t.entry(-1, total), d)
    dual = tuple([Fraction(-s * t.entry(-1, ncols + i), d) for i, s in enumerate(sign)])
    return LpResult(OPTIMAL, tuple(x), objective, dual)
