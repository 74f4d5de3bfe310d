"""Two-phase primal simplex on integer data, with exact rational results.

Solves min c.x subject to A x = b, x >= 0 for integer A, b and c by
integer pivoting (the Edmonds-Bareiss fraction-free elimination of
Avis's lrs); the optimum, primal solution and duals come out as exact
Fractions.  The tableau holds only integers: every entry is its true
rational value times D, the absolute value of the current basis
determinant, and D > 0.  A pivot on entry p turns each entry x of
another row into (p*x - f*y) // D, where f is that row's entry in the
pivot column and y the pivot row's entry in x's column; the division is
exact.  D then becomes |p|.  Bland's anti-cycling rule (smallest
eligible index enters, smallest basic index leaves) guarantees
termination.

Revised form.  The tableau has the constraint rows [A | I | b] (each
row of A and b negated where b is negative), then the phase-2 cost row
[c | 0 | 0] and the phase-1 row, minus the sum of the constraint rows
outside their artificial columns.  Row operations are linear and the
artificial columns start as an identity, so every current row is a
combination of the starting constraint rows a_l whose weights are that
row's entries in the artificial columns: a constraint row is
sum_l T[art l] * a_l, and a cost row is D times its starting form plus
sum_l T[art l] * a_l.  (In phase 2 the weight T[art l] is minus D times
the dual of a_l.)  So the solver keeps, for every row, cost rows
included, only its artificial columns and right-hand side, the block,
and pivots the block with the step above.  The constraint rows are
packed once and never rewritten.  Each iteration prices the active
cost row from its block entries, and the entering column q is
sum_l a_l[q] * (block column l), plus D times the cost rows' starting
entries in column q.  Every value the solver decodes is an entry of the
current tableau: a block entry, a priced reduced cost, or an entry of
the entering column.  So Bland's choices, the pivot count and the
results are those of the full tableau.  The phase-1 row stays in the
block through phase 2, pivoted like the others and never read.

Packed rows.  A row T is stored as one Python int, the sum of
T[j] * 2**(k*j) over its slots j: the columns in order, then the
right-hand side in the last slot.  The block packs its columns one
after another, each with one slot per row; the entering column is
packed like a block column.

Slot width.  By Cramer's rule every tableau entry of the solve is, up
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
every entry read lies in (-2**(k-1), 2**(k-1)).  The bound is proven
from the input, never taken from entry sizes seen in runs.

Exact arithmetic on packed ints.  A packed int is exactly the sum of
its slot values times powers of 2**k, whatever those values are, so a
linear combination of packed ints is exactly the packed combination of
their slots, even where an intermediate slot value leaves its width.
Only decoding needs every slot in range, and the solver decodes only
tableau entries.  Pricing and the entering column take one multiply
and one add per constraint row (none for a zero weight) and no
division.  The block pivot is one expression: with F the entering
column, its pivot-row slot lowered by D so that the pivot row stays as
it is, and Y the pivot row's block entries, one in the first slot of
each block column, the product F*Y holds f_i * y_j in the slot of row i
and column j.  So (p*block - F*Y) // D is exactly the packed new block,
as D divides every slot of p*block - F*Y.  The exact // D runs only on
that short int, never on a full tableau row.  Negating a packed int
negates every slot.

Reading slots.  An offset holds 2**(k-1) in every slot.  In
T + offset each slot is T[j] + 2**(k-1), which lies in [0, 2**k), so
no slot borrows from the next and
T[j] = ((T + offset) >> k*j & (2**k - 1)) - 2**(k-1).  There the top
bit of a slot is clear exactly when the entry is negative, so Bland's
entering column is the lowest slot below the column limit with that bit
clear: the lowest set bit, `negative & -negative`, of the clear top
bits.  An entry is zero exactly when its slot of
(T + offset) ^ offset is.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import mul
from typing import Sequence

from ._record import Record, set_field
from .errors import SolverInvariantError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


class LpResult(Record):
    __slots__ = _fields = ("status", "x", "objective", "dual")
    status: str
    x: tuple[Fraction, ...] | None
    objective: Fraction | None
    dual: tuple[Fraction, ...] | None

    # Built once per LP, so without the generic argument binding.
    def __init__(self, status, x, objective, dual) -> None:
        set_field(self, "status", status)
        set_field(self, "x", x)
        set_field(self, "objective", objective)
        set_field(self, "dual", dual)


class _Tableau:
    """The revised form of the packed integer tableau.

    `a` and `rows` are the constraint rows, as lists and packed, with the
    right-hand side last; `start` packs the two cost rows as they begin.
    `block` packs the artificial columns and the right-hand side of every
    current row: its column j (j = n is the right-hand side) holds the
    rows 0..n-1, then the phase-2 row n and the phase-1 row n+1, in R =
    n+2 slots.  `basis[i]` is the column basic in constraint row i, `d`
    the common denominator D, `active` the cost row being priced, and
    `entering` the last column computed, kept for the pivot that follows.
    """

    def __init__(self, rows: list[list[int]], cost: list[int]) -> None:
        """Pack the constraint rows, whose artificial columns (just before
        the right-hand side) form an identity, and the phase-2 cost row;
        the phase-1 row is derived from them."""
        n = self.n = len(rows)
        ncols = self.ncols = len(cost) - 1 - n
        # Hadamard's bound H (module docstring).
        bound = max(isqrt(sum(map(mul, cost, cost))), isqrt(n)) + 1
        for r in rows:
            bound *= isqrt(sum(map(mul, r, r))) + 1
        k = self.k = (bound.bit_length() + 8) // 8 * 8
        mask = self.mask = (1 << k) - 1
        half = self.half = 1 << (k - 1)
        offset = self.offset = half * (((1 << k * len(cost)) - 1) // mask)
        self.a = rows
        self.cost = cost
        # Pack a row as the bytes of its biased slots, each value encoded once.
        slot = {v: (v + half).to_bytes(k // 8, "little") for v in set(cost).union(*rows)}
        packed = [int.from_bytes(b"".join(map(slot.__getitem__, r)), "little") - offset
                  for r in [*rows, cost]]
        phase2 = packed.pop()
        self.rows = packed
        # Phase 1 minimises the sum of the artificials: minus the sum of the
        # constraint rows, plus their artificial unit slots.
        units = ((1 << k * n) - 1) // mask << k * ncols
        self.start = [phase2, units - sum(packed)]
        span = self.span = k * (n + 2)
        col_mask = self.col_mask = (1 << span) - 1
        self.col_offset = half * (col_mask // mask)
        # Y's slots (slot 0 of every block column), and the block's offset.
        spread = ((1 << span * (n + 1)) - 1) // col_mask
        self.stride, self.stride_half = mask * spread, half * spread
        self.block_offset = self.col_offset * spread
        # The identity, then b and its negated sum in the right-hand side.
        rhs = [r[-1] for r in rows]
        block = ((1 << (span + k) * n) - 1) // ((1 << span + k) - 1)
        for i, v in enumerate(rhs):
            block += v << span * n + k * i
        self.block = block - (sum(rhs) << span * n + k * (n + 1))
        self.basis = list(range(ncols, ncols + n))
        self.d = 1
        self.active = n + 1
        self.entering = (-1, 0)

    def entry(self, row: int, col: int) -> int:
        """The block entry of `row` in artificial column `col` (col = n:
        the right-hand side)."""
        shift = self.span * col + self.k * row
        return ((self.block + self.block_offset) >> shift & self.mask) - self.half

    def row(self, i: int) -> int:
        """Row i of the current tableau, packed: its block entries weight
        the constraint rows, and a cost row adds D times its start."""
        k, span, mask, half = self.k, self.span, self.mask, self.half
        u = (self.block + self.block_offset) >> k * i
        total = self.d * self.start[i - self.n] if i >= self.n else 0
        for r in self.rows:
            w = (u & mask) - half
            if w:
                total += w * r
            u >>= span
        return total

    def column(self, q: int) -> int:
        """Column q of the current tableau, packed like a block column,
        and kept as the entering column for the next pivot."""
        span, col_mask = self.span, self.col_mask
        u = self.block + self.block_offset
        f = total = 0
        for r in self.a:
            v = r[q]
            if v:
                total += v
                f += v * (u & col_mask)
            u >>= span
        # u & col_mask is a block column plus col_offset; the cost rows
        # start with c[q] and, on an original column, -total.
        phase1 = total if q < self.ncols else 0
        k = self.k
        f += (self.d * (self.cost[q] - (phase1 << k)) << k * self.n) - total * self.col_offset
        self.entering = (q, f)
        return f

    def pivot(self, row: int, col: int) -> None:
        q, f = self.entering
        if q != col:
            f = self.column(col)
        k, d = self.k, self.d
        shift = k * row
        p = ((f + self.col_offset) >> shift & self.mask) - self.half
        y = ((self.block + self.block_offset) >> shift & self.stride) - self.stride_half
        block = (p * self.block - (f - (d << shift)) * y) // d
        if p < 0:
            block, p = -block, -p
        self.block = block
        self.d = p
        self.basis[row] = col
        self.entering = (-1, 0)


def _run_phase(t: _Tableau, limit: int) -> str:
    """Bland pivots on the active cost row's reduced costs, entering only
    columns below `limit`, until optimal or unbounded."""
    k, offset, mask, half = t.k, t.offset, t.mask, t.half
    basis, row, column, active = t.basis, t.row, t.column, t.active
    rhs_shift = t.span * t.n
    tops = offset & ((1 << k * limit) - 1)
    while True:
        negative = tops & ~(row(active) + offset)
        if not negative:
            return OPTIMAL
        q = (negative & -negative).bit_length() // k - 1
        u = column(q) + t.col_offset
        rhs = (t.block + t.block_offset) >> rhs_shift
        leave = -1
        for i, j in enumerate(basis):
            a = (u >> k * i & mask) - half
            if a > 0:
                b = (rhs >> k * i & mask) - half
                # b / a against best_b / best_a, both a > 0.
                if leave < 0 or b * best_a < best_b * a or (
                    b * best_a == best_b * a and j < basis[leave]
                ):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            return UNBOUNDED
        t.pivot(leave, q)


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
    if t.entry(nrows + 1, nrows) != 0:
        return LpResult(INFEASIBLE, None, None, None)
    t.active = nrows

    # Drive any residual zero-valued artificials out of the basis: pivot
    # on the row's first nonzero entry among the original columns.
    low = (1 << t.k * ncols) - 1
    for i in range(nrows):
        if t.basis[i] >= ncols:
            nonzero = ((t.row(i) + t.offset) ^ t.offset) & low
            if nonzero:
                t.pivot(i, ((nonzero & -nonzero).bit_length() - 1) // t.k)

    if _run_phase(t, ncols) == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, None)

    d = t.d
    x = [_ZERO] * ncols
    for i, j in enumerate(t.basis):
        if j < ncols:
            x[j] = Fraction(t.entry(i, nrows), d)
    objective = Fraction(-t.entry(nrows, nrows), d)
    dual = tuple([Fraction(-s * t.entry(nrows, i), d) for i, s in enumerate(sign)])
    return LpResult(OPTIMAL, tuple(x), objective, dual)
