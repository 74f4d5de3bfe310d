"""Two-phase primal simplex on integer data, with exact rational results.

Solves min c.x subject to A x = b, x >= 0 for integer A, b and c by
integer pivoting (the Edmonds-Bareiss fraction-free elimination of
Avis's lrs); the optimum, primal solution and duals come out exact, as
integers over one denominator (Results).  The tableau holds only
integers: every entry is its true rational value times D, the absolute
value of the current basis determinant, and D > 0.  A pivot on entry p
turns each entry x of another row into (p*x - f*y) // D, where f is
that row's entry in the pivot column and y the pivot row's entry in x's
column; the division is exact.  D then becomes |p|.  Bland's
anti-cycling rule (smallest eligible index enters, smallest basic index
leaves) guarantees termination.

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
right-hand side in the last slot.  A arrives as a PackedMatrix (row
lists are packed on entry); constraint row i is its sign times A's
packed row i plus its unit and right-hand-side slots.  The block packs
its columns one after another, each with one slot per row, as does the
entering column (an artificial column is a block column).

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
every entry read lies in (-2**(k-1), 2**(k-1)).  A wider k is as exact
but slower, so a PackedMatrix of another width is repacked at k.  The
bound is proven from the input, never from entry sizes seen in runs.

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

Results.  Each value of the optimum is a tableau entry over the final
D.  LpResult keeps D as `den` and the integer numerators (None unless
optimal); its `x`, `objective` and `dual` build reduced Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import mul
from typing import Sequence

from ._record import Record
from .errors import SolverInvariantError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
_ZERO = Fraction(0)


class LpResult(Record):
    __slots__ = _fields = ("status", "den", "x_num", "objective_num", "dual_num")
    status: str
    den: int | None
    x_num: tuple[int, ...] | None
    objective_num: int | None
    dual_num: tuple[int, ...] | None

    @property
    def x(self) -> tuple[Fraction, ...] | None:
        return self.x_num and tuple([Fraction(v, self.den) if v else _ZERO for v in self.x_num])

    @property
    def objective(self) -> Fraction | None:
        return self.den and Fraction(self.objective_num, self.den)

    @property
    def dual(self) -> tuple[Fraction, ...] | None:
        return self.dual_num and tuple([Fraction(v, self.den) for v in self.dual_num])


class _SlotBytes(dict):
    """v -> the k // 8 little-endian bytes of v + 2**(k-1), made on first use."""

    def __init__(self, k: int) -> None:
        self.k = k

    def __missing__(self, v: int) -> bytes:
        return self.setdefault(v, (v + (1 << (self.k - 1))).to_bytes(self.k // 8, "little"))


class PackedMatrix:
    """An integer matrix as its rows, `coords`, and one packed int per row,
    `rows`, at slot width k (0 before any widen).  widen(limit) repacks at
    the least multiple of 8 with 2**(k-1) above limit and every |entry|.
    cmax[i] is row i's largest |entry|, norms[i] its squared norm,
    computed on first use."""

    __slots__ = ("coords", "ncols", "cmax", "_norms", "k", "half", "rows", "__weakref__")

    def __init__(self, coords: Sequence[Sequence[int]], ncols: int) -> None:
        self.coords, self.ncols = coords, ncols
        self.cmax = [max(map(abs, r), default=0) for r in coords]
        self._norms: list[int] | None = None
        self.k = self.half = 0
        self.rows: list[int] = []

    @property
    def norms(self) -> list[int]:
        if self._norms is None:
            self._norms = [sum(map(mul, r, r)) for r in self.coords]
        return self._norms

    def widen(self, limit: int) -> None:
        k = (max(limit, *self.cmax, 0).bit_length() + 8) // 8 * 8
        self.k, self.half = k, 1 << (k - 1)
        slot = _SlotBytes(k)
        bias = self.half * (((1 << k * self.ncols) - 1) // ((1 << k) - 1))
        self.rows = [int.from_bytes(b"".join(map(slot.__getitem__, r)), "little") - bias
                     for r in self.coords]


class _Tableau:
    """The revised form of the packed integer tableau.

    `coords` holds the rows of A and `signs` the sign each enters with,
    so that every right-hand side starts >= 0; `rows` packs the rows
    [sign*A | I | sign*b], and `start` the two cost rows as they begin.
    `block` packs the artificial columns and the right-hand side of every
    current row: its column j (j = n is the right-hand side) holds the
    rows 0..n-1, then the phase-2 row n and the phase-1 row n+1, in R =
    n+2 slots.  `basis[i]` is the column basic in constraint row i, `d`
    the common denominator D, `active` the cost row being priced, and
    `entering` the last column computed, kept for the pivot that follows.
    """

    def __init__(self, a: PackedMatrix, b: Sequence[int], cost: Sequence[int]) -> None:
        n = self.n = len(b)
        ncols = self.ncols = len(cost)
        # Hadamard's bound H (module docstring), and `a` packed at its k.
        bound = max(isqrt(sum(map(mul, cost, cost))), isqrt(n)) + 1
        for norm, v in zip(a.norms, b):
            bound *= isqrt(norm + 1 + v * v) + 1
        if a.k != (bound.bit_length() + 8) // 8 * 8:
            a.widen(bound)
        k = self.k = a.k
        mask = self.mask = (1 << k) - 1
        half = self.half = a.half
        self.offset = half * (((1 << k * (ncols + n + 1)) - 1) // mask)
        self.coords, self.cost = a.coords, cost
        signs = self.signs = [-1 if v < 0 else 1 for v in b]
        rhs = list(map(abs, b))
        # Row i: sign times A's row, its unit slot, then its right-hand side.
        packed = self.rows = [s * r + (1 << k * (ncols + i)) + (v << k * (ncols + n))
                              for i, (r, s, v) in enumerate(zip(a.rows, signs, rhs))]
        # Phase 1 minimises the sum of the artificials: minus the sum of the
        # constraint rows, plus their artificial unit slots.
        units = ((1 << k * n) - 1) // mask << k * ncols
        phase2 = sum([v << k * j for j, v in enumerate(cost) if v])
        self.start = [phase2, units - sum(packed)]
        span = self.span = k * (n + 2)
        col_mask = self.col_mask = (1 << span) - 1
        self.col_offset = half * (col_mask // mask)
        # Y's slots (slot 0 of every block column), and the block's offset.
        spread = ((1 << span * (n + 1)) - 1) // col_mask
        self.stride, self.stride_half = mask * spread, half * spread
        self.block_offset = self.col_offset * spread
        # The identity, then b and its negated sum in the right-hand side.
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
        span, col_mask, ncols = self.span, self.col_mask, self.ncols
        u = self.block + self.block_offset
        if q >= ncols:  # an artificial column is its block column
            f = (u >> span * (q - ncols) & col_mask) - self.col_offset
        else:
            f = total = 0
            for r, s in zip(self.coords, self.signs):
                v = r[q]
                if v:
                    v *= s
                    total += v
                    f += v * (u & col_mask)
                u >>= span
            # u & col_mask is a block column plus col_offset; the cost rows
            # start with c[q] and -total.
            k = self.k
            f += (self.d * (self.cost[q] - (total << k)) << k * self.n) - total * self.col_offset
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
    the optimum), exact, as integers over one denominator (Results).  A
    is a sequence of rows or a PackedMatrix, repacked in place if its
    width is not the solve's.  Every entry of A, b and c must be an int
    (a bool is not one), b must have one entry per row of A and every
    row one entry per entry of c; otherwise SolverInvariantError names
    the offending row, or the cost row.  A PackedMatrix's own entries
    are not checked again.
    """
    packed = isinstance(a, PackedMatrix)
    nrows = len(a.coords if packed else a)
    ncols = len(c)
    if len(b) != nrows:
        raise SolverInvariantError(f"LP has {nrows} rows but {len(b)} right-hand sides")
    if not {int}.issuperset(map(type, c)):
        raise SolverInvariantError("LP cost row has an entry that is not an int")
    for i, bi in enumerate(b):
        row = () if packed else a[i]
        width = a.ncols if packed else len(row)
        if width != ncols:
            raise SolverInvariantError(f"LP row {i} has {width} entries, not {ncols}")
        if type(bi) is not int or not {int}.issuperset(map(type, row)):
            raise SolverInvariantError(f"LP row {i} has an entry that is not an int")
    t = _Tableau(a if packed else PackedMatrix(a, ncols), b, c)

    status = _run_phase(t, ncols + nrows)
    if status != OPTIMAL:
        raise SolverInvariantError(f"phase 1 ended {status}; it is bounded below by 0")
    # The phase-1 right-hand side is minus the sum of the artificials, times D.
    if t.entry(nrows + 1, nrows) != 0:
        return LpResult(INFEASIBLE, None, None, None, None)
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
        return LpResult(UNBOUNDED, None, None, None, None)

    x = [0] * ncols
    for i, j in enumerate(t.basis):
        if j < ncols:
            x[j] = t.entry(i, nrows)
    dual = tuple([-s * t.entry(nrows, i) for i, s in enumerate(t.signs)])
    return LpResult(OPTIMAL, t.d, tuple(x), -t.entry(nrows, nrows), dual)
