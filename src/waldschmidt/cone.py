"""Exact rational linear programming over the effective cone.

Membership, nef testing, the Waldschmidt constant as an exact LP with a
machine-checkable certificate, the initial degree, and the two-variable
Chudnovsky inequality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import ceil, gcd, lcm
from operator import add, mul
from typing import Sequence

from ._record import Record
from .config import (  # noqa: F401  validate_config is re-exported
    SurfaceConfig,
    check_multiplicities,
    effective_generators,
    proximity_check,
    validate_config,
)
from .errors import (
    BoundingFailureError,
    ConfigurationError,
    InfeasibleConeError,
    ProximityViolationError,
    RankMismatchError,
    SolverInvariantError,
    WaldschmidtError,
)
from .lattice import DivisorClass, _prechecked, format_class, line_class, pairing, parse_class
from .simplex import INFEASIBLE, OPTIMAL, PackedMatrix, solve_lp


class Certificate(Record):
    """Exact optimality certificate for a Waldschmidt constant d/m.

    The decomposition shows d*L - m*E_Z effective (cone membership); the
    nef class F with (d*L - m*E_Z).F = 0 shows no smaller ratio is ever
    effective.  Everything is re-checkable from the fields alone; to_dict
    spells each coefficient as the Fraction's str, "p/q" or "p".
    """

    __slots__ = _fields = ("d", "m", "multiplicities", "decomposition", "nef")
    d: int
    m: int
    multiplicities: tuple[int, ...]
    decomposition: tuple[tuple[DivisorClass, Fraction], ...]
    nef: DivisorClass

    @property
    def value(self) -> Fraction:
        return Fraction(self.d, self.m)

    def target(self) -> DivisorClass:
        """d*L - m*E_Z as a lattice class."""
        coeffs = [self.d] + [-self.m * mi for mi in self.multiplicities]
        return DivisorClass(tuple(coeffs))

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "multiplicities": list(self.multiplicities),
            "decomposition": [
                {"generator": format_class(g), "coefficient": str(c)}
                for g, c in self.decomposition
            ],
            "nef": format_class(self.nef),
        }


def certificate_from_dict(data: dict, r: int) -> Certificate:
    """Inverse of `Certificate.to_dict`; malformed data raises ConfigurationError."""
    try:
        decomposition = tuple(
            (parse_class(item["generator"], r),
             Fraction(_typed(item["coefficient"], (int, str), "coefficient")))
            for item in data["decomposition"]
        )
        return Certificate(
            d=_typed(data["d"], (int,), "d"),
            m=_typed(data["m"], (int,), "m"),
            multiplicities=tuple(
                _typed(x, (int,), "multiplicity") for x in data["multiplicities"]
            ),
            decomposition=decomposition,
            nef=parse_class(data["nef"], r),
        )
    except KeyError as exc:
        raise ConfigurationError(f"certificate lacks the key {exc}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"malformed certificate: {exc}") from exc


def _typed(value, types: tuple[type, ...], name: str):
    """`value` if its exact type is one of `types` (so a bool is no int)."""
    if type(value) not in types:
        raise ConfigurationError(f"certificate {name} {value!r} has the wrong type")
    return value


def cone_membership(
    D: DivisorClass, generators: Sequence[DivisorClass]
) -> dict[DivisorClass, Fraction] | None:
    """Nonnegative rational coefficients with sum(c_g * g) = D, or None.

    Solved as an exact-rational feasibility LP.
    """
    r = D.r
    if any(g.r != r for g in generators):
        raise ConfigurationError("generator rank mismatch")
    if not generators:
        return {} if D.is_zero() else None
    res = solve_lp(list(zip(*[g.coeffs for g in generators])), D.coeffs, [0] * len(generators))
    if res.status not in (OPTIMAL, INFEASIBLE):
        raise SolverInvariantError(f"feasibility LP ended {res.status}")
    return None if res.status == INFEASIBLE else {g: q for g, q in zip(generators, res.x) if q}


@cache
def _signed_bounding_class(r: int) -> tuple[int, ...]:
    """A = (3*2^r)*e0 - sum 2^(r-i)*e_i with its point coefficients negated.

    A has positive degree on every candidate class, and with this sign
    A.c is the dot product of the tuple with c.coeffs.
    """
    return (3 * 2**r,) + tuple(2 ** (r - i) for i in range(1, r + 1))


def _excluded(coeffs: tuple[int, ...], prep: _Prepared) -> bool:
    """True when the class D with these coefficients is proved to be no
    nonnegative integer sum of the generators `prep` was built from;
    False means inconclusive.

    D itself is never rebuilt: a step D <- D - t*C updates its line
    degree, its A-degree, its square and its packed pairings `dots`.
    """
    if prep.steps is None:  # a configuration's record, on its first target
        prep.prepare_search()
    d0, adeg = coeffs[0], sum(map(mul, prep.bound, coeffs))
    if d0 < 0 or adeg < 0:
        return True
    if prep.root is not None:
        g0, cap = prep.root
        if -sum(coeffs[1:]) * g0 > cap * d0:
            return True
    limit = sum(map(mul, map(abs, coeffs), prep.cmax)) + max(adeg, 1) * prep.pmax
    if limit >= prep.half:
        prep.widen(limit)  # limit >= pmax, so prep.row() never widens below
    k, half, offset, forced, degs = prep.k, prep.half, prep.offset, prep.forced, prep.degs
    mask = (1 << k) - 1
    dd = 2 * d0 * d0 - sum(map(mul, coeffs, coeffs))
    dots = sum(map(mul, coeffs, prep.cols))
    while d0 >= 0 and adeg >= 0:
        biased = dots + offset
        negative = offset & ~biased
        if not negative:
            # D = 0 has square 0, so a negative square also means D != 0.
            return dd < 0
        i = (negative & -negative).bit_length() // k - 1
        row = prep.row(i)
        if not forced[i]:
            return False
        cc = ((row + offset) >> k * i & mask) - half
        dc = (biased >> k * i & mask) - half
        t = -(dc // -cc)  # ceil(D.C / C.C)
        d0 -= t * prep.coeffs[i][0]
        adeg -= t * degs[i]
        dd += t * (t * cc - 2 * dc)
        dots -= t * row
    return True


class _Prepared(PackedMatrix):
    """The packed record of a generator list.  Its columns are the
    generators, coefficient tuples `coeffs`, then the LP's column -e0 if
    given, which `offset` (2**(k-1) in each generator slot) masks away.
    The LP reads it as A at the LP's own width; the nef check (_negative)
    and the monoid oracle (_excluded) read `cols`, `rows` with rows 1..
    negated, so that sum(c_l * cols[l]) packs c.g for every column g, and
    widen it when their bound needs more.  `pmax` is the sum of the
    cmax[l]**2.  Built on first use: row() packs each pairing row of
    `packed` and sets its `forced` flag (widen() drops every row),
    prepare_search() the search parts (`steps` is None until then), and
    symmetry() the points' partition `heads` (None until then)."""

    __slots__ = ("coeffs", "pmax", "packed", "forced", "offset", "cols",
                 "bound", "degs", "root", "steps", "order", "heads")

    def __init__(self, key: tuple[tuple[int, ...], ...], lp_column: tuple | None = None) -> None:
        cols = key if lp_column is None else [*key, lp_column]
        super().__init__(list(zip(*cols)), len(cols))
        self.coeffs = key
        self.pmax = sum(map(mul, self.cmax, self.cmax))
        self.packed: list[int | None] = [None] * len(key)
        self.forced = [False] * len(key)
        self.steps: tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...] | None = None
        self.heads: list[int] | None = None

    def prepare_search(self) -> _Prepared:
        """The input checks and search parts of monoid_membership; raises if malformed."""
        key = self.coeffs
        if len({len(c) for c in key}) > 1:
            raise ConfigurationError("generator rank mismatch")
        bound = _signed_bounding_class(len(key[0]) - 1)
        degs = tuple([sum(map(mul, bound, c)) for c in key])
        if min(degs) < 1:
            raise BoundingFailureError(
                "no bounding functional is positive on every generator: "
                + ", ".join(
                    format_class(DivisorClass(c)) for c, d in zip(key, degs) if d < 1
                )
            )
        positive, zero = [], []
        for p, c in enumerate(key):
            if c[0] > 0:
                positive.append((p, -sum(c[1:])))  # need_drop
            elif c[0] == 0:
                zero.append(p)
            else:
                raise BoundingFailureError("generator with negative line degree")
        # By leading index, that of the first nonzero point coefficient.
        zero.sort(key=lambda p: next(i for i, a in enumerate(key[p][1:], start=1) if a))
        # Each unit of line degree spent on generator g lowers the need (minus
        # the sum of the point coefficients) by at most need_drop(g) / g0.
        # Sorted, these tuples run by descending ratio (scaled to integers by
        # den), then coefficients, then input position; positions differ, so
        # nothing after them is compared.
        den = lcm(*[key[p][0] for p, _ in positive])
        ranked = sorted((-nd * (den // key[p][0]), key[p], p, nd) for p, nd in positive)
        # The bounding class A, signed so that A.c is a dot product with c.
        self.bound = bound
        self.degs = degs  # A-degree of each generator
        # The first step's (g0, max(need_drop, 0)), or (1, 0); None when a
        # degree-zero generator has need_drop > 0.
        root = (ranked[0][1][0], max(ranked[0][3], 0)) if ranked else (1, 0)
        self.root = None if any(sum(key[p][1:]) < 0 for p in zero) else root
        # The ranked positive-degree generators, then the degree-zero ones by
        # leading index: each step's generator position, and its (coefficients,
        # A-degree, cap indices), the l with g_l != 0 and no later coefficient
        # at l of the opposite sign; later[l] holds the signs (> 0) seen at l.
        self.order = tuple([t[2] for t in ranked] + zero)
        later: list[set[bool]] = [set() for _ in key[0]]
        steps = []
        for p in reversed(self.order):
            c = key[p]
            caps = [l for l, a in enumerate(c) if a and (a < 0) not in later[l]]
            steps.append((c, degs[p], tuple(caps)))
            for l, a in enumerate(c):
                if a:
                    later[l].add(a > 0)
        self.steps = tuple(steps[::-1])
        return self

    def symmetry(self) -> list[int]:
        """heads[i - 1], the first point of point i's block: points i and j
        share a block when swapping coordinates i and j maps the set of
        generator coefficient tuples to itself.  The relation is an
        equivalence, as (i k) = (i j)(j k)(i j), so j joins the first block
        whose first point it swaps with, or starts one.  With 2**(k-1) above
        every |coefficient|, the code sum(g_l * 2**(k*l)) of a tuple g is
        one-to-one, and the swap adds (g_j - g_i) * (2**(k*i) - 2**(k*j)):
        it maps the set to itself exactly when it maps it into itself."""
        if self.heads is None:
            coords = self.coords
            k = max(self.cmax).bit_length() + 1
            w = [1 << k * l for l in range(len(coords))]
            codes = [sum(map(mul, g, w)) for g in self.coeffs]
            known = set(codes)
            firsts: list[int] = []
            heads = []
            for j in range(1, len(coords)):
                for i in firsts:
                    shift = w[i] - w[j]
                    if known.issuperset([c + (y - x) * shift
                                         for c, x, y in zip(codes, coords[i], coords[j]) if x != y]):
                        break
                else:
                    i = j
                    firsts.append(j)
                heads.append(i)
            self.heads = heads
        return self.heads

    def row(self, i: int) -> int:
        """Generator i's pairing row, packed and its forced flag set on
        first use at the record's width.  A first use widens the record if
        2**(k-1) <= pmax, which bounds every pairing of two generators."""
        row = self.packed[i]
        if row is None:
            if self.half <= self.pmax:
                self.widen(self.pmax)
            c = self.coeffs[i]
            row = self.packed[i] = sum(map(mul, c, self.cols))
            k, half, offset = self.k, self.half, self.offset
            copies = sum([half << k * j for j, h in enumerate(self.coeffs) if h == c])
            self.forced[i] = (offset & ~(row + offset)) == copies
        return row

    def widen(self, limit: int) -> None:
        """PackedMatrix.widen, then the signed rows; drops the pairing rows."""
        super().widen(limit)
        k, (first, *rest) = self.k, self.rows
        self.cols = (first, *[-row for row in rest])  # signed as lattice.pairing
        self.offset = self.half * (((1 << k * len(self.coeffs)) - 1) // ((1 << k) - 1))
        self.packed = [None] * len(self.coeffs)


def _key(generators: Sequence[DivisorClass]) -> tuple[tuple[int, ...], ...]:
    """The coefficient tuples of `generators`: _prepare's cache key."""
    # From a list, not a generator, as is every tuple _prepare builds:
    # tuple() over a generator resizes its result, and CPython then keeps
    # the resized tuples on its free lists, 1.5 MB of peak RSS over the
    # benchmark's monoid-window workload.
    return tuple([g.coeffs for g in generators])


@lru_cache(maxsize=1)
def _prepare(key: tuple[tuple[int, ...], ...]) -> _Prepared:
    """Check the nonempty generator list with coefficient tuples `key` and
    build its _Prepared record; raises as documented in monoid_membership."""
    return _Prepared(key).prepare_search()


def _record(cfg: SurfaceConfig) -> _Prepared:
    """cfg's record of its generators and the LP's column -e0, kept on cfg as
    `report` is: the one fetch of the generators.  An invalid cfg raises, keeping none."""
    if "_record" not in cfg.__dict__:
        cfg.__dict__["_record"] = _Prepared(_key(effective_generators(cfg)), (-1,) + (0,) * cfg.r)
    return cfg.__dict__["_record"]


def monoid_membership(
    D: DivisorClass, generators: Sequence[DivisorClass]
) -> dict[DivisorClass, int] | None:
    """Nonnegative integer coefficients with sum(c_g * g) = D, or None.

    The empty list sums to the zero class only.  Otherwise the list's
    record (_Prepared) holds what the list alone fixes: every input check
    but the rank of D, the bounding class, the A-degrees, the root test's
    ratio, the ordered search steps and the pairing rows.  _prepare keeps
    the last list's record only, keyed by value, so a list mutated in
    place is prepared again; lru_cache never stores an exception, so a
    malformed list raises on every call whatever D is.  alpha_degree
    reads its configuration's own record instead.  _member answers in the
    record's positions, mapped here to the caller's generator objects.  Each
    target runs the rank check of D, the exclusion (_excluded), the only
    proof of absence, and the search for the witness.

    Input checks.  The bounding class A = (3*2^r)e0 - sum 2^(r-i) e_i
    must pair >= 1 with every generator, and every generator must have
    line degree g0 >= 0.  They run before any answer, so a malformed
    list raises whatever D is.

    Exclusion.  Each step below proves D is no sum, ends inconclusive,
    or hands the next step a D that is a sum exactly when the old one
    is; only the bilinearity of the intersection pairing is used.
    - D0 < 0 or A.D < 0: D is no sum, since every generator has g0 >= 0
      and A-degree >= 1.
    - Root test.  Write need(D) = -(D1 + ... + Dr) and need_drop(g) =
      need(g) for a generator g.  Unless a degree-zero generator has
      positive need_drop (then `root` is None and the test is skipped),
      take the first search step's g0 and cap = max(need_drop, 0), or
      (g0, cap) = (1, 0) when no generator has g0 > 0.  The steps of
      positive degree run by descending need_drop/g0, so every generator
      h with h0 > 0 has need_drop(h) * g0 <= cap * h0, and every
      degree-zero h has need_drop(h) * g0 <= 0 = cap * h0.  Both sides
      are linear, so any sum D has need(D) * g0 <= cap * D0, and a D
      with need * g0 > cap * D0 is no sum.
    - Forced curves, repeated while D0 >= 0 and A.D >= 0: take the first
      generator C with D.C < 0.  If C is forced, that is C.C < 0 and
      C.h >= 0 for every generator h with other coefficients, write a
      sum as D = sum n_g g; then D.C = n_C C.C + sum_{h != C} n_h h.C >=
      n_C C.C, where n_C counts all copies of C, so n_C >= t =
      ceil(D.C / C.C).  D is a sum exactly when D - t*C is, so D becomes
      D - t*C.  Each step lowers A.D by t*A.C >= 1, so the loop ends.
      If that C is not forced, the exclusion is inconclusive.
    - If no generator pairs negatively with D, a sum has D.D = sum n_g
      D.g >= 0, so D != 0 with D.D < 0 is no sum; otherwise inconclusive.
    D's pairings with the generators are one packed int, `dots`, the
    sum of D_l times the record's signed row l, with D.g_j in the k-bit
    slot j (the layout of simplex.py).  A step D <- D - t*C is
    `dots -= t * row(C)`, C's row of pairings C.h_j packed the same way
    when a target first reaches C and kept until the record widens.
    The first generator with D.g < 0 is the lowest set bit of
    offset & ~(dots + offset) (simplex.py, "Reading slots"), and C.C is
    slot i of row i.  The same mask of C's row marks the h_j with
    C.h_j < 0; every copy of C pairs C.C with C, so C is forced exactly
    when that mask is the set of slots of C's copies.  A target the
    exclusion proves absent gets None at once; the rest go to the search.

    Slot width.  Reading slot j needs its value in [-2**(k-1), 2**(k-1)).
    With c_l = cmax[l] >= |g_l| for every generator g, every pairing of
    two generators has |C.h| <= sum_l c_l^2 = P, which covers the rows.
    The exclusion reads `dots` only at a loop top, where D0 >= 0 and A.D >= 0.
    Every subtraction has t >= 1 (D.C < 0 and C.C < 0) and A.C >= 1
    (input checks), so at a loop top, after subtracting t_s C_s from the
    target D_0, sum t_s <= sum t_s A.C_s = A.D_0 - A.D <= A.D_0.  As
    |D_0.g| <= sum_l |D_0,l| c_l, D = D_0 - sum t_s C_s has |D.g| <=
    sum_l |D_0,l| c_l + (A.D_0) P.  So every slot read, of `dots` or of
    a row, is at most B = sum_l |D_0,l| c_l + max(A.D_0, 1) P in
    absolute value.  Before its loop the exclusion widens the record, if
    needed, so that 2**(k-1) > B.  B is proven from the list and the
    target, never taken from sizes seen in runs; packed sums are exact
    whatever their slots hold, so only reading needs it.

    Search: one depth-first search for the witness over one ordered step
    list, pruned by the exclusion alone.  The steps are the
    positive-degree generators g, sorted by descending ratio
    need_drop(g)/g0, then by coefficient tuple, then by input position,
    so repeated generators keep their order; then the degree-zero
    generators, stably sorted by leading index.  Each step g takes a
    multiplicity lam from its start down to 0.  The start is the least
    of A.R // A.g (R the residual) and of R_l // g_l over every index l,
    line degree included, with g_l != 0 and no later step's coefficient
    at l of the opposite sign: a leaf below needs phi(R - lam*g) >= 0
    for every functional phi >= 0 on all later steps, as R - lam*g is a
    sum of them; A and x -> sign(g_l)*x_l are such, and A.g >= 1 keeps
    the start finite.  A nonzero child with lam > 0 is entered only if
    the exclusion does not prove it absent; the lam = 0 child is the
    residual itself, already open.  A zero residual is a leaf, entered
    without the exclusion, and the first leaf found is the answer.  The
    start and the exclusion skip only subtrees without a leaf, so the
    answer is the lexicographically greatest multiplicity vector in step
    order.  tests/golden/monoid-witnesses.json pins the witnesses.
    """
    key = _key(generators)
    if not key:
        return {} if D.is_zero() else None
    if len(key[0]) != len(D.coeffs):
        raise ConfigurationError("generator rank mismatch")
    found = _member(D.coeffs, _prepare(key))
    return None if found is None else {generators[p]: n for p, n in found}


def _member(target: tuple[int, ...], prep: _Prepared) -> list[tuple[int, int]] | None:
    """monoid_membership on a record and a target's coefficient tuple: the
    witness as (position in the record, multiplicity) pairs, or None."""
    if _excluded(target, prep):  # which builds the search parts on first use
        return None

    steps, bound = prep.steps, prep.bound
    last = len(steps)
    chosen = [0] * last

    def rec(idx: int, res: tuple[int, ...], ares: int) -> int | None:
        """The depth of the first leaf below the open residual res, of A-degree ares."""
        if not any(res):
            return idx
        if idx == last:
            return None
        coeffs, adeg, caps = steps[idx]
        # lam from its start (monoid_membership, "Search") down to 0; a child
        # with lam > 0 is entered if zero, a leaf, or not excluded.
        lam = ares // adeg
        for l in caps:
            lam = min(lam, res[l] // coeffs[l])
        while lam > 0:
            child = tuple([x - lam * a for x, a in zip(res, coeffs)])
            if not any(child) or not _excluded(child, prep):
                chosen[idx] = lam
                depth = rec(idx + 1, child, ares - lam * adeg)
                if depth is not None:
                    return depth
            lam -= 1
        chosen[idx] = 0
        return rec(idx + 1, res, ares)

    depth = rec(0, target, sum(map(mul, bound, target)))
    if depth is None:
        return None
    return [(p, n) for p, n in zip(prep.order, chosen[:depth]) if n]


def is_nef(F: DivisorClass, cfg: SurfaceConfig) -> bool:
    """True iff F pairs nonnegatively with every effective-cone generator."""
    return not _negative(F.coeffs, _record(cfg))


def _negative(f: tuple[int, ...], prep: _Prepared) -> list[int]:
    """The positions, in order, of the record's generators g with F.g < 0 for
    F = sum f_l e_l: one packed sum, widened to hold |F.g| <= sum |f_l| cmax[l]."""
    if len(f) != len(prep.cmax):
        raise RankMismatchError(f"rank mismatch: {len(f) - 1} vs {len(prep.cmax) - 1}")
    limit = sum(map(mul, map(abs, f), prep.cmax))
    if limit >= prep.half:
        prep.widen(limit)
    negative = prep.offset & ~(sum(map(mul, f, prep.cols)) + prep.offset)
    found = []
    while negative:
        low = negative & -negative
        found.append(low.bit_length() // prep.k - 1)
        negative ^= low
    return found


def _require_valid(cfg: SurfaceConfig, m: Sequence[int]) -> tuple[tuple[int, ...], _Prepared]:
    """Checked multiplicities, and the record of `cfg`."""
    prep = _record(cfg)
    mm = check_multiplicities(m, cfg.r)
    if cfg.proximity is not None:
        slacks, ok = proximity_check(mm, cfg.proximity)
        if not ok:
            raise ProximityViolationError(
                f"multiplicities {mm} violate the proximity inequalities "
                f"(slacks {slacks}); the cone computation would not equal "
                "the Waldschmidt constant"
            )
    return mm, prep


def waldschmidt(
    cfg: SurfaceConfig, m: Sequence[int]
) -> tuple[Fraction, Certificate]:
    """The Waldschmidt constant of m_1 p_1 + ... + m_r p_r, with certificate.

    Solves min t with t*e0 - sum(m_i e_i) in the rational cone of the
    effective-cone generators.  By homogeneity the rational optimum
    equals the infimum of d/m over effective d*L - m*E_Z and is
    attained.  The simplex dual yields a nef class F orthogonal to the
    optimal class, which pins the value exactly.
    """
    return _solve(*_require_valid(cfg, m))


def _solve(mm: tuple[int, ...], prep: _Prepared) -> tuple[Fraction, Certificate]:
    """waldschmidt on checked multiplicities, solved in the quotient by the
    points' symmetry where that halves the LP's rows.

    Symmetry.  Refine the blocks of prep.symmetry() by equal m_i, and let
    G be the permutations of the points within each refined block.  G is
    generated by transpositions that map the generator set (-K included)
    to itself and fix m, so it permutes the LP's columns and fixes its
    target.  Project a class D to pi(D) = (D_0, sum_{i in b} D_i for each
    block b).  A G-invariant class is constant on each block, so it is
    fixed by its line degree and its block sums: pi is one-to-one on
    invariant classes.  The quotient LP has a column for each distinct
    projection pi(g) of a generator, in the record order of its first
    generator, then pi(-e0) = -e0, and the target (0, -m_b*|b| for each
    b).  The two LPs have the same value:
    - Quotient <= record: averaging an optimal decomposition over G gives
      an optimal one whose terms are orbit averages avg_G(g).  Each is
      invariant and projects to pi(g), as pi is linear and G-invariant,
      so applying pi gives a quotient solution of the same value.
    - Record <= quotient: the lift below turns every quotient solution
      into a record solution of the same value.

    When.  The quotient has one row per block after the line degree.  It
    is taken when 2*(blocks + 1) <= r + 1, that is when it at least
    halves the rows; a smaller saving does not repay the projection and
    the lift on the small catalog LPs.  Otherwise the record itself is
    the LP, the quotient by singleton blocks, and is solved as it is.

    Lift.  A column's coefficient is spread evenly over the G-orbit of its
    first generator g: the generators with g's projection and g's sorted
    restriction to every block.  The record repeats no generator, so
    those terms sum to the coefficient times avg_G(g), the invariant
    class projecting to pi(g), and all terms sum to the invariant class
    projecting to the quotient target: the target itself.  With the
    quotient's dual y, F = (-y_0, y_b on every point of b) is constant on
    blocks, so F.g = -y.pi(g) for every generator g, which is >= 0 as
    pi(g)'s reduced cost is.  By strong duality y.target = t, and with
    y_0 = -1 this gives F.(t*e0 - sum m_i e_i) = t + sum_b y_b*m_b*|b| =
    t - t = 0.

    Certificate, in integers from the LP's numerators over D: with
    t = e/D and g = gcd(e, D), d = e/g and m = D/g, a column's
    coefficient is x_j/g, spread over its orbit, and once y_0 is -D (its
    entry -1) the nef class is (D, y_1, ..., y_r) made primitive."""
    r = len(mm)
    if all(x == 0 for x in mm):
        return Fraction(0), Certificate(
            d=0, m=1, multiplicities=mm, decomposition=(), nef=line_class(r)
        )
    coeffs, n = prep.coeffs, len(prep.coeffs)
    # Columns: the generators, then -e0 for the line degree t (the record's).
    a, target, cost, groups = prep, (0,) + tuple([-x for x in mm]), [0] * n + [1], None
    # The distinct m_i bound the blocks from below, so a query that cannot
    # take the quotient does not read the symmetry.
    if 2 * (len(set(mm)) + 1) <= r + 1:
        keys = list(zip(prep.symmetry(), mm))
        if 2 * (len(set(keys)) + 1) <= r + 1:
            groups = {}
            for i, key in enumerate(keys, start=1):
                groups.setdefault(key, []).append(i)
            coords = prep.coords
            sums = [coords[0]]
            for first, *rest in groups.values():
                row = coords[first]
                for i in rest:
                    row = list(map(add, row, coords[i]))
                sums.append(row)
            # Each distinct projection's generators, in record order.
            fibres: dict[tuple[int, ...], list[int]] = {}
            for h, col in zip(range(n), zip(*sums)):
                fibres.setdefault(col, []).append(h)
            a = list(zip(*fibres, (-1,) + (0,) * len(groups)))
            target = (0,) + tuple([-x * len(b) for (_, x), b in groups.items()])
            cost = [0] * len(fibres) + [1]
    res = solve_lp(a, target, cost)
    if res.status == INFEASIBLE:
        raise InfeasibleConeError(
            "no multiple of the line class dominates E_Z over these generators"
        )
    if res.status != OPTIMAL:
        raise SolverInvariantError(f"Waldschmidt LP ended {res.status}")
    den, e, (y0, *ys) = res.den, res.x_num[-1], res.dual_num
    if e <= 0:
        raise SolverInvariantError(
            f"optimal line degree {Fraction(e, den)} is not positive for nonzero multiplicities"
        )
    if y0 != -den:
        raise SolverInvariantError(
            f"line-degree dual variable is {Fraction(y0, den)}, not -1: it must be tight"
        )
    g = gcd(e, den)
    if groups is None:
        decomposition = tuple([(_prechecked(c), Fraction(v, g))
                               for c, v in zip(coeffs, res.x_num) if v])
    else:
        wide = [b for b in groups.values() if len(b) > 1]

        def shape(h: int) -> list[list[int]]:
            c = coeffs[h]
            return [sorted([c[i] for i in b]) for b in wide]

        spread = []
        for same, v in zip(fibres.values(), res.x_num):
            if v:
                key = shape(same[0])
                orbit = [h for h in same if shape(h) == key]
                q = Fraction(v, g * len(orbit))
                spread += [(h, q) for h in orbit]
        spread.sort()  # into record order; the positions differ
        decomposition = tuple([(_prechecked(coeffs[h]), q) for h, q in spread])
        block_ys = dict(zip(groups, ys))
        ys = [block_ys[key] for key in keys]
    h = gcd(den, *ys)
    nef = DivisorClass(tuple([den // h] + [y // h for y in ys]))
    return Fraction(e, den), Certificate(e // g, den // g, mm, decomposition, nef)


def verify_certificate(cert: Certificate, cfg: SurfaceConfig) -> bool:
    """Independently re-check a certificate; never raises.

    True exactly when certificate_failures finds no failed condition;
    False also when the configuration itself is invalid.
    """
    try:
        return not certificate_failures(cert, cfg)
    except WaldschmidtError:
        return False


def certificate_failures(cert: Certificate, cfg: SurfaceConfig) -> list[str]:
    """Each condition the certificate fails, named; empty when it verifies.

    Conditions: d is an int >= 0 and m an int > 0; the multiplicities are
    a tuple or list of ints, one per point; the decomposition is a
    sequence of (generator, coefficient) pairs whose generators are
    DivisorClass objects among the configuration's generators and whose
    coefficients are nonnegative ints or Fractions, and it sums to
    d*L - m*E_Z, checked in integers scaled by the lcm of the
    denominators; F is a DivisorClass of rank r, nonzero and nef;
    (d*L - m*E_Z).F = 0.  A field of the wrong type (a bool or float is
    no int) is named as a failure, and the conditions that need it are
    skipped.  Raises ConfigurationError if `cfg` is invalid.
    """
    prep = _record(cfg)
    r = cfg.r
    failures = []
    d, m, mults, decomposition, nef = (
        cert.d, cert.m, cert.multiplicities, cert.decomposition, cert.nef
    )
    typed = type(d) is int and type(m) is int  # then d*L - m*E_Z can be formed
    if type(d) is not int:
        failures.append(f"degree d = {d!r} is not an int")
    elif d < 0:
        failures.append(f"degree d = {d} is negative")
    if type(m) is not int:
        failures.append(f"multiplicity scale m = {m!r} is not an int")
    elif m <= 0:
        failures.append(f"multiplicity scale m = {m} is not positive")
    try:
        pairs = [(g, q) for g, q in decomposition]
    except (TypeError, ValueError):
        failures.append(
            f"decomposition {decomposition!r} is not a sequence of "
            "(generator, coefficient) pairs"
        )
        pairs = None
    # The decomposition's coefficient tuples that are generators'.  Not a set
    # of the generators' tuples: hash(-1) == hash(-2), so at r=8 their 241
    # tuples share 111 hashes, and building that set costs four times this.
    known = {
        g.coeffs for g, _ in pairs or () if isinstance(g, DivisorClass)
    }.intersection(prep.coeffs)
    terms = []
    for g, q in pairs or ():
        if not isinstance(g, DivisorClass):
            failures.append(f"decomposition generator {g!r} is not a DivisorClass")
        elif g.coeffs not in known:
            failures.append(f"{format_class(g)} is not an effective-cone generator")
        elif type(q) not in (int, Fraction):
            failures.append(f"{format_class(g)} has coefficient {q!r}, not an int or a Fraction")
        else:
            if q.numerator < 0:
                failures.append(f"{format_class(g)} has negative coefficient {q}")
            terms.append((g.coeffs, q))
    if not isinstance(mults, (tuple, list)) or not {int}.issuperset(map(type, mults)):
        failures.append(f"multiplicities {mults!r} are not a tuple or list of ints")
        typed = False
    elif len(mults) != r:
        failures.append(f"{len(mults)} multiplicities for {r} points")
        typed = False
    target = cert.target() if typed else None
    if target is not None and pairs is not None:
        # The sum times the lcm of the denominators, in integers.
        scale = lcm(*[q.denominator for _, q in terms])
        acc = [0] * (r + 1)
        for coeffs, q in terms:
            w = q.numerator * (scale // q.denominator)
            acc = [x + w * a for x, a in zip(acc, coeffs)]
        if acc != [scale * v for v in target.coeffs]:
            failures.append(
                "decomposition sums to ["
                + ",".join(str(Fraction(v, scale)) for v in acc)
                + f"], not d*L - m*E_Z = {format_class(target)}"
            )
    if not isinstance(nef, DivisorClass):
        failures.append(f"nef class {nef!r} is not a DivisorClass")
        return failures
    if nef.r != r:
        failures.append(f"nef class {format_class(nef)} has rank {nef.r}, not {r}")
        return failures
    if nef.is_zero():
        failures.append("nef class is zero")
    negative = [format_class(_prechecked(prep.coeffs[j])) for j in _negative(nef.coeffs, prep)]
    if negative:
        failures.append(
            f"nef class {format_class(nef)} pairs negatively with " + ", ".join(negative)
        )
    dot = 0 if target is None else pairing(target, nef)
    if dot != 0:
        failures.append(f"(d*L - m*E_Z).F = {dot}, not 0")
    return failures


def alpha_degree(cfg: SurfaceConfig, m: Sequence[int]) -> int:
    """Least d >= 0 with d*L - E_Z(m) in the integer effective monoid."""
    mm, prep = _require_valid(cfg, m)
    return _alpha(mm, prep, _solve(mm, prep)[0])


def _alpha(mm: tuple[int, ...], prep: _Prepared, value: Fraction) -> int:
    """alpha_degree, scanning d upward from the Waldschmidt constant `value`
    with the monoid search (_member) on the configuration's record."""
    hi = sum(mm) + 1
    for d in range(ceil(value), hi + 1):
        if _member(tuple([d] + [-x for x in mm]), prep) is not None:
            return d
    raise InfeasibleConeError(
        f"no degree up to {hi} makes the class effective; "
        "configuration is not geometric"
    )


def chudnovsky_check(cfg: SurfaceConfig, m: Sequence[int]) -> bool:
    """alpha_hat >= (alpha + 1)/2, evaluated exactly (two variables).

    The zero multiplicity vector passes by convention.
    """
    mm, prep = _require_valid(cfg, m)
    if all(x == 0 for x in mm):
        return True
    value, _ = _solve(mm, prep)
    return value >= Fraction(_alpha(mm, prep, value) + 1, 2)
