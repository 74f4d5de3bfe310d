"""Shared test fixtures and independent oracles."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from waldschmidt.config import SurfaceConfig, effective_generators
from waldschmidt.cone import Certificate, monoid_membership
from waldschmidt.lattice import DivisorClass, pairing, parse_classes


def replaced(obj, **changes):
    """A new record of obj's class from its fields with `changes` applied,
    built through the constructor as dataclasses.replace builds one."""
    return type(obj)(**{name: getattr(obj, name) for name in obj._fields} | changes)


def packed_int(values, k: int) -> int:
    """sum(values[j] * 2**(k*j)): the values in k-bit slots, the first
    lowest, by plain shifts, as a reference for the package's packer."""
    return sum(v << k * j for j, v in enumerate(values))


def fraction_certificate(res, gens, mm) -> Certificate:
    """The certificate of the Waldschmidt LP result `res`, built from its
    Fraction views as cone._solve once did, as a reference for its
    integer path: t = d/m in lowest terms, each nonzero coefficient q of
    generator g as m*q, and the nef class from the dual (-1, y_1, ...,
    y_r) as (1, y_1, ..., y_r) scaled by the lcm of its denominators,
    then divided by the gcd of the result."""
    t = res.x[len(gens)]
    d, den = t.numerator, t.denominator
    decomposition = tuple((g, den * q) for g, q in zip(gens, res.x) if q)
    if res.dual[0] != -1:
        raise ValueError(f"line-degree dual variable is {res.dual[0]}, not -1")
    coeffs = [Fraction(1)] + list(res.dual[1:])
    scale = lcm(*(q.denominator for q in coeffs))
    ints = [int(q * scale) for q in coeffs]
    g = gcd(*ints)
    nef = DivisorClass(tuple(v // g for v in ints))
    return Certificate(d=d, m=den, multiplicities=mm, decomposition=decomposition, nef=nef)


def plain_certificate_failures(cert: Certificate, gens: list[DivisorClass]) -> list[str]:
    """The certificate conditions, checked on plain coefficient tuples with
    Fractions and the form diag(1, -1, ..., -1) written out, as a reference
    for cone.certificate_failures: d >= 0 and m > 0, each term a generator
    with a coefficient >= 0, the terms summing to d*L - m*E_Z, and the nef
    class nonzero, pairing >= 0 with every generator and 0 with that
    target."""
    def dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
        return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))

    failures = []
    if cert.d < 0 or cert.m <= 0:
        failures.append(f"bad ratio {cert.d}/{cert.m}")
    coeffs = {g.coeffs for g in gens}
    total = [Fraction(0)] * (len(cert.multiplicities) + 1)
    for g, q in cert.decomposition:
        if g.coeffs not in coeffs:
            failures.append(f"{g.coeffs} is not a generator")
        if q < 0:
            failures.append(f"{g.coeffs} has coefficient {q}")
        total = [t + q * a for t, a in zip(total, g.coeffs)]
    target = (cert.d,) + tuple(-cert.m * x for x in cert.multiplicities)
    if total != list(target):
        failures.append(f"the terms sum to {total}, not {target}")
    f = cert.nef.coeffs
    if not any(f):
        failures.append("the nef class is zero")
    failures += [f"the nef class pairs {dot(f, c)} with {c}"
                 for c in sorted(coeffs) if dot(f, c) < 0]
    if dot(f, target):
        failures.append("the nef class is not orthogonal to the target")
    return failures


def symmetry_blocks(gens: list[DivisorClass], m: tuple[int, ...]) -> list[list[int]]:
    """The points 1..r grouped as the Waldschmidt LP's symmetry quotient
    groups them, tested plainly: i and j share a block when m_i = m_j and
    swapping coordinates i and j maps the set of generator tuples to
    itself.  Blocks run by their first point."""
    tuples = {g.coeffs for g in gens}

    def swaps(i: int, j: int) -> bool:
        def swapped(c: tuple[int, ...]) -> tuple[int, ...]:
            c = list(c)
            c[i], c[j] = c[j], c[i]
            return tuple(c)

        return {swapped(c) for c in tuples} == tuples

    blocks = []
    for j in range(1, len(m) + 1):
        block = [i for i in range(1, len(m) + 1) if m[i - 1] == m[j - 1] and swaps(i, j)]
        if block not in blocks:
            blocks.append(block)
    return blocks


def brute_force_alpha_hat(
    cfg: SurfaceConfig,
    m: tuple[int, ...],
    d_max: int = 20,
    m_max: int = 12,
) -> Fraction | None:
    """min d/m over the window with d*L - m*E_Z in the integer monoid.

    Exhaustive integer search, independent of the LP optimizer: the only
    shared code is the bounded monoid membership test.
    """
    gens = effective_generators(cfg)
    best: Fraction | None = None
    for mm in range(1, m_max + 1):
        for d in range(1, d_max + 1):
            q = Fraction(d, mm)
            if best is not None and q >= best:
                continue
            target = DivisorClass(tuple([d] + [-mm * x for x in m]))
            if monoid_membership(target, gens) is not None:
                best = q
    return best


def root_rejects(D: DivisorClass, gens: list[DivisorClass]) -> bool:
    """The root test of `monoid_membership`, generator by generator.

    With need(c) = -(c1 + ... + cr): unless a degree-zero generator has
    need > 0, D is rejected when need(D) > 0 and need(D) * g0 >
    need(g) * D0 for every generator g with g0 > 0.
    """
    if any(g.coeffs[0] == 0 and sum(g.coeffs[1:]) < 0 for g in gens):
        return False
    need = -sum(D.coeffs[1:])
    return need > 0 and all(
        need * g.coeffs[0] > -sum(g.coeffs[1:]) * D.coeffs[0]
        for g in gens if g.coeffs[0] > 0
    )


def reference_exclusion(
    D: DivisorClass, gens: list[DivisorClass]
) -> tuple[bool, list[int]]:
    """The exclusion of `monoid_membership`, done plainly: (proved, reached).

    Every pairing is a `lattice.pairing` call and D is rebuilt at each
    step.  A D the root test rejects is proved absent at once.  While D
    has line degree >= 0 and A-degree >= 0 for the bounding class A, it
    takes the first generator C with D.C < 0; a C with C.C < 0 that
    pairs >= 0 with every generator other than its copies is subtracted
    ceil(D.C / C.C) times, any other C ends the search unproved.  With
    no such C, D is proved absent when D.D < 0.  `reached` lists the
    position of each C taken, in order: all were subtracted but the
    last of an unproved search.
    """
    if root_rejects(D, gens):
        return True, []
    r = D.r
    bound = DivisorClass((3 * 2**r,) + tuple(-(2 ** (r - i)) for i in range(1, r + 1)))
    reached: list[int] = []
    while D.coeffs[0] >= 0 and pairing(bound, D) >= 0:
        i = next((i for i, g in enumerate(gens) if pairing(D, g) < 0), None)
        if i is None:
            return pairing(D, D) < 0, reached
        reached.append(i)
        c = gens[i]
        if pairing(c, c) >= 0 or any(pairing(c, h) < 0 for h in gens if h != c):
            return False, reached
        t = -(pairing(D, c) // -pairing(c, c))
        D = D - t * c
    return True, reached


def cremona_nef(coeffs: tuple[int, ...]) -> bool:
    """Whether F = f0*L - f1*E_1 - ... - fr*E_r, the class with coefficient
    tuple (f0, -f1, ..., -fr), is nef on the blowup of r <= 8 general
    points, by Cremona reduction alone: it reads no NEG list.

    Sort f1 >= ... >= fr (padded with zeros to r >= 3).  If fr < 0 then
    F.E_r < 0, and if f0 < 0 then F.L < 0.  If f0 >= f1 + f2 + f3, F is in
    the fundamental chamber and nef.  Otherwise the quadratic transformation
    at p1, p2, p3, the reflection in L - E_1 - E_2 - E_3, lowers f0 and each
    of f1, f2, f3 by d = f1 + f2 + f3 - f0 > 0; it permutes the classes of
    (-1)-curves, so F is nef exactly when its image is, and f0 falls each
    round.  Nagata, On rational surfaces II (1960); Harbourne, Trans. AMS
    349 (1997); Dolgachev, Classical Algebraic Geometry (2012), ch. 8.
    """
    f0, f = coeffs[0], [-a for a in coeffs[1:]] + [0, 0, 0]
    while True:
        f.sort(reverse=True)
        if f0 < 0 or f[-1] < 0:
            return False
        d = f[0] + f[1] + f[2] - f0
        if d <= 0:
            return True
        f0, f[0], f[1], f[2] = f0 - d, f[0] - d, f[1] - d, f[2] - d


def nef_rays(cfg: SurfaceConfig) -> list[tuple[int, ...]]:
    """The extremal rays of Nef(X) over cfg's generators, by brute force,
    as primitive coefficient tuples in sorted order.

    The nef cone is cut out by F.C >= 0 for every generator C, in the
    r + 1 coordinates of the class group, so each extremal ray is the
    line F.C = 0 of some r linearly independent generators.  Each
    r-subset of full rank gives one such line, solved in Fractions; its
    two directions are kept when nef.  Exponential in the list's size:
    for the catalog only.
    """
    gens = effective_generators(cfg)
    rays = set()
    for subset in combinations(gens, cfg.r):
        # F.C = f0*c0 - sum fi*ci: the rows (c0, -c1, ..., -cr), reduced.
        rows = [[Fraction(x) for x in (c.coeffs[0], *[-a for a in c.coeffs[1:]])]
                for c in subset]
        pivots = []
        for col in range(cfg.r + 1):
            at = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
            if at is None:
                continue
            top = len(pivots)
            rows[top], rows[at] = rows[at], rows[top]
            rows[top] = [x / rows[top][col] for x in rows[top]]
            for i, row in enumerate(rows):
                if i != top and row[col]:
                    rows[i] = [x - row[col] * y for x, y in zip(row, rows[top])]
            pivots.append(col)
        if len(pivots) < cfg.r:
            continue
        free = next(col for col in range(cfg.r + 1) if col not in pivots)
        ray = [Fraction(0)] * (cfg.r + 1)
        ray[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            ray[col] = -row[free]
        scale = lcm(*[x.denominator for x in ray])
        ints = [int(x * scale) for x in ray]
        g = gcd(*ints)
        for sign in (g, -g):
            F = DivisorClass(tuple(x // sign for x in ints))
            if all(pairing(F, c) >= 0 for c in gens):
                rays.add(F.coeffs)
    return sorted(rays)


def ray_alpha_hat(rays: list[tuple[int, ...]], m: tuple[int, ...]) -> Fraction:
    """The LP's dual value, with no simplex: the largest -sum fi*mi / f0
    over the nef rays F = (f0, f1, ..., fr) with f0 > 0.  A nef F pairs
    >= 0 with every effective dL - k*E_Z, so d/k >= -sum fi*mi / f0, and
    the optimum over the cone is attained on a ray."""
    return max(Fraction(-sum(f * x for f, x in zip(F[1:], m)), F[0]) for F in rays if F[0] > 0)


def generic_config(r: int) -> SurfaceConfig:
    """NEG(X) for r general points: all exceptional classes of the rank."""
    from waldschmidt.classes import enumerate_exceptional

    return SurfaceConfig(r, tuple(enumerate_exceptional(r)))


def three_generic_points() -> SurfaceConfig:
    return SurfaceConfig(3, parse_classes(
        ["E_1", "E_2", "E_3", "L_12", "L_13", "L_23"], 3))



def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *nums)
    return [v // g for v in nums], den // g


def bland_simplex(a, b, c):
    """min c.x s.t. A x = b, x >= 0 by a plain two-phase Bland tableau.

    The pivot path `simplex.solve_lp` must take: each row of A enters
    negated when its b entry is negative, with an artificial unit column;
    phase 1 minimises the sum of the artificials over every column, then
    each row whose basic column is still an artificial pivots on its first
    nonzero original column, and phase 2 prices the original columns only.
    Entering is the smallest column with a negative reduced cost; leaving
    is the minimum ratio, ties to the smallest basic column.  Every pivot
    is a Gauss-Jordan step in exact rationals: a row is its integer
    numerators over one positive denominator, in lowest terms (a Fraction
    per entry does the same arithmetic about 100 times slower).  Returns
    (status, x, objective, dual, pivots), status as in `simplex`.
    """
    nrows, ncols = len(a), len(c)
    total = ncols + nrows
    sign = [-1 if bi < 0 else 1 for bi in b]
    rows = [
        ([s * v for v in row] + [int(i == l) for l in range(nrows)] + [s * bi], 1)
        for i, (row, bi, s) in enumerate(zip(a, b, sign))
    ]
    phase1 = [-sum(row[j] for row, _ in rows) for j in range(total + 1)]
    phase1[ncols:total] = [0] * nrows
    # The constraint rows, then the phase-2 and phase-1 cost rows.
    rows += [(list(c) + [0] * (nrows + 1), 1), (phase1, 1)]
    basis = list(range(ncols, total))
    pivots = 0

    def pivot(i, q):
        nonlocal pivots
        pivots += 1
        nums, _ = rows[i]
        s = 1 if nums[q] > 0 else -1
        pn, pd = rows[i] = _reduced([s * v for v in nums], s * nums[q])
        for k, (on, od) in enumerate(rows):
            f = on[q]
            if k != i and f:
                rows[k] = _reduced([v * pd - f * w for v, w in zip(on, pn)], od * pd)
        basis[i] = q

    def run_phase(limit):
        while True:
            cost = rows[-1][0]
            q = next((j for j in range(limit) if cost[j] < 0), None)
            if q is None:
                return "optimal"
            ratios = [(Fraction(rows[i][0][-1], rows[i][0][q]), basis[i], i)
                      for i in range(nrows) if rows[i][0][q] > 0]
            if not ratios:
                return "unbounded"
            pivot(min(ratios)[2], q)

    # Phase 1 is bounded below by 0, so it always ends optimal.  Not in an
    # assert: under python -O that would skip phase 1 altogether.
    if run_phase(total) != "optimal":
        raise AssertionError("phase 1 of the oracle ended unbounded")
    if rows[-1][0][-1]:
        return "infeasible", None, None, None, pivots
    rows.pop()
    for i in range(nrows):
        if basis[i] >= ncols:
            q = next((j for j in range(ncols) if rows[i][0][j]), None)
            if q is not None:
                pivot(i, q)
    if run_phase(ncols) == "unbounded":
        return "unbounded", None, None, None, pivots
    x = [Fraction(0)] * ncols
    for i, j in enumerate(basis):
        if j < ncols:
            x[j] = Fraction(rows[i][0][-1], rows[i][1])
    cost, den = rows[-1]
    dual = tuple(Fraction(-s * cost[ncols + i], den) for i, s in enumerate(sign))
    return "optimal", tuple(x), Fraction(-cost[-1], den), dual, pivots
