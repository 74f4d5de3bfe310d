"""Exact rational linear programming over the effective cone.

Membership, nef testing, the Waldschmidt constant as an exact LP with a
machine-checkable certificate, the initial degree, and the two-variable
Chudnovsky inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, lcm
from typing import Sequence

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
    SolverInvariantError,
    WaldschmidtError,
)
from .lattice import DivisorClass, format_class, line_class, pairing, parse_class
from .simplex import INFEASIBLE, OPTIMAL, solve_lp


@dataclass(frozen=True)
class Certificate:
    """Exact optimality certificate for a Waldschmidt constant d/m.

    The decomposition shows d*L - m*E_Z effective (cone membership); the
    nef class F with (d*L - m*E_Z).F = 0 shows no smaller ratio is ever
    effective.  Everything is re-checkable from the fields alone.
    """

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
                {"generator": format_class(g), "coefficient": frac_str(c)}
                for g, c in self.decomposition
            ],
            "nef": format_class(self.nef),
        }


def frac_str(q: Fraction) -> str:
    """"p/q", or "p" for an integer: the form every JSON and table output uses."""
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def certificate_from_dict(data: dict, r: int) -> Certificate:
    decomposition = tuple(
        (parse_class(item["generator"], r), Fraction(item["coefficient"]))
        for item in data["decomposition"]
    )
    return Certificate(
        d=int(data["d"]),
        m=int(data["m"]),
        multiplicities=tuple(int(x) for x in data["multiplicities"]),
        decomposition=decomposition,
        nef=parse_class(data["nef"], r),
    )


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
    a = [[g.coeffs[j] for g in generators] for j in range(r + 1)]
    b = [D.coeffs[j] for j in range(r + 1)]
    c = [0] * len(generators)
    res = solve_lp(a, b, c)
    if res.status == INFEASIBLE:
        return None
    if res.status != OPTIMAL:
        raise SolverInvariantError(f"feasibility LP ended {res.status}")
    return {g: res.x[i] for i, g in enumerate(generators) if res.x[i] != 0}


def _bounding_class(r: int) -> DivisorClass:
    """(3*2^r)*e0 - sum 2^(r-i)*e_i; positive degree on every candidate class."""
    return DivisorClass(tuple([3 * 2**r] + [-(2 ** (r - i)) for i in range(1, r + 1)]))


def _leading_index(c: DivisorClass) -> int:
    for i, a in enumerate(c.coeffs[1:], start=1):
        if a != 0:
            return i
    return 0


def _solve_triangular(
    residual: list[int], zgens: list[tuple[int, DivisorClass]]
) -> dict[DivisorClass, int] | None:
    """Express a degree-zero residual over zero-degree generators.

    zgens are sorted by leading index; distinct leading indices make the
    system triangular, so the solution is unique when it exists.
    """
    res = list(residual)
    out: dict[DivisorClass, int] = {}
    for lead, g in zgens:
        lam = res[lead]
        if lam < 0:
            return None
        if lam:
            for j, a in enumerate(g.coeffs):
                res[j] -= lam * a
            out[g] = lam
    if any(res):
        return None
    return out


def monoid_membership(
    D: DivisorClass, generators: Sequence[DivisorClass]
) -> dict[DivisorClass, int] | None:
    """Nonnegative integer coefficients with sum(c_g * g) = D, or None.

    Bounded exhaustive search: the bounding class A = (3*2^r)e0 - sum
    2^(r-i) e_i pairs >= 1 with every admissible generator, so A-degree
    caps every coefficient and the depth-first search terminates.

    Precondition: the degree-zero generators have distinct leading
    indices, so the degree-zero part of the search is a triangular solve.
    Generators of a valid configuration always do: two classes e_i - ...
    with the same leading index pair to <= -1, which validation rejects.
    Any other generator set raises ConfigurationError.
    """
    r = D.r
    if any(g.r != r for g in generators):
        raise ConfigurationError("generator rank mismatch")
    if D.is_zero():
        return {}
    if not generators:
        return None
    A = _bounding_class(r)
    degs = [pairing(A, g) for g in generators]
    if any(d < 1 for d in degs):
        raise BoundingFailureError(
            "no bounding functional is positive on every generator: "
            + ", ".join(
                format_class(g) for g, d in zip(generators, degs) if d < 1
            )
        )
    budget = pairing(A, D)
    if budget < 0:
        return None

    pgens = [g for g in generators if g.coeffs[0] > 0]
    zgens = [g for g in generators if g.coeffs[0] == 0]
    if any(g.coeffs[0] < 0 for g in generators):
        raise BoundingFailureError("generator with negative line degree")
    zleads = sorted(((_leading_index(g), g) for g in zgens), key=lambda t: t[0])
    for (lead, g), (lead2, h) in zip(zleads, zleads[1:]):
        if lead == lead2:
            raise ConfigurationError(
                f"degree-zero generators {format_class(g)} and {format_class(h)} "
                f"share the leading index {lead}; no valid configuration has both"
            )

    # Need per budget: each unit of line degree spent on generator g
    # lowers the total point-multiplicity deficit by at most ratio(g).
    def need_drop(g: DivisorClass) -> int:
        return -sum(g.coeffs[1:])

    sharp = all(need_drop(g) <= 0 for g in zgens)
    order = sorted(
        pgens, key=lambda g: (-Fraction(need_drop(g), g.coeffs[0]), g.coeffs)
    )
    ratios = [Fraction(need_drop(g), g.coeffs[0]) for g in order]
    suffix_ratio = [Fraction(0)] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix_ratio[i] = max(suffix_ratio[i + 1], ratios[i])

    result: dict[DivisorClass, int] | None = None

    def rec(idx: int, res: list[int], adeg: int, chosen: list[int]) -> bool:
        nonlocal result
        b0 = res[0]
        if b0 < 0 or adeg < 0:
            return False
        if b0 == 0:
            zsol = _solve_triangular(res, zleads)
            if zsol is None:
                return False
            result = {g: n for g, n in zip(order, chosen) if n}
            result.update(zsol)
            return True
        if idx == len(order):
            return False
        if sharp:
            need = -sum(res[1:])
            if Fraction(need, 1) > suffix_ratio[idx] * b0:
                return False
        g = order[idx]
        ga = pairing(A, g)
        top = min(b0 // g.coeffs[0], adeg // ga)
        for lam in range(top, -1, -1):
            nres = [x - lam * a for x, a in zip(res, g.coeffs)]
            if rec(idx + 1, nres, adeg - lam * ga, chosen + [lam]):
                return True
        return False

    if rec(0, list(D.coeffs), budget, []):
        return result
    return None


def is_nef(F: DivisorClass, cfg: SurfaceConfig) -> bool:
    """True iff F pairs nonnegatively with every effective-cone generator."""
    return all(pairing(F, g) >= 0 for g in effective_generators(cfg))


def _require_valid(
    cfg: SurfaceConfig, m: Sequence[int]
) -> tuple[tuple[int, ...], list[DivisorClass]]:
    """Checked multiplicities and the effective-cone generators of `cfg`."""
    gens = effective_generators(cfg)
    mm = check_multiplicities(m, cfg.r)
    if cfg.proximity is not None:
        slacks, ok = proximity_check(mm, cfg.proximity)
        if not ok:
            raise ProximityViolationError(
                f"multiplicities {mm} violate the proximity inequalities "
                f"(slacks {slacks}); the cone computation would not equal "
                "the Waldschmidt constant"
            )
    return mm, gens


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


def _solve(
    mm: tuple[int, ...], gens: list[DivisorClass]
) -> tuple[Fraction, Certificate]:
    r = len(mm)
    if all(x == 0 for x in mm):
        return Fraction(0), Certificate(
            d=0, m=1, multiplicities=mm, decomposition=(), nef=line_class(r)
        )
    a = []
    for j in range(r + 1):
        row = [g.coeffs[j] for g in gens]
        row.append(-1 if j == 0 else 0)
        a.append(row)
    b = [0] + [-x for x in mm]
    c = [0] * len(gens) + [1]
    res = solve_lp(a, b, c)
    if res.status == INFEASIBLE:
        raise InfeasibleConeError(
            "no multiple of the line class dominates E_Z over these generators"
        )
    if res.status != OPTIMAL:
        raise SolverInvariantError(f"Waldschmidt LP ended {res.status}")
    t = res.x[len(gens)]
    if t <= 0:
        raise SolverInvariantError(
            f"optimal line degree {t} is not positive for nonzero multiplicities"
        )
    d, den = t.numerator, t.denominator
    decomposition = tuple(
        (g, den * res.x[i]) for i, g in enumerate(gens) if res.x[i] != 0
    )
    nef = _dual_to_nef(res.dual)
    cert = Certificate(
        d=d, m=den, multiplicities=mm, decomposition=decomposition, nef=nef
    )
    return t, cert


def _dual_to_nef(dual: Sequence[Fraction]) -> DivisorClass:
    """Scale the LP dual (-1, y1, ..., yr) to the primitive integer nef class."""
    if dual[0] != -1:
        raise SolverInvariantError(
            f"line-degree dual variable is {dual[0]}, not -1: it must be tight"
        )
    coeffs = [Fraction(1)] + list(dual[1:])
    den = lcm(*(q.denominator for q in coeffs))
    ints = [int(q * den) for q in coeffs]
    g = gcd(*ints)
    return DivisorClass(tuple(v // g for v in ints))


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

    Conditions: d >= 0 and m > 0; one multiplicity per point; the
    decomposition has nonnegative coefficients over the configuration's
    generators and sums to d*L - m*E_Z; F has rank r, is nonzero and nef;
    (d*L - m*E_Z).F = 0.  Raises ConfigurationError if `cfg` is invalid.
    """
    gens = effective_generators(cfg)
    r = cfg.r
    failures = []
    if cert.d < 0:
        failures.append(f"degree d = {cert.d} is negative")
    if cert.m <= 0:
        failures.append(f"multiplicity scale m = {cert.m} is not positive")
    gen_set = set(gens)
    for g, q in cert.decomposition:
        if g not in gen_set:
            failures.append(f"{format_class(g)} is not an effective-cone generator")
        elif q < 0:
            failures.append(f"{format_class(g)} has negative coefficient {frac_str(q)}")
    target = None
    if len(cert.multiplicities) != r:
        failures.append(f"{len(cert.multiplicities)} multiplicities for {r} points")
    else:
        target = cert.target()
        acc = [Fraction(0)] * (r + 1)
        for g, q in cert.decomposition:
            if g in gen_set:
                for j, a in enumerate(g.coeffs):
                    acc[j] += q * a
        if acc != [Fraction(v) for v in target.coeffs]:
            failures.append(
                "decomposition sums to ["
                + ",".join(frac_str(v) for v in acc)
                + f"], not d*L - m*E_Z = {format_class(target)}"
            )
    nef = cert.nef
    if nef.r != r:
        failures.append(f"nef class {format_class(nef)} has rank {nef.r}, not {r}")
        return failures
    if nef.is_zero():
        failures.append("nef class is zero")
    negative = [format_class(g) for g in gens if pairing(nef, g) < 0]
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
    mm, gens = _require_valid(cfg, m)
    return _alpha(mm, gens, _solve(mm, gens)[0])


def _alpha(mm: tuple[int, ...], gens: list[DivisorClass], value: Fraction) -> int:
    """alpha_degree, scanning d upward from the Waldschmidt constant `value`."""
    hi = sum(mm) + 1
    for d in range(ceil(value), hi + 1):
        target = DivisorClass(tuple([d] + [-x for x in mm]))
        if monoid_membership(target, gens) is not None:
            return d
    raise InfeasibleConeError(
        f"no degree up to {hi} makes the class effective; "
        "configuration is not geometric"
    )


def chudnovsky_check(cfg: SurfaceConfig, m: Sequence[int]) -> bool:
    """alpha_hat >= (alpha + 1)/2, evaluated exactly (two variables).

    The zero multiplicity vector passes by convention.
    """
    mm, gens = _require_valid(cfg, m)
    if all(x == 0 for x in mm):
        return True
    value, _ = _solve(mm, gens)
    return value >= Fraction(_alpha(mm, gens, value) + 1, 2)
