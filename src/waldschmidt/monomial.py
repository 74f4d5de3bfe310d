"""Exact monomial-ideal arithmetic.

Product, power, intersection, saturation with respect to the irrelevant
maximal ideal, symbolic powers of zero-dimensional monomial ideals, and
initial degrees.  Serves as an independent desk-scale oracle for the
cone computations on infinitely-near-point configurations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from typing import Callable, Iterable, Sequence

from .errors import MonomialError

Monomial = tuple[int, ...]

# Budget on the generator pairs one product may form; power multiplies
# by I once per step, so this bounds each step of power.
PAIR_CAP = 2000
# Budget on the lcm pairs one intersection may form.  symbolic_power
# intersects m-th powers, so its pairs grow about as m^2 and the
# minimalisation of the candidates about as m^3.  The largest
# intersection of `symbolic_power` at m <= 14 on the benchmark pool's
# ideals forms 3249 pairs.
LCM_PAIR_CAP = 4000


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators, sorted."""

    variables: tuple[str, ...]
    generators: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        n = len(self.variables)
        if n == 0:
            raise MonomialError("a monomial ideal needs at least one variable")
        gens = self.generators
        # Whole-list passes: this runs on every candidate list of intersect.
        flat = list(chain.from_iterable(gens))
        if not ({n}.issuperset(map(len, gens)) and {int}.issuperset(map(type, flat))
                and min(flat, default=0) >= 0):
            bad = next(g for g in gens
                       if len(g) != n or set(map(type, g)) != {int} or min(g) < 0)
            raise MonomialError(f"bad exponent vector {bad} in {n} variables")
        object.__setattr__(self, "generators", _minimal(gens))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def contains(self, mono: Monomial) -> bool:
        """Membership of a monomial: divisibility by some generator."""
        return any(_divides(g, mono) for g in self.generators)

    def __str__(self) -> str:
        return format_ideal(self)


def _check_order(m: int, what: str) -> None:
    if type(m) is not int or m < 1:
        raise MonomialError(f"{what} >= 1, got {m!r}")


def _minimal(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    # A proper divisor of g has smaller total degree, so in order of degree
    # it is kept before g is reached, and nothing kept is ever removed.
    kept: list[Monomial] = []
    for g in sorted(set(gens), key=sum):
        if not any(_divides(h, g) for h in kept):
            kept.append(g)
    return tuple(sorted(kept, reverse=True))


def _pairwise(
    op: Callable, i: MonomialIdeal, j: MonomialIdeal, cap: int, what: str
) -> MonomialIdeal:
    """The ideal generated by op(a, b) over all generator pairs of i and j,
    refused with MonomialError when there are more than `cap` pairs."""
    pairs = len(i.generators) * len(j.generators)
    if pairs > cap:
        raise MonomialError(f"{pairs} generator pairs exceed the {what} of {cap}")
    if i.variables != j.variables:
        raise MonomialError(f"variable mismatch: {i.variables} vs {j.variables}")
    gens = tuple(op(a, b) for a in i.generators for b in j.generators)
    return MonomialIdeal(i.variables, gens)


def product(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    return _pairwise(_mul, i, j, PAIR_CAP, "budget")


def power(i: MonomialIdeal, m: int) -> MonomialIdeal:
    _check_order(m, "power requires an integer m")
    return reduce(product, [i] * (m - 1), i)


def intersect(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    return _pairwise(_lcm, i, j, LCM_PAIR_CAP, "intersection budget")


def _strip_variable(i: MonomialIdeal, v: int) -> MonomialIdeal:
    """The stable colon (I : x_v^infinity): drop all x_v factors."""
    gens = tuple(
        tuple(0 if k == v else e for k, e in enumerate(g)) for g in i.generators
    )
    return MonomialIdeal(i.variables, gens)


def saturate_irrelevant(i: MonomialIdeal) -> MonomialIdeal:
    """I : m^infinity for the irrelevant ideal m = (all variables), i.e. (I^1)^sat."""
    return symbolic_power(i, 1)


def symbolic_power(i: MonomialIdeal, m: int) -> MonomialIdeal:
    """(I^m)^sat; equals the symbolic power for zero-dimensional ideals.

    For a monomial ideal J, (J : x_v^infinity) is generated by J's generators
    with x_v stripped, and (J : m^infinity) is the intersection of these
    colons over the variables v.  I^m is generated by products of m
    generators of I, and stripping x_v from a product strips it from each
    factor, so (I^m : x_v^infinity) = (I : x_v^infinity)^m.  Hence (I^m)^sat
    is the intersection over v of the m-th powers of the stripped ideals,
    and I^m itself is never formed.  Each product step of a power is
    refused past PAIR_CAP generator pairs, each intersection past
    LCM_PAIR_CAP.
    """
    _check_order(m, "symbolic power requires an integer m")
    parts = [power(_strip_variable(i, v), m) for v in range(len(i.variables))]
    return reduce(intersect, parts)


def alpha(i: MonomialIdeal) -> int:
    """Minimal total degree among the minimal generators."""
    if i.is_zero:
        raise MonomialError("alpha of the zero ideal is undefined")
    return min(sum(g) for g in i.generators)


def waldschmidt_estimate(i: MonomialIdeal, max_m: int) -> Fraction:
    """min over 1 <= m <= max_m of alpha((I^m)^sat)/m; an upper bound."""
    _check_order(max_m, "estimate requires an integer max_m")
    return min(
        Fraction(alpha(symbolic_power(i, m)), m) for m in range(1, max_m + 1)
    )


_TOKEN_RE = re.compile(r"^([A-Za-z]\w*)(?:\^(\d+))?$")


def parse_ideal(
    text: str, variables: Sequence[str] | None = None
) -> MonomialIdeal:
    """Parse "x^2, x*y, y^3" into an ideal.

    Variables come from the optional header (fixing count and order) or
    are collected in order of first use.  "1" denotes the unit ideal.
    """
    var_order: list[str] = list(variables) if variables is not None else []
    known = variables is not None
    raw: list[list[tuple[str, int]]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise MonomialError("empty generator in ideal string")
        factors: list[tuple[str, int]] = []
        if part != "1":
            for tok in part.split("*"):
                m = _TOKEN_RE.match(tok.strip())
                if not m:
                    raise MonomialError(f"bad monomial factor {tok!r}")
                name = m.group(1)
                exp = int(m.group(2)) if m.group(2) else 1
                if name not in var_order:
                    if known:
                        raise MonomialError(f"undeclared variable {name!r}")
                    var_order.append(name)
                factors.append((name, exp))
        raw.append(factors)
    gens = []
    for factors in raw:
        g = [0] * len(var_order)
        for name, exp in factors:
            g[var_order.index(name)] += exp
        gens.append(tuple(g))
    return MonomialIdeal(tuple(var_order), tuple(gens))


def format_monomial(variables: Sequence[str], g: Monomial) -> str:
    parts = []
    for name, e in zip(variables, g):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_ideal(i: MonomialIdeal) -> str:
    if i.is_zero:
        return "0"
    return ", ".join(format_monomial(i.variables, g) for g in i.generators)
