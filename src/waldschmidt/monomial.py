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
from typing import Iterable, Sequence

from .errors import MonomialError

Monomial = tuple[int, ...]


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
        for g in self.generators:
            if len(g) != n or any(e < 0 for e in g):
                raise MonomialError(f"bad exponent vector {g} in {n} variables")
        object.__setattr__(self, "generators", _minimal(self.generators))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def contains(self, mono: Monomial) -> bool:
        """Membership of a monomial: divisibility by some generator."""
        return any(_divides(g, mono) for g in self.generators)

    def __str__(self) -> str:
        return format_ideal(self)


def _minimal(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    uniq = sorted(set(gens))
    out: list[Monomial] = []
    for g in uniq:
        if not any(_divides(h, g) for h in out if h != g):
            out = [h for h in out if not _divides(g, h)]
            out.append(g)
    return tuple(sorted(out, reverse=True))


def _check_compatible(i: MonomialIdeal, j: MonomialIdeal) -> None:
    if i.variables != j.variables:
        raise MonomialError(
            f"variable mismatch: {i.variables} vs {j.variables}"
        )


def product(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    _check_compatible(i, j)
    gens = tuple(_mul(a, b) for a in i.generators for b in j.generators)
    return MonomialIdeal(i.variables, gens)


def power(i: MonomialIdeal, m: int) -> MonomialIdeal:
    if m < 1:
        raise MonomialError(f"power requires m >= 1, got {m}")
    return reduce(product, [i] * (m - 1), i)


def intersect(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    _check_compatible(i, j)
    gens = tuple(_lcm(a, b) for a in i.generators for b in j.generators)
    return MonomialIdeal(i.variables, gens)


def _strip_variable(i: MonomialIdeal, v: int) -> MonomialIdeal:
    """The stable colon (I : x_v^infinity): drop all x_v factors."""
    gens = tuple(
        tuple(0 if k == v else e for k, e in enumerate(g)) for g in i.generators
    )
    return MonomialIdeal(i.variables, gens)


def saturate_irrelevant(i: MonomialIdeal) -> MonomialIdeal:
    """I : m^infinity for the irrelevant ideal m = (all variables).

    For monomial ideals this is the intersection over variables v of
    (I : v^infinity), each computed by stripping v from the generators.
    """
    if i.is_zero:
        return i
    parts = [_strip_variable(i, v) for v in range(len(i.variables))]
    return reduce(intersect, parts)


def symbolic_power(i: MonomialIdeal, m: int) -> MonomialIdeal:
    """(I^m)^sat; equals the symbolic power for zero-dimensional ideals."""
    if m < 1:
        raise MonomialError(f"symbolic power requires m >= 1, got {m}")
    return saturate_irrelevant(power(i, m))


def alpha(i: MonomialIdeal) -> int:
    """Minimal total degree among the minimal generators."""
    if i.is_zero:
        raise MonomialError("alpha of the zero ideal is undefined")
    return min(sum(g) for g in i.generators)


def waldschmidt_estimate(i: MonomialIdeal, max_m: int) -> Fraction:
    """min over 1 <= m <= max_m of alpha((I^m)^sat)/m; an upper bound."""
    if max_m < 1:
        raise MonomialError(f"estimate requires max_m >= 1, got {max_m}")
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
