"""Exact monomial-ideal arithmetic.

Product, power, intersection, saturation with respect to the irrelevant
maximal ideal, symbolic powers of zero-dimensional monomial ideals, and
initial degrees.  Serves as an independent desk-scale oracle for the
cone computations on infinitely-near-point configurations.

Packed exponents.  Inside each operation an exponent vector e in n
variables is one int, the word p = sum of e[k] * 2**(w*(n-1-k)): one
w-bit field per variable, variable 0 in the most significant field.
Every field the operation holds stays below 2**(w-1), so the top bit of
each field, its guard bit, is clear.  G holds every guard bit.  Then:

- Fields never overlap, so int order is the lexicographic order of the
  vectors, and h | g (h[k] <= g[k] for every k) gives h <= g as ints:
  ascending int order puts every proper divisor before its multiples.
- The product of two monomials is a + b, field by field with no carry
  while each sum stays below the guard bit.
- Divisibility: in (g + G) - h field k holds g[k] + 2**(w-1) - h[k],
  which lies in (0, 2**w), so no field borrows from the next, and its
  guard bit is set exactly when h[k] <= g[k].  Hence h | g exactly when
  ((g + G) - h) & G == G.
- Maximum (the lcm): t = ((a + G) - b) & G marks the fields where
  a[k] >= b[k], t - (t >> (w-1)) sets the low w-1 bits of those fields,
  and b ^ ((a ^ b) & (t - (t >> (w-1)))) takes a's field there and b's
  elsewhere.
- Clearing field v (dropping every factor x_v) is an and with a mask.

Width.  Each public operation packs once, with w = B.bit_length() + 1
for a bound B it can prove on every exponent it forms: the largest
input exponent for the stripping and minimalisation of an ideal, the
larger of the two maxima for intersect (a maximum of fields is one of
them), their sum for product, and m times the maximum for power and
symbolic_power (a step multiplies an element of I^k, fields at most
k*max, by one of I, so every field of I^m is at most m*max; stripping
and intersecting form no larger field).  B < 2**(w-1), so every guard
bit stays clear.  The bound is proven from the input, never taken from
fields seen in runs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from itertools import chain
from typing import Iterable, Sequence

from ._record import Record, set_field
from .errors import MonomialError

Monomial = tuple[int, ...]

# Budget on the generator pairs one product may form; power multiplies
# by I once per step, so this bounds each step of power.
PAIR_CAP = 2000
# Budget on the generator pairs all the steps of one power form together,
# so the number of steps is bounded too: (y, z)^m forms m^2 + m - 2 pairs,
# and its minimalisation costs about m^3.  The largest power that
# `symbolic_power` forms on the benchmark pool's ideals (m <= 5) totals
# 220 pairs; the largest in the tests outside the budget's own, (y, z)^63
# inside the symbolic power of (x^2*y, z) at m = 63, totals 4030.
POWER_PAIR_CAP = 8000
# Budget on the lcm pairs one intersection may form.  symbolic_power
# intersects m-th powers, so its pairs grow about as m^2 and the
# minimalisation of the candidates about as m^3.  The largest
# intersection of `symbolic_power` at m <= 14 on the benchmark pool's
# ideals forms 3249 pairs.
LCM_PAIR_CAP = 4000


class MonomialIdeal(Record):
    """A monomial ideal given by its minimal generators, sorted."""

    __slots__ = _fields = ("variables", "generators")
    variables: tuple[str, ...]
    generators: tuple[Monomial, ...]

    def __init__(self, variables: tuple[str, ...], generators: Sequence[Monomial]) -> None:
        n = len(variables)
        if n == 0:
            raise MonomialError("a monomial ideal needs at least one variable")
        if len(set(variables)) != n:
            raise MonomialError(f"repeated variable name in {variables!r}")
        # Whole-list passes: this runs on every ideal a caller builds or parses.
        flat = list(chain.from_iterable(generators))
        if not ({n}.issuperset(map(len, generators)) and {int}.issuperset(map(type, flat))
                and min(flat, default=0) >= 0):
            for g in generators:
                _check_exponents(g, n)
        set_field(self, "variables", variables)
        set_field(self, "generators", _minimal(generators))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def contains(self, mono: Monomial) -> bool:
        """Membership of a monomial: divisibility by some generator.

        Raises MonomialError unless `mono` has one nonnegative int exponent
        per variable, as each generator does."""
        _check_exponents(mono, len(self.variables))
        return any(all(x <= y for x, y in zip(g, mono)) for g in self.generators)

    def __str__(self) -> str:
        return format_ideal(self)


def _check_exponents(e: Sequence[int], n: int) -> None:
    if not (len(e) == n and set(map(type, e)) == {int} and min(e) >= 0):
        raise MonomialError(f"bad exponent vector {e} in {n} variables")


def _check_order(m: int, what: str) -> None:
    if type(m) is not int or m < 1:
        raise MonomialError(f"{what} >= 1, got {m!r}")


def _check_pairs(pairs: int, cap: int, what: str) -> None:
    if pairs > cap:
        raise MonomialError(f"{pairs} generator pairs exceed the {what} of {cap}")


def _top(i: MonomialIdeal) -> int:
    """The largest exponent in the generators of i (0 if there is none)."""
    return max(chain.from_iterable(i.generators), default=0)


class _Words:
    """Exponent vectors in n variables packed with w-bit fields, where
    w = bound.bit_length() + 1 (see "Packed exponents" above).  Every word
    list a method returns is minimal and ascending, as `unpack` needs."""

    def __init__(self, n: int, bound: int) -> None:
        w = bound.bit_length() + 1
        self.shifts = range(w * (n - 1), -1, -w)
        self.field = (1 << w) - 1
        self.guard = sum(1 << (s + w - 1) for s in self.shifts)
        self.low = w - 1

    def pack(self, gens: Iterable[Monomial]) -> list[int]:
        shifts = self.shifts
        return [sum(e << s for e, s in zip(g, shifts)) for g in gens]

    def unpack(self, words: list[int]) -> tuple[Monomial, ...]:
        """The vectors of ascending words, in descending order."""
        shifts, field = self.shifts, self.field
        return tuple(tuple(p >> s & field for s in shifts) for p in reversed(words))

    def ideal(self, variables: tuple[str, ...], words: list[int]) -> MonomialIdeal:
        """The ideal with these minimal generators, which need no check."""
        i = object.__new__(MonomialIdeal)
        set_field(i, "variables", variables)
        set_field(i, "generators", self.unpack(words))
        return i

    def minimal(self, words: Iterable[int]) -> list[int]:
        # In ascending order a proper divisor of g is kept before g is
        # reached, and nothing kept is ever removed.
        guard = self.guard
        kept: list[int] = []
        for g in sorted(set(words)):
            g_guard = g + guard
            for h in kept:
                if (g_guard - h) & guard == guard:
                    break
            else:
                kept.append(g)
        return kept

    def strip(self, words: list[int], v: int) -> list[int]:
        """The stable colon (I : x_v^infinity): clear field v."""
        keep = ~(self.field << self.shifts[v])
        return self.minimal([p & keep for p in words])

    def product(self, a_words: list[int], b_words: list[int]) -> list[int]:
        """The sum of every pair, refused past PAIR_CAP pairs."""
        _check_pairs(len(a_words) * len(b_words), PAIR_CAP, "budget")
        return self.minimal([a + b for a in a_words for b in b_words])

    def power(self, words: list[int], m: int) -> list[int]:
        """The m-th power, refused once its steps pass POWER_PAIR_CAP pairs
        in all, before the step that would pass it is formed."""
        acc, pairs = words, 0
        for _ in range(m - 1):
            pairs += len(acc) * len(words)
            _check_pairs(pairs, POWER_PAIR_CAP, "power budget")
            acc = self.product(acc, words)
        return acc

    def intersect(self, a_words: list[int], b_words: list[int]) -> list[int]:
        """The lcm of every pair, refused past LCM_PAIR_CAP pairs."""
        _check_pairs(len(a_words) * len(b_words), LCM_PAIR_CAP, "intersection budget")
        guard, low = self.guard, self.low
        lcms = []
        for a in a_words:
            a_guard = a + guard
            for b in b_words:
                t = (a_guard - b) & guard
                lcms.append(b ^ ((a ^ b) & (t - (t >> low))))
        return self.minimal(lcms)


def _minimal(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """The generators that no other divides, in descending order."""
    gens = list(gens)
    if not gens:
        return ()
    words = _Words(len(gens[0]), max(chain.from_iterable(gens)))
    return words.unpack(words.minimal(words.pack(gens)))


def _packed_pair(
    i: MonomialIdeal, j: MonomialIdeal, bound: int
) -> tuple[_Words, list[int], list[int]]:
    """A packing for operations on i and j with exponents up to `bound`,
    and the words of both."""
    if i.variables != j.variables:
        raise MonomialError(f"variable mismatch: {i.variables} vs {j.variables}")
    words = _Words(len(i.variables), bound)
    return words, words.pack(reversed(i.generators)), words.pack(reversed(j.generators))


def product(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    words, a, b = _packed_pair(i, j, _top(i) + _top(j))
    return words.ideal(i.variables, words.product(a, b))


def power(i: MonomialIdeal, m: int) -> MonomialIdeal:
    """I^m, refused past PAIR_CAP pairs in a step or POWER_PAIR_CAP in all."""
    _check_order(m, "power requires an integer m")
    words = _Words(len(i.variables), m * _top(i))
    return words.ideal(i.variables, words.power(words.pack(reversed(i.generators)), m))


def intersect(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    words, a, b = _packed_pair(i, j, max(_top(i), _top(j)))
    return words.ideal(i.variables, words.intersect(a, b))


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
    and I^m itself is never formed.  Every power is formed first, in
    variable order, each product step refused past PAIR_CAP generator
    pairs and each power past POWER_PAIR_CAP in all; then the
    intersections from left to right, each refused past LCM_PAIR_CAP.
    """
    _check_order(m, "symbolic power requires an integer m")
    words = _Words(len(i.variables), m * _top(i))
    packed = words.pack(i.generators)
    parts = [words.power(words.strip(packed, v), m) for v in range(len(i.variables))]
    return words.ideal(i.variables, reduce(words.intersect, parts))


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
