"""The lattice Z^{1+r} with intersection form diag(1, -1, ..., -1).

Divisor classes on a blowup of the projective plane at r points are
integer vectors a0*e0 + a1*e1 + ... + ar*er in the basis e0 (pullback of
a line) and e1..er (total transforms of the exceptional divisors).  All
arithmetic is exact; coefficients are arbitrary-precision integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ClassParseError, RankMismatchError, UnsupportedRankError

MAX_RANK = 8


@dataclass(frozen=True)
class DivisorClass:
    """Immutable integer vector (a0, a1, ..., ar) in the marking basis."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        if any(type(a) is not int for a in coeffs):
            raise ClassParseError(f"class coefficients must be integers, got {coeffs!r}")
        if len(coeffs) < 1 or len(coeffs) > MAX_RANK + 1:
            raise UnsupportedRankError(
                f"rank {len(coeffs) - 1} outside supported range 0..{MAX_RANK}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def r(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _check_rank(self, other)
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _check_rank(self, other)
        return DivisorClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(tuple(scalar * a for a in self.coeffs))

    __mul__ = __rmul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __str__(self) -> str:
        return format_class(self)


def _check_rank(u: DivisorClass, v: DivisorClass) -> None:
    if u.r != v.r:
        raise RankMismatchError(f"rank mismatch: {u.r} vs {v.r}")


def divisor(coeffs: Iterable[int]) -> DivisorClass:
    """Build a class from any integer iterable."""
    return DivisorClass(tuple(coeffs))


def pairing(u: DivisorClass, v: DivisorClass) -> int:
    """Intersection pairing a0*b0 - sum(ai*bi); symmetric and bilinear."""
    _check_rank(u, v)
    return u.coeffs[0] * v.coeffs[0] - sum(
        a * b for a, b in zip(u.coeffs[1:], v.coeffs[1:])
    )


def _check_rank_arg(r: int) -> None:
    if not 0 <= r <= MAX_RANK:
        raise UnsupportedRankError(f"rank {r} outside supported range 0..{MAX_RANK}")


def line_class(r: int) -> DivisorClass:
    """e0, the pullback of a general line."""
    _check_rank_arg(r)
    return DivisorClass((1,) + (0,) * r)


def point_class(r: int, i: int) -> DivisorClass:
    """e_i, the total transform of the i-th exceptional divisor (1-based)."""
    _check_rank_arg(r)
    if not 1 <= i <= r:
        raise UnsupportedRankError(f"index {i} outside 1..{r}")
    return DivisorClass(tuple(1 if j == i else 0 for j in range(r + 1)))


def canonical_class(r: int) -> DivisorClass:
    """k = -3*e0 + e1 + ... + er."""
    _check_rank_arg(r)
    return DivisorClass((-3,) + (1,) * r)


def class_sum(r: int, terms: Iterable[tuple[int, DivisorClass]]) -> DivisorClass:
    """Integer linear combination of classes of rank r."""
    acc = [0] * (r + 1)
    for coeff, cls in terms:
        if cls.r != r:
            raise RankMismatchError(f"rank mismatch: {cls.r} vs {r}")
        for j, a in enumerate(cls.coeffs):
            acc[j] += coeff * a
    return DivisorClass(tuple(acc))


_RAW_RE = re.compile(r"^\[(-?\d+(?:,-?\d+)*)\]$")
_E_RE = re.compile(r"^E_(\d+)$")
_L_RE = re.compile(r"^L_(\d+)$")
_Q_RE = re.compile(r"^Q_(\d+)$")
_C_RE = re.compile(r"^C_(\d);(\d+)$")


def _indices(digits: str, r: int, seen: set[int] | None = None) -> list[int]:
    idx = []
    taken = set() if seen is None else seen
    for ch in digits:
        i = int(ch)
        if i < 1 or i > r:
            raise ClassParseError(f"index {i} outside 1..{r}")
        if i in taken:
            raise ClassParseError(f"repeated index {i}")
        taken.add(i)
        idx.append(i)
    return idx


def parse_class(text: str, r: int) -> DivisorClass:
    """Parse a class string at rank r.

    Grammar: "L" -> e0; "K" -> canonical class; "E_d1d2...ds" ->
    e_d1 - e_d2 - ... - e_ds; "L_d1...ds" -> e0 - sum e_di; "Q_d1...ds" ->
    2*e0 - sum e_di; "C_d1;d2...ds" -> 3*e0 - 2*e_d1 - sum_{i>=2} e_di;
    "[a0,a1,...,ar]" is the raw form.  Whitespace is ignored.
    """
    _check_rank_arg(r)
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ClassParseError("empty class string")
    if s == "L":
        return line_class(r)
    if s == "K":
        return canonical_class(r)
    m = _RAW_RE.match(s)
    if m:
        coeffs = tuple(int(t) for t in m.group(1).split(","))
        if len(coeffs) != r + 1:
            raise ClassParseError(
                f"raw vector has {len(coeffs)} entries, expected {r + 1}"
            )
        return DivisorClass(coeffs)
    m = _E_RE.match(s)
    if m:
        idx = _indices(m.group(1), r)
        acc = [0] * (r + 1)
        acc[idx[0]] = 1
        for i in idx[1:]:
            acc[i] = -1
        return DivisorClass(tuple(acc))
    m = _L_RE.match(s)
    if m:
        idx = _indices(m.group(1), r)
        acc = [1] + [0] * r
        for i in idx:
            acc[i] = -1
        return DivisorClass(tuple(acc))
    m = _Q_RE.match(s)
    if m:
        idx = _indices(m.group(1), r)
        acc = [2] + [0] * r
        for i in idx:
            acc[i] = -1
        return DivisorClass(tuple(acc))
    m = _C_RE.match(s)
    if m:
        seen: set[int] = set()
        first = _indices(m.group(1), r, seen)[0]
        rest = _indices(m.group(2), r, seen)
        acc = [3] + [0] * r
        acc[first] = -2
        for i in rest:
            acc[i] = -1
        return DivisorClass(tuple(acc))
    raise ClassParseError(f"unrecognised class string {text!r}")


def format_class(c: DivisorClass) -> str:
    """Canonical spelling of a class; exact inverse of parse_class.

    Classes that match no named pattern are rendered in the raw form, so
    the round trip parse_class(format_class(c), c.r) == c always holds.
    """
    coeffs = c.coeffs
    a0, tail = coeffs[0], coeffs[1:]
    if c == line_class(c.r):
        return "L"
    if c == canonical_class(c.r):
        return "K"
    minus = [i for i, a in enumerate(tail, start=1) if a == -1]
    plus = [i for i, a in enumerate(tail, start=1) if a == 1]
    others = [a for a in tail if a not in (-1, 0, 1)]
    if a0 == 0 and len(plus) == 1 and not others:
        if not minus or plus[0] < min(minus):
            return "E_" + str(plus[0]) + "".join(str(i) for i in minus)
    if a0 in (1, 2) and not plus and not others and minus:
        head = "L_" if a0 == 1 else "Q_"
        return head + "".join(str(i) for i in minus)
    if a0 == 3 and not plus and minus:
        doubles = [i for i, a in enumerate(tail, start=1) if a == -2]
        clean = all(a in (0, -1, -2) for a in tail)
        if len(doubles) == 1 and clean:
            return "C_" + str(doubles[0]) + ";" + "".join(str(i) for i in minus)
    return "[" + ",".join(str(a) for a in coeffs) + "]"


def parse_classes(texts: Sequence[str], r: int) -> tuple[DivisorClass, ...]:
    return tuple(parse_class(t, r) for t in texts)
