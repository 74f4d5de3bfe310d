"""The lattice Z^{1+r} with intersection form diag(1, -1, ..., -1).

Divisor classes on a blowup of the projective plane at r points are
integer vectors a0*e0 + a1*e1 + ... + ar*er in the basis e0 (pullback of
a line) and e1..er (total transforms of the exceptional divisors).  All
arithmetic is exact; coefficients are arbitrary-precision integers.

Class strings (parse_class, format_class): "L" is e0, "K" the canonical
class, "[a0,a1,...,ar]" the raw form.  A named class "H_d1d2...ds", or
"C_d1;d2...ds" for head C, lists distinct single-digit indices and spells
a0*e0 + b*e_d1 + c*(e_d2 + ... + e_ds) with (a0, b, c) = SHAPES[H]:

    E  ( 0,  1, -1)  e_d1 minus points infinitely near to p_d1
    L  ( 1, -1, -1)  line through the points
    Q  ( 2, -1, -1)  conic through the points
    C  ( 3, -2, -1)  cubic with a node at p_d1, through the others

Whitespace is ignored.

Types and rank are checked where a class enters: DivisorClass(...)
takes any iterable of ints and checks their types and its rank, and
parse_class, line_class, point_class and canonical_class check the rank
argument.  named_class checks its indices and then the rank.  Every rank
check, SurfaceConfig's too, is _check_rank_arg, which allows 0..MAX_RANK.
The classes these build from ints they produced themselves skip
DivisorClass's checks.
"""

from __future__ import annotations

import re
from operator import mul
from typing import Iterable, Sequence

from ._record import Record, set_field
from .errors import ClassParseError, RankMismatchError, UnsupportedRankError

MAX_RANK = 8


class DivisorClass(Record):
    """Immutable integer vector (a0, a1, ..., ar) in the marking basis."""

    __slots__ = _fields = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]) -> None:
        try:
            coeffs = tuple(coeffs)
        except TypeError:
            raise ClassParseError(
                f"class coefficients must be integers, got {coeffs!r}"
            ) from None
        if not {int}.issuperset(map(type, coeffs)):
            raise ClassParseError(f"class coefficients must be integers, got {coeffs!r}")
        _check_rank_arg(len(coeffs) - 1)
        set_field(self, "coeffs", coeffs)

    # Built and compared in every query, so without the generic field loops.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

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


def _prechecked(coeffs: tuple[int, ...]) -> DivisorClass:
    """DivisorClass(coeffs) without its checks, for a tuple of ints of length
    1..MAX_RANK + 1 that its caller has just built so, or took from a class."""
    c = object.__new__(DivisorClass)
    set_field(c, "coeffs", coeffs)
    return c


def _check_rank(u: DivisorClass, v: DivisorClass) -> None:
    if u.r != v.r:
        raise RankMismatchError(f"rank mismatch: {u.r} vs {v.r}")


def pairing(u: DivisorClass, v: DivisorClass) -> int:
    """Intersection pairing a0*b0 - sum(ai*bi), summed as 2*a0*b0 - sum(ai*bi, i >= 0)."""
    a, b = u.coeffs, v.coeffs
    if len(a) != len(b):
        _check_rank(u, v)
    return 2 * a[0] * b[0] - sum(map(mul, a, b))


def _check_rank_arg(r: int) -> None:
    if not 0 <= r <= MAX_RANK:
        raise UnsupportedRankError(f"rank {r} outside supported range 0..{MAX_RANK}")


def line_class(r: int) -> DivisorClass:
    """e0, the pullback of a general line."""
    _check_rank_arg(r)
    return _prechecked((1,) + (0,) * r)


def point_class(r: int, i: int) -> DivisorClass:
    """e_i, the total transform of the i-th exceptional divisor (1-based)."""
    _check_rank_arg(r)
    if not 1 <= i <= r:
        raise UnsupportedRankError(f"index {i} outside 1..{r}")
    return DivisorClass(tuple(1 if j == i else 0 for j in range(r + 1)))


def canonical_class(r: int) -> DivisorClass:
    """k = -3*e0 + e1 + ... + er."""
    _check_rank_arg(r)
    return _prechecked((-3,) + (1,) * r)


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
_NAMED_RE = re.compile(r"^(?:([ELQ])_|C_(\d);)(\d+)$")

# Head -> (a0, coefficient of the first index, coefficient of the others).
SHAPES = {"E": (0, 1, -1), "L": (1, -1, -1), "Q": (2, -1, -1), "C": (3, -2, -1)}
_HEADS = {a0: head for head, (a0, _, _) in SHAPES.items()}


def named_class(head: str, indices: Sequence[int], r: int) -> DivisorClass:
    """The class of shape SHAPES[head] on the given 1-based indices at rank r.

    Raises ClassParseError for an index outside 1..r or a repeated index,
    then UnsupportedRankError for r outside 0..MAX_RANK.
    """
    a0, first, other = SHAPES[head]
    acc = [a0] + [0] * r
    for n, i in enumerate(indices):
        if not 1 <= i <= r:
            raise ClassParseError(f"index {i} outside 1..{r}")
        if acc[i]:
            raise ClassParseError(f"repeated index {i}")
        acc[i] = other if n else first
    _check_rank_arg(r)
    return _prechecked(tuple(acc))


def parse_class(text: str, r: int) -> DivisorClass:
    """Parse a class string at rank r; the grammar is in the module docstring."""
    _check_rank_arg(r)
    s = "".join(str.split(text))  # without whitespace; TypeError unless text is a str
    if not s:
        raise ClassParseError("empty class string")
    if s == "L":
        return line_class(r)
    if s == "K":
        return canonical_class(r)
    m = _RAW_RE.match(s)
    if m:
        coeffs = tuple(map(int, m.group(1).split(",")))
        if len(coeffs) != r + 1:
            raise ClassParseError(
                f"raw vector has {len(coeffs)} entries, expected {r + 1}"
            )
        return _prechecked(coeffs)
    m = _NAMED_RE.match(s)
    if m:
        head, first, rest = m.groups("")
        return named_class(head or "C", list(map(int, first + rest)), r)
    raise ClassParseError(f"unrecognised class string {text!r}")


def format_class(c: DivisorClass) -> str:
    """Canonical spelling of a class; exact inverse of parse_class.

    Indices ascend, except that a C name leads with its double point.  A
    name is used only when it parses back to c; every other class is
    rendered in the raw form, so parse_class(format_class(c), c.r) == c.
    """
    coeffs = c.coeffs
    if c == line_class(c.r):
        return "L"
    if c == canonical_class(c.r):
        return "K"
    head = _HEADS.get(coeffs[0], "")  # "" spells no name
    indices = [i for i, a in enumerate(coeffs[1:], start=1) if a]
    if head == "C" and -2 in coeffs:
        first = coeffs.index(-2)
        indices = [first] + [i for i in indices if i != first]
    digits = "".join(str(i) for i in indices)
    name = f"C_{digits[:1]};{digits[1:]}" if head == "C" else f"{head}_{digits}"
    if _NAMED_RE.match(name) and named_class(head, indices, c.r) == c:
        return name
    return "[" + ",".join(str(a) for a in coeffs) + "]"


def parse_classes(texts: Sequence[str], r: int) -> tuple[DivisorClass, ...]:
    return tuple(parse_class(t, r) for t in texts)
