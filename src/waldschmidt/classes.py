"""Candidate negative classes, roots, exceptional classes, Weyl reflections.

Every prime divisor of negative self-intersection on a blowup of the
plane at 2 <= r <= 8 points lies in an explicit finite list of lattice
classes.  This module enumerates those lists, the root and exceptional
classes of the lattice, and orbit closures under the Weyl group
generated by the simple reflections.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from itertools import combinations
from math import isqrt

from ._record import Record
from .errors import InvalidRootError, OrbitTooLargeError, UnsupportedRankError
from .lattice import DivisorClass, canonical_class, named_class, pairing

ORBIT_CAP = 10**6

FAMILY_TAGS = ("B", "V", "L", "Q", "C", "M8")


class CandidateFamily(Record):
    """One of the families B, V, L, Q, C, M8 of candidate negative classes."""

    __slots__ = _fields = ("tag", "members")
    tag: str
    members: tuple[DivisorClass, ...]


def candidate_sets(r: int) -> list[CandidateFamily]:
    """The families whose union contains NEG(X) for every blowup at r points.

    B: the e_i.  V: e_{i1} - e_{i2} - ... - e_{is} with increasing indices.
    L: e0 - sum of >= 2 distinct e_i.  Q: 2*e0 - sum of >= 5 distinct e_i.
    C: 3*e0 - 2*e_{i1} - e_{i2} - ... - e_{is} with s >= 7 distinct indices.
    M8 (r = 8 only): -k + e0 - e_i - e_j - e_l, -k + 2*e0 - six e's, and
    -2*k - e_i.  No family lists a class twice; members are sorted
    lexicographically.
    """
    if not 2 <= r <= 8:
        raise UnsupportedRankError(f"candidate sets require 2 <= r <= 8, got {r}")
    points = range(1, r + 1)
    fams: list[CandidateFamily] = []

    def finish(tag: str, members: list[DivisorClass]) -> None:
        if members:
            fams.append(CandidateFamily(tag, tuple(sorted(members, key=lambda c: c.coeffs))))

    for tag, head, sizes in (
        ("B", "E", [1]),
        ("V", "E", range(2, r + 1)),
        ("L", "L", range(2, r + 1)),
        ("Q", "Q", range(5, r + 1)),
    ):
        finish(tag, [
            named_class(head, idx, r) for s in sizes for idx in combinations(points, s)
        ])

    finish("C", [
        named_class("C", (first,) + tuple(i for i in idx if i != first), r)
        for s in range(7, r + 1)
        for idx in combinations(points, s)
        for first in idx
    ])

    if r == 8:
        k = canonical_class(8)
        finish(
            "M8",
            [-k + named_class("L", idx, 8) for idx in combinations(points, 3)]
            + [-k + named_class("Q", idx, 8) for idx in combinations(points, 6)]
            + [-2 * k - named_class("E", (i,), 8) for i in points],
        )

    return fams


@cache
def candidate_members(r: int) -> frozenset[tuple[int, ...]]:
    """Coefficient tuples of all candidates at rank r, for membership tests.

    Built once per rank and kept: the set is immutable and depends on r only.
    """
    return frozenset(
        c.coeffs for fam in candidate_sets(r) for c in fam.members
    )


def is_root(c: DivisorClass) -> bool:
    """k.c = 0 and c.c = -2."""
    k = canonical_class(c.r)
    return pairing(k, c) == 0 and pairing(c, c) == -2


def is_exceptional(c: DivisorClass) -> bool:
    """k.c = c.c = -1."""
    k = canonical_class(c.r)
    return pairing(k, c) == -1 and pairing(c, c) == -1


def _tail_vectors(r: int, target_sum: int, target_sq: int) -> list[tuple[int, ...]]:
    """All integer (a1..ar) with given sum and sum of squares.

    Depth-first with two prunes: the remaining square budget must stay
    nonnegative, and Cauchy-Schwarz bounds the achievable remaining sum.
    """
    out: list[tuple[int, ...]] = []

    def rec(slots: int, s: int, q: int, prefix: tuple[int, ...]) -> None:
        if slots == 0:
            if s == 0 and q == 0:
                out.append(prefix)
            return
        if q < 0 or s * s > slots * q:
            return
        m = isqrt(q)
        for a in range(-m, m + 1):
            rec(slots - 1, s - a, q - a * a, prefix + (a,))

    rec(r, target_sum, target_sq, ())
    return out


def _classes(r: int, kc: int, cc: int, signs: tuple[int, ...]) -> list[DivisorClass]:
    """All classes c with k.c = kc and c.c = cc whose a0 is 0 or has a
    sign in `signs`, in lexicographic order.

    The two conditions read sum(ai) = -3*a0 - kc and sum(ai^2) = a0^2 - cc,
    so Cauchy-Schwarz, sum(ai)^2 <= r*sum(ai^2), gives (3*a0 + kc)^2 <=
    r*(a0^2 - cc).  For r <= 8 the slack r*(a0^2 - cc) - (3*a0 + kc)^2 is
    a concave quadratic in a0 (its leading coefficient is r - 9), and
    both callers have slack -r*cc - kc^2 >= 0 at a0 = 0, so the a0 that
    pass form an interval around 0: each sign's scan stops at its first
    a0 that fails, and the search is exhaustive.
    """
    out = []
    for s in signs:
        a0 = 0 if s > 0 else -1
        while (3 * a0 + kc) ** 2 <= r * (a0 * a0 - cc):
            out += [DivisorClass((a0,) + t) for t in _tail_vectors(r, -3 * a0 - kc, a0 * a0 - cc)]
            a0 += s
    return sorted(out, key=lambda c: c.coeffs)


def enumerate_roots(r: int) -> list[DivisorClass]:
    """All classes with k.c = 0, c.c = -2, in lexicographic order."""
    if not 3 <= r <= 8:
        raise UnsupportedRankError(f"roots require 3 <= r <= 8, got {r}")
    return _classes(r, 0, -2, (1, -1))


def enumerate_exceptional(r: int) -> list[DivisorClass]:
    """All classes with k.c = c.c = -1 and a0 >= 0, in lexicographic order.

    a0 >= 0 is the degree against the nef line class; classes of negative
    degree are never effective, so the geometric list keeps a0 >= 0.
    """
    if not 1 <= r <= 8:
        raise UnsupportedRankError(f"exceptional classes require 1 <= r <= 8, got {r}")
    return _classes(r, -1, -1, (1,))


def simple_roots(r: int) -> list[DivisorClass]:
    """[a1, ..., ar] with a1 = e0-e1-e2-e3 and ai = e_{i-1} - e_i."""
    if not 3 <= r <= 8:
        raise UnsupportedRankError(f"simple roots require 3 <= r <= 8, got {r}")
    return [named_class("L", (1, 2, 3), r)] + [
        named_class("E", (i - 1, i), r) for i in range(2, r + 1)
    ]


def reflect(v: DivisorClass, alpha: DivisorClass) -> DivisorClass:
    """Reflection v -> v + (v.alpha) * alpha in the root alpha."""
    if not is_root(alpha):
        raise InvalidRootError(f"{alpha} is not a root")
    return v + pairing(v, alpha) * alpha


def weyl_orbit(v: DivisorClass, r: int) -> list[DivisorClass]:
    """Breadth-first closure of {v} under the r simple reflections.

    Deterministic (sorted) output; raises OrbitTooLargeError past ORBIT_CAP
    elements, which signals an input with a huge or infinite orbit.
    """
    if v.r != r:
        raise UnsupportedRankError(f"class has rank {v.r}, expected {r}")
    gens = simple_roots(r)
    seen = {v.coeffs}
    frontier = deque([v])
    while frontier:
        u = frontier.popleft()
        for alpha in gens:
            w = u + pairing(u, alpha) * alpha
            if w.coeffs not in seen:
                if len(seen) >= ORBIT_CAP:
                    raise OrbitTooLargeError(f"orbit exceeded cap of {ORBIT_CAP} elements")
                seen.add(w.coeffs)
                frontier.append(w)
    return sorted((DivisorClass(t) for t in seen), key=lambda c: c.coeffs)
