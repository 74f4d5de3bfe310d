"""Surface configurations: proximity structure, NEG(X) lists, validation.

A SurfaceConfig is the lattice-level avatar of a blowup of the plane at
r points: the list of classes of prime divisors of negative square,
plus an optional proximity matrix recording which points are infinitely
near which earlier ones.
"""

from __future__ import annotations

import json
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from ._record import Record, set_field
from .classes import candidate_members
from .errors import ConfigurationError
from .lattice import (
    DivisorClass,
    _check_rank_arg,
    canonical_class,
    line_class,
    named_class,
    pairing,
    parse_class,
    point_class,
)


class ProximityMatrix(Record):
    """Pairs (j, i) meaning point p_j is proximate to the earlier point p_i."""

    __slots__ = _fields = ("r", "pairs")
    r: int
    pairs: frozenset[tuple[int, int]]

    def __init__(self, r: int, pairs: Iterable[tuple[int, int]] = frozenset()) -> None:
        if type(r) is not int:
            raise ConfigurationError(f"proximity rank must be an integer, got {r!r}")
        try:
            frozen = frozenset(map(tuple, pairs))
        except TypeError:
            raise ConfigurationError(
                f"proximity pairs must be pairs of integers, got {pairs!r}"
            ) from None
        for p in frozen:
            if len(p) != 2 or not _is_int_list(p):
                raise ConfigurationError(f"proximity pair {p!r} is not a pair of integers")
            j, i = p
            if not (1 <= i < j <= r):
                raise ConfigurationError(
                    f"proximity pair ({j}, {i}) must satisfy 1 <= i < j <= {r}"
                )
        set_field(self, "r", r)
        set_field(self, "pairs", frozen)

    def proximate_to(self, i: int) -> list[int]:
        return sorted(j for j, t in self.pairs if t == i)


class SurfaceConfig(Record):
    """r, the NEG(X) class list, and an optional proximity matrix.

    The constructor checks types and the rank; validate_config checks the
    lattice conditions.
    """

    _fields = ("r", "neg_curves", "proximity")  # no __slots__: `report` and the record are kept
    r: int
    neg_curves: tuple[DivisorClass, ...]
    proximity: ProximityMatrix | None

    def __init__(self, r: int, neg_curves: Iterable[DivisorClass],
                 proximity: ProximityMatrix | None = None) -> None:
        if type(r) is not int:
            raise ConfigurationError(f"rank must be an integer, got {r!r}")
        _check_rank_arg(r)
        try:
            curves = tuple(neg_curves)
        except TypeError:
            raise ConfigurationError(
                f"negative curves must be an iterable of classes, got {neg_curves!r}"
            ) from None
        for c in curves:
            if not isinstance(c, DivisorClass):
                raise ConfigurationError(f"negative curve {c!r} is not a DivisorClass")
        if proximity is not None and not isinstance(proximity, ProximityMatrix):
            raise ConfigurationError(
                f"proximity must be a ProximityMatrix or None, got {proximity!r}"
            )
        set_field(self, "r", r)
        set_field(self, "neg_curves", curves)
        set_field(self, "proximity", proximity)

    @cached_property
    def report(self) -> ValidationReport:
        """Validation of this object: computed on first use, kept on the instance."""
        return _validate(self)


class ValidationReport(Record):
    """Violations found by validate_config; empty `errors` means valid."""

    __slots__ = _fields = ("errors", "warnings")
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    # Built once per validation, so without the generic argument binding.
    def __init__(self, errors: tuple[str, ...] = (), warnings: tuple[str, ...] = ()) -> None:
        set_field(self, "errors", errors)
        set_field(self, "warnings", warnings)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_config(cfg: SurfaceConfig) -> ValidationReport:
    """Check all SurfaceConfig invariants; violations are data, not errors.

    The checks run once per object; an equal configuration built anew is
    checked again.  Distinct (-1)-classes E, F (E.E = K.E = -1) always
    pair to E.F >= 0 when r <= 8, because K-perp is then negative definite
    and even; so only pairs holding some other class are computed.

    A (-1)-class is never looked up among the candidates: for r <= 8 every
    one is a candidate.  Write c = a0*e0 + a1*e1 + ... + ar*er; then
    c.c = K.c = -1 reads sum(ai) = 1 - 3*a0 and sum(ai^2) = a0^2 + 1, so
    Cauchy-Schwarz, sum(ai)^2 <= r*sum(ai^2), gives
    (9 - r)*a0^2 - 6*a0 + 1 - r <= 0.  For a0 = -b with b >= 1 the left
    side is (9 - r)*b^2 + 6*b + 1 - r >= b^2 + 6*b - 7 >= 0, with equality
    only at r = 8 and a0 = -1; equality in Cauchy-Schwarz makes every ai
    equal to sum(ai)/r = 1/2, which is no integer.  So a0 >= 0, and c is
    one of the classes classes.enumerate_exceptional(r) lists (its search
    is exhaustive for a0 >= 0), all of which are candidates (a test pins
    this for r = 2..8).  So a list of (-1)-classes alone, such as the
    generic one, never fetches the candidate set.
    """
    return cfg.report


def _validate(cfg: SurfaceConfig) -> ValidationReport:
    errors: list[str] = []
    warnings: list[str] = []
    r = cfg.r
    candidates = None  # fetched for the first class that needs the lookup
    # Negated coefficients: hash(-1) == hash(-2), so the tuples themselves
    # collide often (110 hashes for the 240 exceptional tuples at r = 8).
    seen: set[tuple[int, ...]] = set()
    # The curves of rank r; `others` holds the positions of the non-(-1)-classes.
    kept: list[DivisorClass] = []
    others: list[int] = []
    for c in cfg.neg_curves:
        coeffs = c.coeffs
        if len(coeffs) != r + 1:
            errors.append(f"{c}: rank {c.r} does not match configuration rank {r}")
            continue
        key = tuple([-x for x in coeffs])
        if key in seen:
            errors.append(f"{c}: duplicate negative curve")
        seen.add(key)
        a0 = coeffs[0]
        square = 2 * a0 * a0 - sum(map(mul, coeffs, coeffs))  # pairing(c, c)
        # K.c = -3*a0 - (a1 + ... + ar) = -2*a0 - sum(coeffs)
        minus_one = square == -1 and -2 * a0 - sum(coeffs) == -1
        if square >= 0:
            errors.append(f"{c}: nonnegative self-intersection {square}")
        elif not minus_one and 2 <= r <= 8:
            if candidates is None:
                candidates = candidate_members(r)
            if coeffs not in candidates:
                errors.append(f"{c}: not a candidate negative class at rank {r}")
        if not minus_one:
            others.append(len(kept))
        kept.append(c)
    # Distinct (-1)-classes E, F never pair negatively: E - F lies in K-perp,
    # so (E - F)^2 = -2 - 2 E.F <= -2.  Only pairs holding another class are checked.
    k = 0  # others[k:] are the positions after a that hold other classes
    for a, u in enumerate(kept):
        if k < len(others) and others[k] == a:
            k += 1
            partners: Iterable[int] = range(a + 1, len(kept))
        else:
            partners = others[k:]
        for b in partners:
            v = kept[b]
            p = pairing(u, v)
            if p < 0 and u.coeffs != v.coeffs:
                errors.append(f"{u} and {v}: distinct prime divisors pair {p} < 0")
    if cfg.proximity is not None:
        if cfg.proximity.r != cfg.r:
            errors.append(
                f"proximity matrix rank {cfg.proximity.r} does not match {cfg.r}"
            )
        else:
            for j in range(1, cfg.r + 1):
                targets = [i for jj, i in cfg.proximity.pairs if jj == j]
                if len(targets) > 2:
                    warnings.append(
                        f"point p_{j} proximate to {len(targets)} points; "
                        "a planar point can be proximate to at most 2"
                    )
    return ValidationReport(tuple(errors), tuple(warnings))


def strict_transform_components(p: ProximityMatrix) -> list[DivisorClass]:
    """The components E^_i = e_i - sum of e_j over points proximate to p_i."""
    return [named_class("E", [i] + p.proximate_to(i), p.r) for i in range(1, p.r + 1)]


def check_multiplicities(m: Sequence[int], r: int) -> tuple[int, ...]:
    try:
        m = tuple(m)
    except TypeError:
        raise ConfigurationError(
            f"multiplicities must be a sequence of integers, got {m!r}"
        ) from None
    if not _is_int_list(m):
        raise ConfigurationError(f"multiplicities must be integers, got {m!r}")
    if len(m) != r:
        raise ConfigurationError(f"expected {r} multiplicities, got {len(m)}")
    if any(x < 0 for x in m):
        raise ConfigurationError("multiplicities must be nonnegative")
    return m


def proximity_check(
    m: Sequence[int], p: ProximityMatrix
) -> tuple[tuple[int, ...], bool]:
    """Slack vector n_i = m_i - sum of m_j over j proximate to i, and pass flag.

    The slacks are the coordinates of -E_Z in the dual configuration
    basis; the inequalities pass exactly when all slacks are >= 0.
    """
    ez = DivisorClass((0,) + check_multiplicities(m, p.r))
    slacks = tuple(-pairing(e, ez) for e in strict_transform_components(p))
    return slacks, all(s >= 0 for s in slacks)


def effective_generators(cfg: SurfaceConfig) -> list[DivisorClass]:
    """Generators of the effective cone.

    r = 0: the line class.  r = 1: e0 - e1 and e1.  2 <= r <= 7: the
    NEG(X) list.  r = 8: NEG(X) together with the anticanonical class.
    Raises ConfigurationError unless `cfg` is valid; the validation runs
    once per configuration object (see validate_config).
    """
    report = validate_config(cfg)
    if not report.ok:
        raise ConfigurationError("; ".join(report.errors))
    if cfg.r == 0:
        return [line_class(0)]
    if cfg.r == 1:
        return [line_class(1) - point_class(1, 1), point_class(1, 1)]
    gens = list(cfg.neg_curves)
    if cfg.r == 8:
        gens.append(-canonical_class(8))
    return gens


def derive_proximity(r: int, neg_curves: Iterable[DivisorClass]) -> ProximityMatrix:
    """Proximity pairs read off the vertical members e_i - e_j - ... of NEG."""
    pairs = set()
    for c in neg_curves:
        if c.coeffs[0] != 0:
            continue
        plus = [i for i, a in enumerate(c.coeffs[1:], start=1) if a == 1]
        minus = [i for i, a in enumerate(c.coeffs[1:], start=1) if a == -1]
        if len(plus) == 1 and all(a in (-1, 0, 1) for a in c.coeffs[1:]):
            for j in minus:
                if j > plus[0]:
                    pairs.add((j, plus[0]))
    return ProximityMatrix(r, frozenset(pairs))


def config_from_dict(data: dict) -> SurfaceConfig:
    """Build a SurfaceConfig from its JSON form.

    Schema: {"r": int, "proximity": [[j, i], ...] (optional),
    "negative_curves": [class-string or [a0, ..., ar], ...]}.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"a configuration is a JSON object, got {data!r}")
    r = data.get("r")
    if type(r) is not int:
        raise ConfigurationError(f"'r' must be an integer, got {r!r}")
    curves = []
    for item in _json_list(data, "negative_curves"):
        if isinstance(item, str):
            curves.append(parse_class(item, r))
        elif _is_int_list(item):
            curves.append(DivisorClass(tuple(item)))
        else:
            raise ConfigurationError(
                f"negative curve {item!r} is neither a class string nor a list of integers"
            )
    prox = None
    if data.get("proximity") is not None:
        pairs = _json_list(data, "proximity")
        if not all(_is_int_list(p) and len(p) == 2 for p in pairs):
            raise ConfigurationError(f"proximity {pairs!r} is not a list of integer pairs")
        prox = ProximityMatrix(r, frozenset(tuple(p) for p in pairs))
    return SurfaceConfig(r=r, neg_curves=tuple(curves), proximity=prox)


def _json_list(data: dict, key: str) -> list | tuple:
    value = data.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"'{key}' must be a list, got {value!r}")
    return value


def _is_int_list(value: object) -> bool:
    return isinstance(value, (list, tuple)) and all(type(a) is int for a in value)


def load_config(path: str) -> SurfaceConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
