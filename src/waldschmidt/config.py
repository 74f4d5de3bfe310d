"""Surface configurations: proximity structure, NEG(X) lists, validation.

A SurfaceConfig is the lattice-level avatar of a blowup of the plane at
r points: the list of classes of prime divisors of negative square,
plus an optional proximity matrix recording which points are infinitely
near which earlier ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .classes import candidate_members
from .errors import ConfigurationError, UnsupportedRankError
from .lattice import (
    DivisorClass,
    canonical_class,
    line_class,
    parse_class,
    point_class,
)


@dataclass(frozen=True)
class ProximityMatrix:
    """Pairs (j, i) meaning point p_j is proximate to the earlier point p_i."""

    r: int
    pairs: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", frozenset(tuple(p) for p in self.pairs))
        for j, i in self.pairs:
            if not (1 <= i < j <= self.r):
                raise ConfigurationError(
                    f"proximity pair ({j}, {i}) must satisfy 1 <= i < j <= {self.r}"
                )

    def proximate_to(self, i: int) -> list[int]:
        return sorted(j for j, t in self.pairs if t == i)

    def is_proximate(self, j: int, i: int) -> bool:
        return (j, i) in self.pairs


@dataclass(frozen=True)
class SurfaceConfig:
    """r, the NEG(X) class list, and an optional proximity matrix."""

    r: int
    neg_curves: tuple[DivisorClass, ...]
    proximity: ProximityMatrix | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.r <= 8:
            raise UnsupportedRankError(f"rank {self.r} outside supported range 0..8")
        object.__setattr__(self, "neg_curves", tuple(self.neg_curves))

    @cached_property
    def report(self) -> ValidationReport:
        """Validation of this object: computed on first use, kept on the instance."""
        return _validate(self)


@dataclass(frozen=True)
class ValidationReport:
    """Violations found by validate_config; empty `errors` means valid."""

    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_config(cfg: SurfaceConfig) -> ValidationReport:
    """Check all SurfaceConfig invariants; violations are data, not errors.

    The checks run once per object; an equal configuration built anew is
    checked again.  Distinct (-1)-classes E, F (E.E = K.E = -1) always
    pair to E.F >= 0 when r <= 8, because K-perp is then negative definite
    and even; so only pairs holding some other class are computed.
    """
    return cfg.report


def _validate(cfg: SurfaceConfig) -> ValidationReport:
    errors: list[str] = []
    warnings: list[str] = []
    r = cfg.r
    candidates = candidate_members(r) if 2 <= r <= 8 else None
    seen: set[tuple[int, ...]] = set()
    # Curves of rank r as (class, coefficients, (a0, -a1, ..., -ar)); `others`
    # holds the positions of those that are not (-1)-classes.
    kept: list[tuple[DivisorClass, tuple[int, ...], tuple[int, ...]]] = []
    others: list[int] = []
    for c in cfg.neg_curves:
        coeffs = c.coeffs
        if len(coeffs) != r + 1:
            errors.append(f"{c}: rank {c.r} does not match configuration rank {r}")
            continue
        if coeffs in seen:
            errors.append(f"{c}: duplicate negative curve")
        seen.add(coeffs)
        signed = (coeffs[0],) + tuple([-a for a in coeffs[1:]])
        square = sum(map(mul, signed, coeffs))
        if square >= 0:
            errors.append(f"{c}: nonnegative self-intersection {square}")
        elif candidates is not None and coeffs not in candidates:
            errors.append(f"{c}: not a candidate negative class at rank {r}")
        if square != -1 or -3 * coeffs[0] - sum(coeffs[1:]) != -1:  # c.c, K.c
            others.append(len(kept))
        kept.append((c, coeffs, signed))
    # Distinct (-1)-classes E, F never pair negatively: E - F lies in K-perp,
    # so (E - F)^2 = -2 - 2 E.F <= -2.  Only pairs holding another class are checked.
    k = 0  # others[k:] are the positions after a that hold other classes
    for a, (u, ucoeffs, signed) in enumerate(kept):
        if k < len(others) and others[k] == a:
            k += 1
            partners: Iterable[int] = range(a + 1, len(kept))
        else:
            partners = others[k:]
        for b in partners:
            v, vcoeffs, _ = kept[b]
            p = sum(map(mul, signed, vcoeffs))
            if p < 0 and ucoeffs != vcoeffs:
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
    out = []
    for i in range(1, p.r + 1):
        acc = [0] * (p.r + 1)
        acc[i] = 1
        for j in p.proximate_to(i):
            acc[j] = -1
        out.append(DivisorClass(tuple(acc)))
    return out


def check_multiplicities(m: Sequence[int], r: int) -> tuple[int, ...]:
    m = tuple(int(x) for x in m)
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
    mm = check_multiplicities(m, p.r)
    slacks = tuple(
        mm[i - 1] - sum(mm[j - 1] for j in p.proximate_to(i))
        for i in range(1, p.r + 1)
    )
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
