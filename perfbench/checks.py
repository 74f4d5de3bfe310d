"""Exact output checks that share no code with the package under test.

Divisor classes are plain integer tuples (a0, a1, ..., ar) with the
intersection form diag(1, -1, ..., -1).  The class-string parser, the
pairing, the certificate conditions and the monomial parser are written
out here again, so a defect in the package cannot hide in its own check.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[int, ...]

_TOKEN = re.compile(r"^(?:(L|K)|E_(\d+)|L_(\d+)|Q_(\d+)|C_(\d);(\d+)|\[(-?\d+(?:,-?\d+)*)\])$")


def pairing(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def parse_class(text: str, r: int) -> Vec:
    """Class string -> coefficient tuple (grammar of the CLI's JSON output)."""
    m = _TOKEN.match(text.replace(" ", ""))
    if m is None:
        raise ValueError(f"bad class string {text!r}")
    named, e_idx, l_idx, q_idx, c_first, c_rest, raw = m.groups()
    if raw is not None:
        out = tuple(int(t) for t in raw.split(","))
        if len(out) != r + 1:
            raise ValueError(f"raw class {text!r} has wrong length")
        return out
    acc = [0] * (r + 1)
    if named == "L":
        acc[0] = 1
    elif named == "K":
        acc = [-3] + [1] * r
    elif e_idx is not None:
        digits = [int(ch) for ch in e_idx]
        acc[digits[0]] = 1
        for i in digits[1:]:
            acc[i] = -1
    elif c_first is not None:
        acc[0] = 3
        acc[int(c_first)] = -2
        for ch in c_rest:
            acc[int(ch)] = -1
    else:
        acc[0] = 1 if l_idx is not None else 2
        for ch in l_idx if l_idx is not None else q_idx:
            acc[int(ch)] = -1
    return tuple(acc)


def certificate_errors(
    d: int,
    den: int,
    mult: Sequence[int],
    decomposition: Iterable[tuple[Vec, Fraction]],
    nef: Vec,
    generators: frozenset[Vec],
) -> list[str]:
    """Conditions the certificate for alpha_hat = d/den fails; empty means sound.

    The decomposition must be nonnegative over the generators and sum to
    d*L - den*E_Z; the nef class must pair >= 0 with every generator and
    be orthogonal to that target.
    """
    errs: list[str] = []
    r = len(mult)
    if d < 0 or den <= 0:
        errs.append(f"bad ratio {d}/{den}")
        return errs
    target = (d,) + tuple(-den * x for x in mult)
    acc = [Fraction(0)] * (r + 1)
    for g, c in decomposition:
        if g not in generators:
            errs.append(f"{g} is not a generator")
        if c < 0:
            errs.append(f"negative coefficient {c} on {g}")
        for j, a in enumerate(g):
            acc[j] += c * a
    if tuple(acc) != target:
        errs.append("decomposition does not sum to d*L - m*E_Z")
    if len(nef) != r + 1 or not any(nef):
        errs.append(f"bad nef class {nef}")
        return errs
    if any(pairing(nef, g) < 0 for g in generators):
        errs.append("nef class pairs negatively with a generator")
    if pairing(nef, target) != 0:
        errs.append("nef class is not orthogonal to the target")
    return errs


def monoid_witness_errors(
    witness: dict[Vec, int], target: Vec, generators: frozenset[Vec]
) -> list[str]:
    """A nonnegative integer combination of generators must equal `target`."""
    errs: list[str] = []
    acc = [0] * len(target)
    for g, n in witness.items():
        if g not in generators:
            errs.append(f"{g} is not a generator")
        if not isinstance(n, int) or n < 0:
            errs.append(f"bad multiplicity {n!r} on {g}")
        for j, a in enumerate(g):
            acc[j] += n * a
    if tuple(acc) != target:
        errs.append("witness does not sum to the target")
    return errs


def parse_monomials(text: str, variables: Sequence[str]) -> frozenset[Vec]:
    """'x^2*y, z' -> {(2, 1, 0), (0, 0, 1)}; '1' is the unit monomial."""
    out = set()
    for part in text.split(","):
        exps = [0] * len(variables)
        part = part.strip()
        if part != "1":
            for factor in part.split("*"):
                name, _, power = factor.partition("^")
                exps[variables.index(name)] += int(power) if power else 1
        out.add(tuple(exps))
    return frozenset(out)
