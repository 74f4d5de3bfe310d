"""The 30 blowup models of weak del Pezzo surfaces of degree 4.

Blowups of the plane at 5 essentially distinct points giving a weak del
Pezzo surface fall into finitely many types (n, sigma, l): n points
actually on the plane, sigma the Dynkin type of the (-2)-curves, l the
number of (-1)-curves.  Types admitting two distinct blowup models
carry an (a)/(b) suffix.  Each entry stores its label, its roots (the
(-2)-curves), its degenerations and the paper's value; catalog() reads
(n, sigma, l) off the label and derives the lines, the exceptional
classes meeting every root nonnegatively.  Roots and lines make up the
NEG(X) list, so the Waldschmidt constant of the subscheme
p_1 + ... + p_5 is an exact linear program over it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache

from ._record import Record
from .classes import enumerate_exceptional
from .cone import Certificate, verify_certificate, waldschmidt
from .config import SurfaceConfig
from .errors import ConfigurationError
from .lattice import DivisorClass, pairing, parse_classes

R5 = 5


class Dp4Type(Record):
    """One blowup model: label (n,sigma,l) with optional (a)/(b) variant."""

    # No __slots__: the configuration is cached in the instance __dict__.
    _fields = ("label", "n", "sigma", "l", "roots", "lines", "degenerates_to",
               "expected_alpha_hat")
    label: str
    n: int
    sigma: str
    l: int
    roots: tuple[DivisorClass, ...]
    lines: tuple[DivisorClass, ...]
    degenerates_to: tuple[tuple[str, bool], ...]
    expected_alpha_hat: Fraction

    def config(self) -> SurfaceConfig:
        """The NEG list with no proximity matrix, so waldschmidt() never
        checks the proximity inequalities derive_proximity(5, classes())
        reads off it.  All-ones meets them on every entry; for an m that
        fails them the LP value need not be the Waldschmidt constant.

        Every call returns the same object, so the model is validated once."""
        return self._config

    @cached_property
    def _config(self) -> SurfaceConfig:
        return SurfaceConfig(R5, self.classes())

    def classes(self) -> tuple[DivisorClass, ...]:
        return self.roots + self.lines

    def edges(self) -> frozenset[tuple[int, int]]:
        """Adjacency among the listed classes: pairs with pairing one."""
        cls = self.classes()
        return frozenset(
            (i, j)
            for i in range(len(cls))
            for j in range(i + 1, len(cls))
            if pairing(cls[i], cls[j]) == 1
        )


def sigma_rank(sigma: str) -> int:
    """Total rank of a Dynkin symbol product like '2A1A3' ('' is empty)."""
    rank = 0
    for count, _, size in re.findall(r"(\d*)([ADE])(\d)", sigma):
        rank += (int(count) if count else 1) * int(size)
    return rank


_TWO = Fraction(2)

# label, roots, degenerations (name, flagged), expected alpha_hat
_CATALOG_DATA: tuple = (
    ("(1,D5,1)", ("E_12", "E_23", "E_34", "E_45", "L_123"),
     (), Fraction(5, 3)),
    ("(1,A4,3)", ("E_12", "E_23", "E_34", "E_45"), (), _TWO),
    ("(2,2A1A3,2)", ("E_45", "L_145", "E_12", "E_23", "L_123"),
     (), Fraction(5, 3)),
    ("(2,D4,2)", ("L_123", "E_34", "E_45", "E_23"), (), _TWO),
    ("(2,A4,3)(a)", ("E_12", "E_23", "L_124", "E_45"), (), Fraction(7, 4)),
    ("(2,A4,3)(b)", ("L_134", "E_45", "E_34", "E_13"), (), _TWO),
    ("(2,A1A3,3)", ("E_23", "E_12", "L_145", "E_45"), (), _TWO),
    ("(2,2A1A2,4)", ("E_12", "E_23", "L_123", "E_45"), (), _TWO),
    ("(2,A3,5)", ("E_12", "E_23", "E_34"), (("(1,A4,3)", False),), _TWO),
    ("(2,A1A2,6)", ("E_23", "E_12", "E_45"), (("(2,A1A3,3)", False),), _TWO),
    ("(3,A1A3,3)", ("L_123", "E_14", "E_45", "L_145"), (), Fraction(5, 3)),
    ("(3,2A1A2,4)", ("E_45", "L_124", "E_12", "L_345"), (), Fraction(9, 5)),
    ("(3,4A1,4)", ("E_12", "E_45", "L_345", "L_123"), (), _TWO),
    ("(3,A3,4)", ("L_145", "E_12", "E_23"), (("(2,A1A3,3)", False),), _TWO),
    ("(3,A3,5)(a)", ("E_14", "L_123", "E_25"), (), _TWO),
    ("(3,A3,5)(b)", ("E_23", "E_34", "L_123"), (("(2,D4,2)", False),), _TWO),
    ("(3,A1A2,6)(a)", ("E_34", "L_123", "E_12"),
     (("(2,A1A3,3)", False),), _TWO),
    ("(3,A1A2,6)(b)", ("E_12", "E_23", "L_123"),
     (("(2,2A1A2,4)", False),), _TWO),
    ("(3,3A1,6)", ("L_345", "E_12", "E_34"), (("(2,2A1A2,4)", False),), _TWO),
    ("(3,A2,8)", ("E_23", "E_12"), (("(2,A1A2,6)", False),), _TWO),
    ("(3,2A1,9)", ("E_34", "E_12"), (("(2,A1A2,6)", False),), _TWO),
    ("(4,A1A2,6)", ("L_123", "E_14", "L_145"),
     (("(3,A1A3,3)", False),), Fraction(9, 5)),
    ("(4,3A1,6)", ("E_23", "L_123", "L_145"), (("(3,4A1,4)", False),), _TWO),
    ("(4,A2,8)", ("L_145", "E_12"),
     (("(3,A1A2,6)(a)", False), ("(3,A1A2,6)(b)", False)), _TWO),
    ("(4,2A1,8)", ("E_12", "L_345"), (("(3,3A1,6)", False),), _TWO),
    ("(4,2A1,9)", ("L_123", "E_12"), (("(3,3A1,6)", False),), _TWO),
    ("(4,A1,12)", ("E_12",), (("(3,2A1,9)", False),), _TWO),
    ("(5,2A1,9)", ("L_145", "L_123"), (("(4,3A1,6)", False),), _TWO),
    ("(5,A1,12)", ("L_145",), (("(4,2A1,9)", True),), _TWO),
    ("(5,∅,16)", (), (), _TWO),
)

# "(n,sigma,l)" with an optional (a)/(b) suffix; sigma "∅" is the empty type.
_LABEL_RE = re.compile(r"\((\d+),([^,]*),(\d+)\)")


@lru_cache(maxsize=1)
def catalog() -> tuple[Dp4Type, ...]:
    """All 30 degree-4 blowup models, in catalog order.

    n, sigma and l are read off the label.  The lines are the exceptional
    classes, in enumerate_exceptional order, that pair nonnegatively with
    every root: on a weak del Pezzo surface these are the (-1)-curves.
    """
    exceptional = enumerate_exceptional(R5)
    out = []
    for label, root_names, degens, expected in _CATALOG_DATA:
        n, sigma, l = _LABEL_RE.match(label).groups()
        roots = parse_classes(root_names, R5)
        lines = tuple(e for e in exceptional if all(pairing(e, a) >= 0 for a in roots))
        out.append(
            Dp4Type(
                label=label,
                n=int(n),
                sigma="" if sigma == "∅" else sigma,
                l=int(l),
                roots=roots,
                lines=lines,
                degenerates_to=degens,
                expected_alpha_hat=expected,
            )
        )
    return tuple(out)


_LABEL_ALIASES = {"(5,EMPTY,16)": "(5,∅,16)", "(5,,16)": "(5,∅,16)"}


def find_type(label: str) -> Dp4Type:
    key = re.sub(r"\s+", "", label)
    key = _LABEL_ALIASES.get(key.upper(), key)
    for entry in catalog():
        if entry.label == key:
            return entry
    raise KeyError(f"unknown type label {label!r}")


class TableRow(Record):
    __slots__ = _fields = ("label", "alpha_hat", "certificate", "verified", "expected")
    label: str
    alpha_hat: Fraction
    certificate: Certificate
    verified: bool
    expected: Fraction

    @property
    def matches(self) -> bool:
        return self.alpha_hat == self.expected


class TableReport(Record):
    __slots__ = _fields = ("rows",)
    rows: tuple[TableRow, ...]

    @property
    def mismatches(self) -> tuple[TableRow, ...]:
        return tuple(row for row in self.rows if not row.matches)

    @property
    def all_verified(self) -> bool:
        return all(row.verified for row in self.rows)


def compute_table() -> TableReport:
    """Waldschmidt constants with m = (1,...,1) for every catalog entry.

    Each value carries a certificate that is independently re-checked;
    rows whose exact value differs from the recorded expected value are
    collected in `mismatches` rather than raised, so the full table is
    always reported.
    """
    ones = (1,) * R5
    rows = []
    for entry in catalog():
        cfg = entry.config()
        value, cert = waldschmidt(cfg, ones)
        rows.append(
            TableRow(
                label=entry.label,
                alpha_hat=value,
                certificate=cert,
                verified=verify_certificate(cert, cfg),
                expected=entry.expected_alpha_hat,
            )
        )
    return TableReport(tuple(rows))


class DegenerationEdge(Record):
    __slots__ = _fields = ("general", "special", "general_value", "special_value", "flagged")
    general: str
    special: str
    general_value: Fraction
    special_value: Fraction
    flagged: bool

    @property
    def ok(self) -> bool:
        return self.special_value <= self.general_value


class DegenerationReport(Record):
    __slots__ = _fields = ("edges",)
    edges: tuple[DegenerationEdge, ...]

    @property
    def ok(self) -> bool:
        """All unflagged edges satisfy the semicontinuity inequality."""
        return all(e.ok for e in self.edges if not e.flagged)


def check_degenerations(table: TableReport) -> DegenerationReport:
    """special <= general, read off compute_table()'s rows, for every
    recorded one-parameter specialization.

    Flagged edges (uncertain target) are reported but never asserted.
    """
    values = {row.label: row.alpha_hat for row in table.rows}
    edges = []
    for entry in catalog():
        for target, flagged in entry.degenerates_to:
            if target not in values:
                raise ConfigurationError(f"unknown degeneration target {target}")
            edges.append(
                DegenerationEdge(
                    general=entry.label,
                    special=target,
                    general_value=values[entry.label],
                    special_value=values[target],
                    flagged=flagged,
                )
            )
    return DegenerationReport(tuple(edges))


class BoundsReport(Record):
    __slots__ = _fields = ("values", "lower", "upper")
    values: tuple[Fraction, ...]
    lower: Fraction
    upper: Fraction

    @property
    def within_bounds(self) -> bool:
        return all(self.lower <= v <= self.upper for v in self.values)

    @property
    def value_set(self) -> frozenset[Fraction]:
        return frozenset(self.values)


def check_bounds(table: TableReport) -> BoundsReport:
    """compute_table()'s values against the exact window [r/3, generic value]."""
    return BoundsReport(
        values=tuple(row.alpha_hat for row in table.rows),
        lower=Fraction(R5, 3),
        upper=_TWO,
    )
