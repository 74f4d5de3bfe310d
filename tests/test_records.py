"""The package's immutable record types behave as value objects.

One instance of each type: its repr, equality only with an equal
instance of the same class, the hash of its field tuple, immutability,
copies and pickle round trips that compare equal, positional match
patterns, and constructor arguments that bind as a signature binds them.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from waldschmidt.classes import CandidateFamily
from waldschmidt.cone import Certificate
from waldschmidt.config import ProximityMatrix, SurfaceConfig, ValidationReport
from waldschmidt.dp4 import (
    BoundsReport,
    DegenerationEdge,
    DegenerationReport,
    Dp4Type,
    TableReport,
    TableRow,
)
from waldschmidt.lattice import DivisorClass
from waldschmidt.monomial import MonomialIdeal
from waldschmidt.simplex import LpResult

L, E1 = DivisorClass((1, 0)), DivisorClass((0, 1))


def _certificate():
    return Certificate(d=2, m=1, multiplicities=(1,), decomposition=((L, F(2)),), nef=L)


def _row():
    return TableRow(label="(5,∅,16)", alpha_hat=F(2), certificate=_certificate(),
                    verified=True, expected=F(2))


def _edge():
    return DegenerationEdge(general="(2,A3,5)", special="(1,A4,3)", general_value=F(2),
                            special_value=F(2), flagged=False)


# (factory, field names, repr); each factory builds a new, equal instance.
CASES = {
    "CandidateFamily": (
        lambda: CandidateFamily("B", (E1,)),
        ("tag", "members"),
        "CandidateFamily(tag='B', members=(DivisorClass(coeffs=(0, 1)),))",
    ),
    "Certificate": (
        _certificate,
        ("d", "m", "multiplicities", "decomposition", "nef"),
        "Certificate(d=2, m=1, multiplicities=(1,), decomposition=((DivisorClass("
        "coeffs=(1, 0)), Fraction(2, 1)),), nef=DivisorClass(coeffs=(1, 0)))",
    ),
    "ProximityMatrix": (
        lambda: ProximityMatrix(3, [(2, 1)]),
        ("r", "pairs"),
        "ProximityMatrix(r=3, pairs=frozenset({(2, 1)}))",
    ),
    "SurfaceConfig": (
        lambda: SurfaceConfig(r=1, neg_curves=[E1], proximity=ProximityMatrix(1)),
        ("r", "neg_curves", "proximity"),
        "SurfaceConfig(r=1, neg_curves=(DivisorClass(coeffs=(0, 1)),), "
        "proximity=ProximityMatrix(r=1, pairs=frozenset()))",
    ),
    "ValidationReport": (
        lambda: ValidationReport(errors=("bad",)),
        ("errors", "warnings"),
        "ValidationReport(errors=('bad',), warnings=())",
    ),
    "Dp4Type": (
        lambda: Dp4Type(label="(5,A1,12)", n=5, sigma="A1", l=12, roots=(L - E1,),
                        lines=(E1,), degenerates_to=(("(4,2A1,9)", True),),
                        expected_alpha_hat=F(2)),
        ("label", "n", "sigma", "l", "roots", "lines", "degenerates_to",
         "expected_alpha_hat"),
        "Dp4Type(label='(5,A1,12)', n=5, sigma='A1', l=12, roots=(DivisorClass("
        "coeffs=(1, -1)),), lines=(DivisorClass(coeffs=(0, 1)),), degenerates_to="
        "(('(4,2A1,9)', True),), expected_alpha_hat=Fraction(2, 1))",
    ),
    "TableRow": (
        _row,
        ("label", "alpha_hat", "certificate", "verified", "expected"),
        "TableRow(label='(5,∅,16)', alpha_hat=Fraction(2, 1), certificate=Certificate("
        "d=2, m=1, multiplicities=(1,), decomposition=((DivisorClass(coeffs=(1, 0)), "
        "Fraction(2, 1)),), nef=DivisorClass(coeffs=(1, 0))), verified=True, "
        "expected=Fraction(2, 1))",
    ),
    "TableReport": (
        lambda: TableReport((_row(),)),
        ("rows",),
        "TableReport(rows=(TableRow(label='(5,∅,16)', alpha_hat=Fraction(2, 1), "
        "certificate=Certificate(d=2, m=1, multiplicities=(1,), decomposition=(("
        "DivisorClass(coeffs=(1, 0)), Fraction(2, 1)),), nef=DivisorClass(coeffs=(1, "
        "0))), verified=True, expected=Fraction(2, 1)),))",
    ),
    "DegenerationEdge": (
        _edge,
        ("general", "special", "general_value", "special_value", "flagged"),
        "DegenerationEdge(general='(2,A3,5)', special='(1,A4,3)', general_value="
        "Fraction(2, 1), special_value=Fraction(2, 1), flagged=False)",
    ),
    "DegenerationReport": (
        lambda: DegenerationReport((_edge(),)),
        ("edges",),
        "DegenerationReport(edges=(DegenerationEdge(general='(2,A3,5)', special="
        "'(1,A4,3)', general_value=Fraction(2, 1), special_value=Fraction(2, 1), "
        "flagged=False),))",
    ),
    "BoundsReport": (
        lambda: BoundsReport(values=(F(5, 3), F(2)), lower=F(5, 3), upper=F(2)),
        ("values", "lower", "upper"),
        "BoundsReport(values=(Fraction(5, 3), Fraction(2, 1)), lower=Fraction(5, 3), "
        "upper=Fraction(2, 1))",
    ),
    "DivisorClass": (
        lambda: DivisorClass([1, -1, 0]),
        ("coeffs",),
        "DivisorClass(coeffs=(1, -1, 0))",
    ),
    "MonomialIdeal": (
        lambda: MonomialIdeal(("x", "y"), ((1, 1), (2, 0), (2, 1))),
        ("variables", "generators"),
        "MonomialIdeal(variables=('x', 'y'), generators=((2, 0), (1, 1)))",
    ),
    "LpResult": (
        lambda: LpResult("optimal", 2, (2, 0), 2, (-1,)),
        ("status", "den", "x_num", "objective_num", "dual_num"),
        "LpResult(status='optimal', den=2, x_num=(2, 0), objective_num=2, dual_num=(-1,))",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, _, text = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", CASES)
def test_equality_is_by_class_and_fields(name):
    make, names, _ = CASES[name]
    obj, twin = make(), make()
    assert obj is not twin and obj == twin and not obj != twin
    values = tuple(getattr(obj, f) for f in names)
    assert obj.__eq__(values) is NotImplemented
    assert obj != values and values != obj


@pytest.mark.parametrize("name", CASES)
def test_hash_is_the_field_tuple_hash(name):
    make, names, _ = CASES[name]
    obj = make()
    assert hash(obj) == hash(tuple(getattr(obj, f) for f in names)) == hash(make())


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, names, _ = CASES[name]
    obj = make()
    before = getattr(obj, names[0])
    with pytest.raises(AttributeError, match=f"cannot assign to field '{names[0]}'"):
        setattr(obj, names[0], None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        obj.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{names[0]}'"):
        delattr(obj, names[0])
    assert getattr(obj, names[0]) == before


@pytest.mark.parametrize("name", CASES)
def test_copies_and_pickles_are_equal(name):
    make, _, _ = CASES[name]
    obj = make()
    for twin in (copy.copy(obj), copy.deepcopy(obj),
                 pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))):
        assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)


@pytest.mark.parametrize("name", CASES)
def test_match_patterns_take_the_fields_in_order(name):
    make, names, _ = CASES[name]
    obj = make()
    cls = type(obj)
    assert cls.__match_args__ == names
    match obj:
        case cls(first):
            assert first == getattr(obj, names[0])
        case _:
            pytest.fail(f"{obj!r} does not match {name}(first)")


@pytest.mark.parametrize("name", CASES)
def test_arguments_bind_as_in_a_signature(name):
    make, names, _ = CASES[name]
    obj = make()
    cls, values = type(obj), [getattr(obj, f) for f in names]
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == obj
    for args, kwargs in [
        (values + [None], {}),  # one argument too many
        (values, {"unknown": None}),
        (values[:1], dict(zip(names, values))),  # the first field twice
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    if name != "ValidationReport":  # its fields have defaults
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], values[1:])))
