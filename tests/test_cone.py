import dataclasses
import random
from fractions import Fraction

import pytest

from helpers import brute_force_alpha_hat, three_generic_points
from waldschmidt import cone, config
from waldschmidt.cone import (
    Certificate,
    alpha_degree,
    certificate_failures,
    certificate_from_dict,
    chudnovsky_check,
    cone_membership,
    is_nef,
    monoid_membership,
    verify_certificate,
    waldschmidt,
)
from waldschmidt.config import (
    ProximityMatrix,
    SurfaceConfig,
    effective_generators,
    validate_config,
)
from waldschmidt.dp4 import find_type
from waldschmidt.errors import (
    BoundingFailureError,
    ConfigurationError,
    InfeasibleConeError,
    ProximityViolationError,
    SolverInvariantError,
)
from waldschmidt.lattice import (
    DivisorClass,
    class_sum,
    format_class,
    pairing,
    parse_class,
    parse_classes,
)
from waldschmidt.simplex import UNBOUNDED, LpResult

F = Fraction
ONES = (1,) * 5


def target(d, m, r=5):
    return DivisorClass(tuple([d] + [-m] * r))


def by_name(sol):
    return {format_class(g): c for g, c in sol.items()}


def test_cone_membership_triangular_example():
    gens = effective_generators(find_type("(1,D5,1)").config())
    sol = cone_membership(target(2, 1), gens)
    # The generators are linearly independent, so the solve is unique.
    assert by_name(sol) == {
        "L_123": F(2), "E_12": F(1), "E_23": F(2), "E_34": F(3),
        "E_45": F(2), "E_5": F(1),
    }
    assert cone_membership(target(1, 1), gens) is None
    assert cone_membership(DivisorClass((0,) * 6), gens) == {}


def test_cone_membership_rank_check():
    with pytest.raises(ConfigurationError):
        cone_membership(target(1, 1, r=4), [parse_class("E_1", 5)])


def test_monoid_membership_published_decompositions():
    cases = [
        ("(1,D5,1)", 5, 3,
         [(5, "L_123"), (2, "E_12"), (4, "E_23"), (6, "E_34"), (3, "E_45")]),
        ("(2,A4,3)(a)", 7, 4,
         [(6, "L_124"), (1, "L_45"), (2, "E_12"), (4, "E_23"), (3, "E_45")]),
        ("(3,2A1A2,4)", 9, 5,
         [(4, "L_124"), (3, "L_345"), (2, "L_13"), (1, "E_12"), (2, "E_45")]),
    ]
    for label, d, m, combo in cases:
        cfg = find_type(label).config()
        gens = effective_generators(cfg)
        # The stated combination really sums to d*L - m*E_Z ...
        assert class_sum(5, [(c, parse_class(g, 5)) for c, g in combo]) == target(d, m)
        # ... and the search independently confirms integer membership.
        sol = monoid_membership(target(d, m), gens)
        assert sol is not None
        assert class_sum(5, [(c, g) for g, c in sol.items()]) == target(d, m)
        assert all(isinstance(c, int) and c > 0 for c in sol.values())


def test_monoid_membership_absent_and_zero():
    gens = effective_generators(find_type("(1,D5,1)").config())
    assert monoid_membership(target(4, 3), gens) is None
    assert monoid_membership(DivisorClass((0,) * 6), gens) == {}


def test_monoid_requires_bounding_positivity():
    with pytest.raises(BoundingFailureError):
        monoid_membership(
            DivisorClass((1, 0)), [DivisorClass((0, -1)), DivisorClass((0, 1))]
        )


def test_monoid_subset_of_cone():
    rng = random.Random(7)
    cfg = find_type("(2,2A1A2,4)").config()
    gens = effective_generators(cfg)
    for _ in range(25):
        d = rng.randrange(0, 8)
        m = rng.randrange(0, 4)
        t = target(d, m)
        if monoid_membership(t, gens) is not None:
            assert cone_membership(t, gens) is not None


def test_is_nef_examples():
    d5 = find_type("(1,D5,1)").config()
    assert is_nef(parse_class("K", 5) * -1, d5)
    gen16 = find_type("(5,∅,16)").config()
    assert is_nef(parse_class("[5,-2,-2,-2,-2,-2]", 5), gen16)
    assert is_nef(parse_class("L", 5), d5)
    assert not is_nef(parse_class("[1,-1,-1,0,0,0]", 5), gen16)


def test_waldschmidt_known_values():
    value, cert = waldschmidt(find_type("(1,D5,1)").config(), ONES)
    assert value == F(5, 3)
    assert verify_certificate(cert, find_type("(1,D5,1)").config())

    cfg3 = three_generic_points()
    value3, cert3 = waldschmidt(cfg3, (1, 1, 1))
    assert value3 == F(3, 2)
    assert value3 == brute_force_alpha_hat(cfg3, (1, 1, 1))
    assert verify_certificate(cert3, cfg3)


def test_waldschmidt_zero_multiplicities():
    cfg = three_generic_points()
    value, cert = waldschmidt(cfg, (0, 0, 0))
    assert value == 0
    assert verify_certificate(cert, cfg)


def test_waldschmidt_r2_with_unequal_multiplicities():
    cfg = SurfaceConfig(2, parse_classes(["E_1", "E_2", "L_12"], 2))
    value, cert = waldschmidt(cfg, (2, 1))
    assert value == 2
    spec_f = parse_class("L_1", 2)
    assert is_nef(spec_f, cfg)
    assert pairing(DivisorClass((2, -2, -1)), spec_f) == 0
    assert value == brute_force_alpha_hat(cfg, (2, 1))


def test_waldschmidt_duality_relation():
    # The certificate's nef class attains the value as E_Z.F / L.F.
    for label in ("(1,D5,1)", "(2,A4,3)(a)", "(3,2A1A2,4)", "(5,∅,16)"):
        cfg = find_type(label).config()
        value, cert = waldschmidt(cfg, ONES)
        ez = DivisorClass((0, 1, 1, 1, 1, 1))
        lf = pairing(parse_class("L", 5), cert.nef)
        assert lf > 0
        assert F(pairing(ez, cert.nef), lf) == value


def test_waldschmidt_homogeneity():
    for label in ("(1,D5,1)", "(3,2A1A2,4)"):
        cfg = find_type(label).config()
        base, _ = waldschmidt(cfg, ONES)
        for c in (2, 3):
            scaled, cert = waldschmidt(cfg, tuple(c * x for x in ONES))
            assert scaled == c * base
            assert verify_certificate(cert, cfg)


def test_waldschmidt_permutation_equivariance():
    # Relabel the two infinitely-near chains of (2,A4,3)(a) compatibly.
    base_cfg = find_type("(2,A4,3)(a)").config()
    relabel = {1: 1, 2: 2, 3: 4, 4: 3, 5: 5}

    def apply(c):
        out = [c.coeffs[0]] + [0] * 5
        for i in range(1, 6):
            out[relabel[i]] = c.coeffs[i]
        return DivisorClass(tuple(out))

    cfg = SurfaceConfig(5, tuple(apply(c) for c in base_cfg.neg_curves))
    m = (1, 2, 3, 1, 2)
    mm = [0] * 5
    for i in range(1, 6):
        mm[relabel[i] - 1] = m[i - 1]
    assert waldschmidt(cfg, tuple(mm))[0] == waldschmidt(base_cfg, m)[0]


def test_waldschmidt_monotone_in_multiplicities():
    cfg = find_type("(2,2A1A2,4)").config()
    lo, _ = waldschmidt(cfg, (1, 1, 0, 1, 0))
    hi, _ = waldschmidt(cfg, (1, 2, 1, 1, 0))
    assert lo <= hi


def test_waldschmidt_proximity_refusal():
    prox = ProximityMatrix(2, frozenset({(2, 1)}))
    cfg = SurfaceConfig(
        2, parse_classes(["E_12", "E_2", "L_12"], 2), proximity=prox
    )
    assert waldschmidt(cfg, (1, 1))[0] == 1
    with pytest.raises(ProximityViolationError):
        waldschmidt(cfg, (1, 2))


def test_waldschmidt_infeasible_configuration():
    cfg = SurfaceConfig(2, parse_classes(["E_1", "E_2"], 2))
    with pytest.raises(InfeasibleConeError):
        waldschmidt(cfg, (1, 1))


def test_waldschmidt_invalid_configuration():
    cfg = SurfaceConfig(2, parse_classes(["L"], 2))
    with pytest.raises(ConfigurationError):
        waldschmidt(cfg, (1, 1))


def test_verify_certificate_published_nef_pairs():
    a43 = find_type("(2,A4,3)(a)").config()
    cert = Certificate(
        d=7, m=4, multiplicities=ONES,
        decomposition=(
            (parse_class("L_124", 5), F(6)), (parse_class("L_45", 5), F(1)),
            (parse_class("E_12", 5), F(2)), (parse_class("E_23", 5), F(4)),
            (parse_class("E_45", 5), F(3)),
        ),
        nef=parse_class("[4,-1,-1,-1,-2,-2]", 5),
    )
    assert verify_certificate(cert, a43)

    t2 = find_type("(3,2A1A2,4)").config()
    cert2 = Certificate(
        d=9, m=5, multiplicities=ONES,
        decomposition=(
            (parse_class("L_124", 5), F(4)), (parse_class("L_345", 5), F(3)),
            (parse_class("L_13", 5), F(2)), (parse_class("E_12", 5), F(1)),
            (parse_class("E_45", 5), F(2)),
        ),
        nef=parse_class("[5,-2,-2,-3,-1,-1]", 5),
    )
    assert verify_certificate(cert2, t2)


def test_verify_certificate_rejects_bad_data():
    cfg = find_type("(1,D5,1)").config()
    _, cert = waldschmidt(cfg, ONES)
    zero_nef = Certificate(
        d=cert.d, m=cert.m, multiplicities=cert.multiplicities,
        decomposition=cert.decomposition, nef=DivisorClass((0,) * 6),
    )
    assert not verify_certificate(zero_nef, cfg)
    assert certificate_failures(zero_nef, cfg) == ["nef class is zero"]
    wrong_sum = Certificate(
        d=cert.d + 1, m=cert.m, multiplicities=cert.multiplicities,
        decomposition=cert.decomposition, nef=cert.nef,
    )
    assert not verify_certificate(wrong_sum, cfg)
    assert certificate_failures(wrong_sum, cfg) == [
        "decomposition sums to [5,-3,-3,-3,-3,-3], not d*L - m*E_Z = [6,-3,-3,-3,-3,-3]",
        "(d*L - m*E_Z).F = 3, not 0",
    ]
    not_nef = Certificate(
        d=cert.d, m=cert.m, multiplicities=cert.multiplicities,
        decomposition=cert.decomposition,
        nef=parse_class("[1,-1,-1,0,0,0]", 5),
    )
    assert not verify_certificate(not_nef, cfg)
    assert certificate_failures(not_nef, cfg) == [
        "nef class L_12 pairs negatively with L_123",
        "(d*L - m*E_Z).F = -1, not 0",
    ]
    assert certificate_failures(cert, cfg) == []
    bad = {
        "degree d = -1 is negative": dataclasses.replace(cert, d=-1),
        "multiplicity scale m = 0 is not positive": dataclasses.replace(cert, m=0),
        "4 multiplicities for 5 points": dataclasses.replace(
            cert, multiplicities=cert.multiplicities[:4]
        ),
        "L is not an effective-cone generator": dataclasses.replace(
            cert, decomposition=cert.decomposition + ((parse_class("L", 5), F(0)),)
        ),
        "E_12 has negative coefficient -1": dataclasses.replace(
            cert, decomposition=((parse_class("E_12", 5), F(-1)),) + cert.decomposition[1:]
        ),
        "nef class E_1 has rank 2, not 5": dataclasses.replace(
            cert, nef=parse_class("E_1", 2)
        ),
    }
    for reason, bad_cert in bad.items():
        assert not verify_certificate(bad_cert, cfg)
        assert reason in certificate_failures(bad_cert, cfg), reason
    invalid = SurfaceConfig(5, parse_classes(["L"], 5))
    assert not verify_certificate(cert, invalid)
    with pytest.raises(ConfigurationError):
        certificate_failures(cert, invalid)


def test_certificate_json_roundtrip():
    cfg = find_type("(3,2A1A2,4)").config()
    _, cert = waldschmidt(cfg, ONES)
    data = cert.to_dict()
    assert data["d"] == 9 and data["m"] == 5
    assert all("/" in item["coefficient"] or item["coefficient"].isdigit()
               for item in data["decomposition"])
    back = certificate_from_dict(data, 5)
    assert back == cert
    assert verify_certificate(back, cfg)


def test_alpha_degree_examples():
    assert alpha_degree(find_type("(5,∅,16)").config(), ONES) == 2
    assert alpha_degree(find_type("(1,D5,1)").config(), ONES) == 2
    cfg3 = three_generic_points()
    assert alpha_degree(cfg3, (0, 0, 0)) == 0
    assert alpha_degree(cfg3, (1, 1, 1)) == 2
    # d = 1 must genuinely be infeasible at (5,∅,16):
    gens = effective_generators(find_type("(5,∅,16)").config())
    assert monoid_membership(target(1, 1), gens) is None


def test_chudnovsky_examples():
    assert chudnovsky_check(find_type("(1,D5,1)").config(), ONES)
    assert chudnovsky_check(find_type("(5,∅,16)").config(), ONES)
    assert chudnovsky_check(three_generic_points(), (0, 0, 0))


def _record_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_configuration_validated_once_per_object(monkeypatch):
    calls = _record_calls(monkeypatch, config, "candidate_members")
    cfg = find_type("(1,D5,1)").config()
    _, cert = waldschmidt(cfg, ONES)
    assert verify_certificate(cert, cfg)
    assert len(calls) == 1
    # An equal configuration built anew shares no cache with the first.
    twin = find_type("(1,D5,1)").config()
    assert twin == cfg and twin is not cfg
    assert validate_config(twin).ok
    assert len(calls) == 2


def test_chudnovsky_solves_one_lp(monkeypatch):
    solves = _record_calls(monkeypatch, cone, "solve_lp")
    assert chudnovsky_check(find_type("(1,D5,1)").config(), ONES)
    assert len(solves) == 1


def test_monoid_rejects_non_triangular_generators():
    e1, e12 = parse_class("E_1", 2), parse_class("E_12", 2)
    # No valid configuration holds both: they pair to -1.
    assert not validate_config(SurfaceConfig(2, (e1, e12))).ok
    with pytest.raises(ConfigurationError, match="E_1 and E_12"):
        monoid_membership(DivisorClass((0, 2, -1)), [e1, e12])


def test_solver_invariants_raise_typed_errors(monkeypatch):
    cfg = find_type("(1,D5,1)").config()
    real = cone.solve_lp

    def zero_optimum(a, b, c):
        res = real(a, b, c)
        return dataclasses.replace(res, x=res.x[:-1] + (F(0),))

    def loose_dual(a, b, c):
        res = real(a, b, c)
        return dataclasses.replace(res, dual=(F(-1, 2),) + res.dual[1:])

    monkeypatch.setattr(cone, "solve_lp", zero_optimum)
    with pytest.raises(SolverInvariantError, match="not positive"):
        waldschmidt(cfg, ONES)
    monkeypatch.setattr(cone, "solve_lp", loose_dual)
    with pytest.raises(SolverInvariantError, match="not -1"):
        waldschmidt(cfg, ONES)
    monkeypatch.setattr(cone, "solve_lp", lambda a, b, c: LpResult(UNBOUNDED, None, None, None))
    with pytest.raises(SolverInvariantError, match="unbounded"):
        waldschmidt(cfg, ONES)
    with pytest.raises(SolverInvariantError, match="unbounded"):
        cone_membership(target(2, 1), effective_generators(cfg))
