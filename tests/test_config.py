import itertools
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from helpers import generic_config
from waldschmidt import classes, config
from waldschmidt.classes import (
    candidate_members,
    candidate_sets,
    enumerate_exceptional,
    enumerate_roots,
)
from waldschmidt.config import (
    ProximityMatrix,
    SurfaceConfig,
    ValidationReport,
    config_from_dict,
    derive_proximity,
    effective_generators,
    proximity_check,
    strict_transform_components,
    validate_config,
)
from waldschmidt.dp4 import find_type
from waldschmidt.errors import ConfigurationError
from waldschmidt.lattice import (
    DivisorClass,
    format_class,
    pairing,
    parse_class,
    parse_classes,
)


def test_catalog_configuration_valid():
    report = validate_config(find_type("(1,D5,1)").config())
    assert report.ok and not report.errors


def test_nonnegative_square_rejected():
    cfg = SurfaceConfig(2, parse_classes(["L", "E_1"], 2))
    report = validate_config(cfg)
    assert not report.ok
    assert any("nonnegative self-intersection" in e for e in report.errors)


def test_negative_mutual_pairing_rejected():
    cfg = SurfaceConfig(2, (parse_class("E_12", 2), parse_class("[0,-1,1]", 2)))
    report = validate_config(cfg)
    assert not report.ok
    # e1-e2 and e2-e1 pair to -2, impossible for distinct prime divisors;
    # the reversed class is also no candidate.
    assert any("pair" in e or "candidate" in e for e in report.errors)


def test_duplicates_and_non_candidates_rejected():
    e1 = parse_class("E_1", 2)
    report = validate_config(SurfaceConfig(2, (e1, e1)))
    assert any("duplicate" in e for e in report.errors)
    weird = DivisorClass((0, 1, 1))  # square -2 but not a candidate shape
    report = validate_config(SurfaceConfig(2, (weird,)))
    assert any("candidate" in e for e in report.errors)


def test_rank_mismatch_detected():
    report = validate_config(SurfaceConfig(3, (parse_class("E_1", 2),)))
    assert not report.ok


def test_proximity_matrix_invariants():
    ProximityMatrix(3, frozenset({(2, 1), (3, 2)}))
    with pytest.raises(ConfigurationError):
        ProximityMatrix(3, frozenset({(1, 2)}))  # proximity to a later point
    with pytest.raises(ConfigurationError):
        ProximityMatrix(3, frozenset({(4, 1)}))


def test_proximity_overload_is_warning_not_error():
    p = ProximityMatrix(4, frozenset({(4, 1), (4, 2), (4, 3)}))
    cfg = SurfaceConfig(4, (), proximity=p)
    report = validate_config(cfg)
    assert report.ok
    assert report.warnings


def test_strict_transform_components():
    assert [c.coeffs for c in strict_transform_components(ProximityMatrix(2))] == [
        (0, 1, 0), (0, 0, 1),
    ]
    chain = ProximityMatrix(2, frozenset({(2, 1)}))
    assert [format_class(c) for c in strict_transform_components(chain)] == [
        "E_12", "E_2",
    ]
    double = ProximityMatrix(3, frozenset({(2, 1), (3, 1)}))
    assert strict_transform_components(double)[0].coeffs == (0, 1, -1, -1)


def test_proximity_check_worked_example():
    p = ProximityMatrix(2, frozenset({(2, 1)}))
    assert proximity_check((1, 2), p) == ((-1, 2), False)
    assert proximity_check((1, 1), p) == ((0, 1), True)
    assert proximity_check((0, 0), p) == ((0, 0), True)


def test_proximity_check_equals_component_pairing():
    # The slack is the pairing of -sum(m_i e_i) against each component.
    p = ProximityMatrix(4, frozenset({(2, 1), (4, 3), (4, 2)}))
    m = (3, 1, 2, 1)
    slacks, ok = proximity_check(m, p)
    ez = DivisorClass((0,) + m)
    from waldschmidt.lattice import pairing

    for slack, comp in zip(slacks, strict_transform_components(p)):
        assert slack == -pairing(ez, comp)
    assert ok == all(s >= 0 for s in slacks)


def test_effective_generators_low_rank():
    assert [c.coeffs for c in effective_generators(SurfaceConfig(0, ()))] == [(1,)]
    assert [format_class(c) for c in effective_generators(SurfaceConfig(1, ()))] == [
        "L_1", "E_1",
    ]


def test_effective_generators_r5_and_r8():
    gens5 = effective_generators(find_type("(5,∅,16)").config())
    assert len(gens5) == 16
    assert all(c.coeffs != (3, -1, -1, -1, -1, -1) for c in gens5)
    cfg8 = generic_config(8)
    gens8 = effective_generators(cfg8)
    assert DivisorClass((3,) + (-1,) * 8) in gens8
    assert len(gens8) == 241


def test_effective_generators_requires_valid_config():
    with pytest.raises(ConfigurationError):
        effective_generators(SurfaceConfig(2, parse_classes(["L"], 2)))


def relabel_class(c, relabel):
    out = [c.coeffs[0]] + [0] * (len(c.coeffs) - 1)
    for i in range(1, len(c.coeffs)):
        out[relabel[i]] = c.coeffs[i]
    return DivisorClass(tuple(out))


def test_permutation_invariance_of_validation():
    # Relabelings that respect the infinitely-near order keep a config
    # valid; purely planar configs admit every permutation.
    planar = find_type("(5,∅,16)").config()
    for perm in itertools.islice(itertools.permutations(range(1, 6)), 12):
        relabel = {i + 1: p for i, p in enumerate(perm)}
        cfg = SurfaceConfig(5, tuple(relabel_class(c, relabel) for c in planar.neg_curves))
        assert validate_config(cfg).ok

    chained = find_type("(2,A4,3)(a)").config()  # verticals E_12, E_23, E_45
    identity = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
    # keep each infinitely-near chain increasing: {1,2,3}->{1,2,4}, {4,5}->{3,5}
    interleave = {1: 1, 2: 2, 3: 4, 4: 3, 5: 5}
    for relabel in (identity, interleave):
        cfg = SurfaceConfig(5, tuple(relabel_class(c, relabel) for c in chained.neg_curves))
        assert validate_config(cfg).ok


def test_proximity_check_permutation_invariance():
    p = ProximityMatrix(3, frozenset({(3, 1)}))
    m = (2, 5, 1)
    # Swapping the two free labels 2 <-> 3 is not order-compatible here,
    # but swapping p_2 out of the chain is: relabel (1,2,3) -> (2,1,3)
    q = ProximityMatrix(3, frozenset({(3, 2)}))
    mm = (5, 2, 1)
    assert proximity_check(m, p)[1] == proximity_check(mm, q)[1]
    assert sorted(proximity_check(m, p)[0]) == sorted(proximity_check(mm, q)[0])


def test_derive_proximity_from_verticals():
    cfg = find_type("(1,A4,3)").config()
    prox = derive_proximity(5, cfg.neg_curves)
    assert prox.pairs == frozenset({(2, 1), (3, 2), (4, 3), (5, 4)})


def test_config_from_dict_roundtrip():
    data = {
        "r": 2,
        "proximity": [[2, 1]],
        "negative_curves": ["E_12", "E_2", [1, -1, -1]],
    }
    cfg = config_from_dict(data)
    assert cfg.r == 2
    assert cfg.proximity is not None and cfg.proximity.is_proximate(2, 1)
    assert [format_class(c) for c in cfg.neg_curves] == ["E_12", "E_2", "L_12"]
    assert validate_config(cfg).ok
    with pytest.raises(ConfigurationError):
        config_from_dict({"negative_curves": []})
    with pytest.raises(ConfigurationError):
        config_from_dict([2])


def naive_validate(cfg):
    """Reference validation: every check on every pair, nothing skipped."""
    errors, warnings = [], []
    candidates = candidate_members(cfg.r) if 2 <= cfg.r <= 8 else None
    seen = set()
    for c in cfg.neg_curves:
        if c.r != cfg.r:
            errors.append(f"{c}: rank {c.r} does not match configuration rank {cfg.r}")
            continue
        if c.coeffs in seen:
            errors.append(f"{c}: duplicate negative curve")
        seen.add(c.coeffs)
        if pairing(c, c) >= 0:
            errors.append(f"{c}: nonnegative self-intersection {pairing(c, c)}")
        elif candidates is not None and c.coeffs not in candidates:
            errors.append(f"{c}: not a candidate negative class at rank {cfg.r}")
    curves = cfg.neg_curves
    for a in range(len(curves)):
        for b in range(a + 1, len(curves)):
            u, v = curves[a], curves[b]
            if u.r != cfg.r or v.r != cfg.r or u.coeffs == v.coeffs:
                continue
            if pairing(u, v) < 0:
                errors.append(f"{u} and {v}: distinct prime divisors pair {pairing(u, v)} < 0")
    if cfg.proximity is not None:
        if cfg.proximity.r != cfg.r:
            errors.append(f"proximity matrix rank {cfg.proximity.r} does not match {cfg.r}")
        else:
            for j in range(1, cfg.r + 1):
                targets = [i for jj, i in cfg.proximity.pairs if jj == j]
                if len(targets) > 2:
                    warnings.append(
                        f"point p_{j} proximate to {len(targets)} points; "
                        "a planar point can be proximate to at most 2"
                    )
    return ValidationReport(tuple(errors), tuple(warnings))


@cache
def class_pools(r):
    """Exceptional classes, roots and other candidates at rank r."""
    exc = enumerate_exceptional(r) if r >= 1 else []
    roots = enumerate_roots(r) if r >= 3 else []
    cands = [c for f in candidate_sets(r) for c in f.members] if r >= 2 else []
    return [pool for pool in (exc, roots, cands) if pool]


def vectors(r, bound):
    size = r + 1
    return st.lists(st.integers(-bound, bound), min_size=size, max_size=size).map(
        lambda v: DivisorClass(tuple(v))
    )


@st.composite
def mixed_configs(draw):
    r = draw(st.integers(0, 8))
    sources = [st.sampled_from(pool) for pool in class_pools(r)]
    sources.append(vectors(r, 3))
    sources.append(st.integers(0, 8).flatmap(lambda k: vectors(k, 2)))
    curves = draw(st.lists(st.one_of(*sources), max_size=40))
    if curves:
        curves += draw(st.lists(st.sampled_from(curves), max_size=4))
        curves = draw(st.permutations(curves))
    prox = None
    if r >= 2 and draw(st.booleans()):
        pr = draw(st.sampled_from([r, r - 1])) if r > 2 else r
        pairs = draw(st.lists(
            st.tuples(st.integers(2, pr), st.integers(1, pr - 1)).filter(
                lambda p: p[1] < p[0]
            ),
            max_size=6,
        ))
        prox = ProximityMatrix(pr, frozenset(pairs))
    return SurfaceConfig(r, tuple(curves), prox)


@settings(max_examples=300, deadline=None)
@given(mixed_configs())
def test_validation_matches_all_pairs_reference(cfg):
    assert validate_config(cfg) == naive_validate(cfg)


def test_validation_pairs_no_two_exceptional_classes(monkeypatch):
    products = []
    real = config.mul
    monkeypatch.setattr(config, "mul", lambda a, b: products.append(1) or real(a, b))
    exc = enumerate_exceptional(8)
    assert validate_config(SurfaceConfig(8, tuple(exc))).ok
    assert len(products) == 9 * 240  # one self-intersection per class
    products.clear()
    root = parse_class("E_12", 8)  # pairs to -1 with E_1, so the config is invalid
    assert not validate_config(SurfaceConfig(8, tuple(exc) + (root,))).ok
    assert len(products) == 9 * 241 + 9 * 240  # and the root against each class


def test_candidates_enumerated_once_per_rank(monkeypatch):
    classes.candidate_members.cache_clear()
    calls = []
    real = classes.candidate_sets
    monkeypatch.setattr(classes, "candidate_sets", lambda r: calls.append(r) or real(r))
    for _ in range(2):
        assert validate_config(generic_config(8)).ok
    assert calls == [8]
