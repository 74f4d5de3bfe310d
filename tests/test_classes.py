from math import comb

import pytest
from hypothesis import given, strategies as st

from waldschmidt import classes
from waldschmidt.classes import (
    candidate_members,
    candidate_sets,
    enumerate_exceptional,
    enumerate_roots,
    is_exceptional,
    is_root,
    reflect,
    simple_roots,
    weyl_orbit,
)
from waldschmidt.errors import (
    InvalidRootError,
    OrbitTooLargeError,
    UnsupportedRankError,
)
from waldschmidt.lattice import (
    DivisorClass,
    canonical_class,
    pairing,
    parse_class,
    point_class,
)


def family(r, tag):
    for f in candidate_sets(r):
        if f.tag == tag:
            return f.members
    return ()


def test_candidates_r2_exact():
    members = {c.coeffs for f in candidate_sets(2) for c in f.members}
    assert members == {
        (0, 1, 0), (0, 0, 1), (0, 1, -1), (1, -1, -1),
    }


def test_candidate_counts_match_binomial_oracle():
    # Direct expansion of the defining index ranges.
    for r in range(2, 9):
        assert len(family(r, "B")) == r
        assert len(family(r, "V")) == sum(comb(r, s) for s in range(2, r + 1))
        assert len(family(r, "L")) == sum(comb(r, s) for s in range(2, r + 1))
        assert len(family(r, "Q")) == sum(comb(r, s) for s in range(5, r + 1))
        assert len(family(r, "C")) == sum(
            s * comb(r, s) for s in range(7, r + 1)
        )
    assert sum(len(f.members) for f in candidate_sets(5)) == 58
    assert len(family(8, "M8")) == comb(8, 3) + comb(8, 6) + 8 == 92


def test_candidate_family_presence():
    assert not family(4, "Q") and family(5, "Q")
    assert not family(6, "C") and family(7, "C")
    assert not family(7, "M8") and family(8, "M8")
    with pytest.raises(UnsupportedRankError):
        candidate_sets(1)
    with pytest.raises(UnsupportedRankError):
        candidate_sets(9)


def test_candidate_shapes_and_negativity():
    for r in (2, 5, 8):
        for f in candidate_sets(r):
            for c in f.members:
                assert pairing(c, c) < 0
                if f.tag == "B":
                    assert c.coeffs[0] == 0 and sorted(c.coeffs[1:]) == [0] * (r - 1) + [1]
                if f.tag == "V":
                    tail = [a for a in c.coeffs[1:] if a != 0]
                    assert c.coeffs[0] == 0 and tail[0] == 1
                    assert all(a == -1 for a in tail[1:])
                if f.tag == "L":
                    assert c.coeffs[0] == 1
                if f.tag == "Q":
                    assert c.coeffs[0] == 2
                if f.tag == "C":
                    assert c.coeffs[0] == 3
                    assert sum(1 for a in c.coeffs[1:] if a == -2) == 1


def test_candidate_negative_square_classification():
    # Square -1 members are exceptional and square -2 members are roots;
    # squares <= -3 (many points on one curve) occur only for the
    # vertical, line, and conic shapes, never in B, C, or M8.
    for r in (3, 5, 8):
        for f in candidate_sets(r):
            for c in f.members:
                sq = pairing(c, c)
                if sq == -1:
                    assert is_exceptional(c)
                elif sq == -2:
                    assert is_root(c)
                else:
                    assert f.tag in ("V", "L", "Q")


def test_is_root_examples():
    assert is_root(parse_class("L_123", 3))
    assert is_exceptional(point_class(5, 5))
    e0 = parse_class("L", 5)
    assert not is_root(e0) and not is_exceptional(e0)


def test_enumeration_counts():
    assert [len(enumerate_exceptional(r)) for r in range(1, 9)] == [
        1, 3, 6, 10, 16, 27, 56, 240,
    ]
    assert [len(enumerate_roots(r)) for r in range(3, 9)] == [
        8, 20, 40, 72, 126, 240,
    ]
    with pytest.raises(UnsupportedRankError):
        enumerate_roots(2)
    with pytest.raises(UnsupportedRankError):
        enumerate_exceptional(0)


def test_enumerated_classes_satisfy_definitions():
    k5 = canonical_class(5)
    for alpha in enumerate_roots(5):
        assert pairing(alpha, k5) == 0 and pairing(alpha, alpha) == -2
    for eps in enumerate_exceptional(5):
        assert is_exceptional(eps) and eps.coeffs[0] >= 0


def test_distinct_exceptional_classes_pair_nonnegatively():
    # The lemma config validation relies on: for r <= 8, distinct
    # (-1)-classes never pair negatively (28 680 pairs at r = 8).
    for r in range(1, 9):
        exc = enumerate_exceptional(r)
        for i, u in enumerate(exc):
            for v in exc[i + 1:]:
                assert pairing(u, v) >= 0, (r, u, v)


def test_candidate_members_built_once_per_rank():
    assert candidate_members(8) is candidate_members(8)
    assert candidate_members(5) == {
        c.coeffs for f in candidate_sets(5) for c in f.members
    }


def test_simple_roots():
    assert [c.coeffs for c in simple_roots(3)] == [
        (1, -1, -1, -1), (0, 1, -1, 0), (0, 0, 1, -1),
    ]
    for r in range(3, 9):
        roots = simple_roots(r)
        assert len(roots) == r
        assert all(is_root(a) for a in roots)
        if r >= 4:
            assert pairing(roots[1], roots[2]) == 1
    with pytest.raises(UnsupportedRankError):
        simple_roots(2)


def test_reflect_examples():
    e1, e2 = point_class(2, 1), point_class(2, 2)
    assert reflect(e1, parse_class("E_12", 2)) == e2
    a1 = simple_roots(3)[0]
    assert reflect(parse_class("L", 3), a1).coeffs == (2, -1, -1, -1)
    with pytest.raises(InvalidRootError):
        reflect(e1, e2)


small_classes = st.builds(
    lambda t: DivisorClass(tuple(t)),
    st.tuples(*[st.integers(min_value=-4, max_value=4)] * 6),
)


@given(small_classes)
def test_reflection_involution(v):
    a1 = simple_roots(5)[0]
    assert reflect(reflect(v, a1), a1) == v


@given(small_classes, small_classes)
def test_reflection_isometry(u, v):
    alpha = simple_roots(5)[2]
    assert pairing(reflect(u, alpha), reflect(v, alpha)) == pairing(u, v)


def test_reflection_fixes_canonical_class():
    for r in range(3, 9):
        k = canonical_class(r)
        for alpha in simple_roots(r):
            assert reflect(k, alpha) == k


def test_weyl_orbit_examples():
    assert weyl_orbit(point_class(5, 5), 5) == enumerate_exceptional(5)
    a1 = simple_roots(5)[0]
    assert weyl_orbit(a1, 5) == enumerate_roots(5)
    k5 = canonical_class(5)
    assert weyl_orbit(k5, 5) == [k5]


def test_weyl_orbit_matches_enumeration():
    for r in range(3, 9):
        assert weyl_orbit(point_class(r, r), r) == enumerate_exceptional(r)
    for r in range(4, 9):
        assert weyl_orbit(simple_roots(r)[0], r) == enumerate_roots(r)


def test_weyl_orbit_r3_reducible_strictness():
    # The rank-3 root system splits, so one reflection orbit is strict.
    orbit = weyl_orbit(simple_roots(3)[0], 3)
    roots = enumerate_roots(3)
    assert set(c.coeffs for c in orbit) < set(c.coeffs for c in roots)


def test_weyl_orbit_rank_check():
    with pytest.raises(UnsupportedRankError, match="rank 3, expected 4"):
        weyl_orbit(point_class(3, 1), 4)


def test_weyl_orbit_cap(monkeypatch):
    monkeypatch.setattr(classes, "ORBIT_CAP", 500)
    generic = DivisorClass((1, 2, 3, 4, 5, 6, 7, 8, 9))
    with pytest.raises(OrbitTooLargeError):
        weyl_orbit(generic, 8)
