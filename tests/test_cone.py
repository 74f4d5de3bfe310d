import collections
import gc
import itertools
import json
import random
import statistics
import weakref
from functools import cache
from fractions import Fraction
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    brute_force_alpha_hat,
    cremona_nef,
    fraction_certificate,
    generic_config,
    packed_int,
    plain_certificate_failures,
    reference_exclusion,
    replaced,
    root_rejects,
    symmetry_blocks,
    three_generic_points,
)
from waldschmidt import cone, config, simplex
from waldschmidt.classes import enumerate_exceptional
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
from waldschmidt.dp4 import catalog, find_type
from waldschmidt.errors import (
    BoundingFailureError,
    ConfigurationError,
    InfeasibleConeError,
    ProximityViolationError,
    RankMismatchError,
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
from waldschmidt.simplex import UNBOUNDED, LpResult, solve_lp

F = Fraction
ONES = (1,) * 5


def target(d, m, r=5):
    return DivisorClass(tuple([d] + [-m] * r))


def by_name(sol):
    return {format_class(g): c for g, c in sol.items()}


def excluded(D, gens):
    """The exclusion of monoid_membership on the list's prepared record."""
    return cone._excluded(D.coeffs, cone._prepare(cone._key(gens)))


@cache
def _generic(r):
    """generic_config(r), built once for the tests that only read it."""
    return generic_config(r)


def shared_config(label):
    """The catalog model's own configuration, or _generic(r) for "r<r>"."""
    return _generic(int(label[1:])) if label.startswith("r") else find_type(label).config()


SHARED_LABELS = [t.label for t in catalog()] + [f"r{r}" for r in range(3, 9)]


def plain_row(i, gens):
    """The pairings of the i-th generator C with every generator, and
    whether C is forced: C.C < 0 and C.h >= 0 for every h but C's copies."""
    c = gens[i]
    pairs = [pairing(c, h) for h in gens]
    return pairs, pairs[i] < 0 and all(x >= 0 for h, x in zip(gens, pairs) if h != c)


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


def test_cone_membership_without_generators():
    assert cone_membership(target(1, 1), []) is None
    assert cone_membership(DivisorClass((0,) * 6), []) == {}


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
    assert monoid_membership(target(1, 1), []) is None
    # Degree-zero generators whose leading coefficient is not 1.
    e1x2, neg_lead = DivisorClass((0, 2)), DivisorClass((0, -1, 5))
    assert monoid_membership(e1x2, [e1x2]) == {e1x2: 1}
    assert monoid_membership(neg_lead, [neg_lead]) == {neg_lead: 1}
    assert monoid_membership(DivisorClass((0, 3)), [e1x2]) is None
    # A residual left on an index that leads no generator.
    assert monoid_membership(DivisorClass((0, 1, 1)), [DivisorClass((0, 1, 0))]) is None


def naive_monoid_members(gens):
    """member(residual): whether residual is a nonnegative integer sum of gens,
    trying every multiplicity lambda_g <= A.residual / A.g, one generator at a
    time, for the bounding class A; memoised over residuals.  The last
    generator's multiplicity is the one that uses up the A-degree."""
    a = cone._signed_bounding_class(gens[0].r)
    adeg = [sum(x * y for x, y in zip(a, g.coeffs)) for g in gens]

    @cache
    def member(res, i=0):
        g = gens[i].coeffs
        budget = sum(x * y for x, y in zip(a, res))
        if i == len(gens) - 1:
            lam = budget // adeg[i]
            return budget >= 0 and all(x == lam * y for x, y in zip(res, g))
        return any(
            member(tuple(x - lam * y for x, y in zip(res, g)), i + 1)
            for lam in range(budget // adeg[i] + 1)
        )

    return member


def test_unpruned_monoid_search_matches_enumeration():
    # E_123 has line degree 0 and positive need_drop, so the root test is
    # off and every target the exclusion leaves reaches the search.
    # The order only keeps the enumeration's memo small.
    gens = parse_classes(["E_123", "L_12", "E_23", "E_3"], 3)
    assert validate_config(SurfaceConfig(3, gens)).ok
    member = naive_monoid_members(gens)
    found = 0
    for coeffs in itertools.product(range(5), *[range(-2, 3)] * 3):
        t = DivisorClass(coeffs)
        sol = monoid_membership(t, gens)
        assert (sol is not None) == member(coeffs), t
        if sol is not None:
            found += 1
            assert class_sum(3, [(c, g) for g, c in sol.items()]) == t
    assert found == 519


def test_monoid_requires_bounding_positivity():
    with pytest.raises(BoundingFailureError):
        monoid_membership(
            DivisorClass((1, 0)), [DivisorClass((0, -1)), DivisorClass((0, 1))]
        )


def test_monoid_membership_input_checks():
    with pytest.raises(ConfigurationError, match="rank mismatch"):
        monoid_membership(DivisorClass((1, 0)), [DivisorClass((1, 0, 0))])
    # A-degree 6*(-1) + 100 > 0 passes the bounding check; the line degree fails,
    # also for a target of negative A-degree and for the zero target.
    for target in [(1, 0), (-1, 0), (0, 0)]:
        with pytest.raises(BoundingFailureError, match="negative line degree"):
            monoid_membership(DivisorClass(target), [DivisorClass((-1, 100))])
    # Two degree-zero generators may share a leading index.
    e1, e12 = gens = parse_classes(["E_1", "E_12"], 2)
    assert monoid_membership(DivisorClass((0, 2, -1)), gens) == {e1: 1, e12: 1}
    assert monoid_membership(DivisorClass((0, -2, 1)), gens) is None
    assert monoid_membership(DivisorClass((0, 0, 0)), gens) == {}


WINDOW = [target(d, k) for k in (1, 2, 3) for d in range(1, 9)]


def test_interleaved_lists_answer_as_each_does_alone():
    a = effective_generators(find_type("(1,D5,1)").config())
    b = effective_generators(find_type("(5,∅,16)").config())
    alone_a = [monoid_membership(t, a) for t in WINDOW]
    alone_b = [monoid_membership(t, b) for t in WINDOW]
    assert alone_a != alone_b and any(alone_b)
    cone._prepare.cache_clear()
    for t, hit_a, hit_b in zip(WINDOW, alone_a, alone_b):
        assert monoid_membership(t, a) == hit_a
        assert monoid_membership(t, b) == hit_b
        assert monoid_membership(t, a) == hit_a
    # Only the last list is kept: each switch prepares again.
    assert cone._prepare.cache_info().misses == 2 * len(WINDOW) + 1


def test_a_mixed_rank_list_raises_on_every_call():
    # The first generator has the target's rank, so only _prepare sees
    # the mismatch; the failure is never cached.
    gens = [DivisorClass((0, 1, 0)), DivisorClass((0, 1))]
    cone._prepare.cache_clear()
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="generator rank mismatch"):
            monoid_membership(DivisorClass((1, 0, 0)), gens)
    info = cone._prepare.cache_info()
    assert info.misses == 2 and info.currsize == 0


def test_a_list_mutated_in_place_is_prepared_again():
    gens = list(parse_classes(["L_12", "E_1", "E_2"], 2))
    line = DivisorClass((1, 0, 0))
    assert monoid_membership(line, gens) == {g: 1 for g in gens}
    misses = cone._prepare.cache_info().misses
    gens[2] = line
    assert monoid_membership(line, gens) == {line: 1}
    assert cone._prepare.cache_info().misses == misses + 1


def test_a_malformed_list_raises_on_every_call():
    good = effective_generators(find_type("(1,D5,1)").config())
    # A-degree 12*(-1) + 2*100 passes the bounding check; the line degree fails.
    bad = [parse_class("E_1", 2), DivisorClass((-1, 100, 0))]
    hit = monoid_membership(target(5, 3), good)
    before = cone._prepare.cache_info()
    for t in [(0, 2, -1), (0, -2, 1), (0, 0, 0)]:
        with pytest.raises(BoundingFailureError, match="negative line degree"):
            monoid_membership(DivisorClass(t), bad)
    # No failure is stored, and none evicts the valid list prepared before.
    after = cone._prepare.cache_info()
    assert after.misses == before.misses + 3 and after.currsize == 1
    assert monoid_membership(target(5, 3), good) == hit
    assert cone._prepare.cache_info().misses == after.misses


def test_answers_hold_the_callers_own_generators():
    gens = effective_generators(find_type("(1,D5,1)").config())
    twins = [DivisorClass(g.coeffs) for g in gens]
    assert twins == gens and not any(t is g for t, g in zip(twins, gens))
    assert monoid_membership(target(5, 3), gens)
    sol = monoid_membership(target(5, 3), twins)
    own = {id(t) for t in twins}
    assert sol and all(id(g) in own for g in sol)


def test_one_window_prepares_its_list_once():
    cone._prepare.cache_clear()
    assert brute_force_alpha_hat(find_type("(1,D5,1)").config(), ONES) is not None
    info = cone._prepare.cache_info()
    assert info.misses == 1 and info.hits > 100


def test_monoid_search_uses_no_fraction(monkeypatch):
    gens = effective_generators(find_type("(1,D5,1)").config())
    hit = monoid_membership(target(5, 3), gens)

    def no_fraction(*args, **kwargs):
        raise AssertionError("the monoid search built a Fraction")

    monkeypatch.setattr(cone, "Fraction", no_fraction)
    assert monoid_membership(target(5, 3), gens) == hit
    assert hit is not None
    assert monoid_membership(target(4, 3), gens) is None
    # Need 5 per unit of line degree 1 exceeds every generator's ratio, so
    # the root test rejects this target.
    assert root_rejects(target(1, 1), gens)
    assert monoid_membership(target(1, 1), gens) is None
    # L - 2E_1 passes the root test; the forced curves prove the miss.
    miss = DivisorClass((1, -2, 0, 0, 0, 0))
    assert excluded(miss, gens)
    assert monoid_membership(miss, gens) is None


def test_preparation_builds_no_divisor_class_on_a_valid_list(monkeypatch):
    gens = effective_generators(find_type("(1,D5,1)").config())
    hit, miss = target(5, 3), target(4, 3)
    cone._prepare.cache_clear()

    def no_class(*args, **kwargs):
        raise AssertionError("preparing a valid list built a DivisorClass")

    monkeypatch.setattr(cone, "DivisorClass", no_class)
    assert monoid_membership(hit, gens) is not None
    assert monoid_membership(miss, gens) is None
    assert cone._prepare.cache_info().misses == 1


def test_the_zero_target_is_the_empty_sum():
    # 0 takes the search's own path: the root is a zero residual, a leaf
    # that takes no generator.
    for t in catalog():
        gens = effective_generators(t.config())
        assert monoid_membership(DivisorClass((0,) * 6), gens) == {}
    zero = DivisorClass((0,) * 3)
    assert monoid_membership(zero, []) == {}
    assert monoid_membership(zero, parse_classes(["E_12", "E_2"], 2)) == {}


def test_exclusion_subtracts_a_forced_curve_several_times():
    # p_2 infinitely near p_1.  D = L - 3E_1 + 2E_2 pairs -2 with E_2,
    # which has square -1 and pairs >= 0 with E_12, so any sum uses E_2
    # at least twice.  What is left, L - 3E_1, pairs >= 0 with both
    # generators and has square -8, so it is no sum, and neither is D.
    gens = parse_classes(["E_12", "E_2"], 2)
    e12, e2 = gens
    D = DivisorClass((1, -3, 2))
    assert pairing(D, e12) >= 0 and pairing(D, e2) == -2 and pairing(e2, e2) == -1
    assert pairing(e2, e12) >= 0
    rest = D - 2 * e2
    assert all(pairing(rest, g) >= 0 for g in gens) and pairing(rest, rest) == -8
    assert excluded(D, gens)
    assert monoid_membership(D, gens) is None
    assert not naive_monoid_members(gens)(D.coeffs)


def test_exclusion_is_inconclusive_without_a_forced_curve():
    # L - E_1 has square 0, so it is never forced: L - 2E_1 + E_2, which
    # has need 1 against line degree 1 and so passes the root test, pairs
    # -1 with it, and the exclusion gives up although the target is a miss.
    pencil = DivisorClass((1, -1, 0))
    miss = DivisorClass((1, -2, 1))
    assert pairing(miss, pencil) < 0 and pairing(pencil, pencil) == 0
    assert not root_rejects(miss, [pencil])
    assert not excluded(miss, [pencil])
    assert monoid_membership(miss, [pencil]) is None
    # E_12 pairs -1 with L + E_1, so L + 2E_1 - E_2, which pairs -3 with
    # E_12, is not reduced either; it is a hit, which the exclusion must
    # never reject.
    gens = [parse_class("E_12", 2), DivisorClass((1, 1, 0))]
    hit = DivisorClass((1, 2, -1))
    assert pairing(hit, gens[0]) < 0 and pairing(gens[0], gens[1]) < 0
    assert not excluded(hit, gens)
    assert class_sum(2, [(n, g) for g, n in monoid_membership(hit, gens).items()]) == hit


def test_exclusion_skips_copies_of_the_forced_curve():
    # L_12 is listed twice; its copy pairs -1 with it but is not another
    # curve, so L_12 is still forced: L - 3E_1 - E_2 pairs -3 with it.
    gens = parse_classes(["L_12", "E_1", "E_2", "L_12"], 2)
    miss = DivisorClass((1, -3, -1))
    assert pairing(miss, gens[0]) == -3
    assert excluded(miss, gens)
    assert monoid_membership(miss, gens) is None
    assert not naive_monoid_members(gens)(miss.coeffs)
    hit = DivisorClass((2, -2, -2))
    assert not excluded(hit, gens)
    assert monoid_membership(hit, gens) == {gens[0]: 2}


def test_exclusion_ends_on_negative_bounding_degree():
    # E_1 pairs -2 with 2E_1 (square -4), so t = 1 and the rest, -E_1, has
    # line degree 0 but A-degree -1: no sum.
    twice = DivisorClass((0, 2))
    D = DivisorClass((0, 1))
    rest = D - twice
    a = cone._signed_bounding_class(1)
    assert rest.coeffs[0] == 0 and sum(x * y for x, y in zip(a, rest.coeffs)) < 0
    assert excluded(D, [twice])
    assert monoid_membership(D, [twice]) is None


def test_a_curve_of_square_minus_three_is_not_forced_at_r8():
    # At r = 8 the record also holds -K, and -K.C = 2 + C.C < 0 for a NEG
    # curve C with C.C <= -3, so C is not forced: not every NEG curve of a
    # valid configuration is.  L_1234 and the exceptional classes meeting
    # it >= 0 form a valid list of 79 classes; on L - 2E_2, which no sum
    # reaches, the exclusion stops inconclusive at L_1234 itself.
    c = parse_class("L_1234", 8)
    cfg = SurfaceConfig(8, [c] + [e for e in enumerate_exceptional(8) if pairing(e, c) >= 0])
    assert len(cfg.neg_curves) == 79 and validate_config(cfg).ok
    gens = effective_generators(cfg)
    assert pairing(gens[-1], c) == -1  # gens[-1] is -K
    prep = cone._record(cfg)
    prep.row(0)
    assert not prep.forced[0]
    D = DivisorClass((1, 0, -2, 0, 0, 0, 0, 0, 0))
    assert reference_exclusion(D, gens) == (False, [0])
    assert not cone._excluded(D.coeffs, prep)
    assert monoid_membership(D, gens) is None


def draw_generators(data):
    """Rank r and a generator list, from no valid configuration too; only
    the lists the input checks reject are skipped."""
    r = data.draw(st.integers(1, 3), label="r")
    vector = st.tuples(st.integers(0, 2), *[st.integers(-2, 2)] * r)
    gens = [DivisorClass(c) for c in data.draw(st.lists(vector, min_size=1, max_size=4))]
    a = cone._signed_bounding_class(r)
    assume(all(sum(x * y for x, y in zip(a, g.coeffs)) >= 1 for g in gens))
    return r, gens


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_monoid_membership_matches_enumeration_on_random_generators(data):
    r, gens = draw_generators(data)
    member = naive_monoid_members(gens)
    targets = data.draw(st.lists(
        st.tuples(st.integers(0, 2), *[st.integers(-3, 3)] * r), min_size=1, max_size=12))
    counts = data.draw(st.lists(st.integers(0, 2), min_size=len(gens), max_size=len(gens)))
    combination = class_sum(r, zip(counts, gens)).coeffs
    for coeffs in [*targets, combination]:
        t = DivisorClass(coeffs)
        sol = monoid_membership(t, gens)
        assert (sol is not None) == member(coeffs), (t, gens)
        if sol is not None:
            assert class_sum(r, [(n, g) for g, n in sol.items()]) == t
    assert not excluded(DivisorClass(combination), gens)


def greatest_vector(D, ordered):
    """The lexicographically greatest multiplicity vector, over `ordered`,
    that sums to D, or None: each n_g in turn is the largest with
    n_g <= A.R / A.g (R what is left of D) after which the rest of the
    list still sums to R, by the enumeration of naive_monoid_members."""
    member = naive_monoid_members(ordered)
    if not member(D.coeffs):
        return None
    a = cone._signed_bounding_class(D.r)
    res, vector = D.coeffs, []
    for i, g in enumerate(ordered):
        budget = sum(x * y for x, y in zip(a, res))
        for lam in range(budget // sum(x * y for x, y in zip(a, g.coeffs)), -1, -1):
            rest = tuple(x - lam * y for x, y in zip(res, g.coeffs))
            if not any(rest) or (i + 1 < len(ordered) and member(rest, i + 1)):
                break
        vector.append(lam)
        res = rest
    return vector


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_witness_is_the_greatest_vector_in_step_order(data):
    # Read in the record's step order, the witness is the greatest
    # multiplicity vector that sums to the target.  The classes are
    # distinct, since the answer merges equal ones.
    r, gens = draw_generators(data)
    assume(len(set(gens)) == len(gens))
    ordered = [gens[p] for p in cone._prepare(cone._key(gens)).order]
    targets = data.draw(st.lists(
        st.tuples(st.integers(0, 2), *[st.integers(-3, 3)] * r), min_size=1, max_size=8))
    counts = data.draw(st.lists(st.integers(0, 2), min_size=len(gens), max_size=len(gens)))
    for coeffs in [*targets, class_sum(r, zip(counts, gens)).coeffs]:
        D = DivisorClass(coeffs)
        vector = greatest_vector(D, ordered)
        sol = monoid_membership(D, gens)
        if vector is None:
            assert sol is None, (D, gens)
        else:
            assert sol == {g: n for g, n in zip(ordered, vector) if n}, (D, gens)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prepared_rows_match_plain_pairings(data):
    # Row i packs C.h for the i-th generator C and every generator h, and
    # its forced flag follows the plain definition.  The exclusion
    # reading the rows agrees with the plain one in helpers, and packs
    # the rows of the curves each target reaches; a widening drops the
    # rows packed before it.  Each packed row is at the current width
    # with its plain flag.
    r, gens = draw_generators(data)
    cone._prepare.cache_clear()
    prep = cone._prepare(cone._key(gens))
    assert prep.packed == [None] * len(gens)
    targets = data.draw(st.lists(
        st.tuples(st.integers(0, 3), *[st.integers(-4, 3)] * r), min_size=1, max_size=12))
    reached = set()
    for coeffs in targets:
        D = DivisorClass(coeffs)
        proved, taken = reference_exclusion(D, gens)
        assert cone._excluded(D.coeffs, prep) == proved, (D, gens)
        reached.update(taken)
        packed = {i for i, row in enumerate(prep.packed) if row is not None}
        assert set(taken) <= packed <= reached
        for i in packed:
            pairs, forced = plain_row(i, gens)
            assert prep.packed[i] == packed_int(pairs, prep.k)
            assert prep.forced[i] == forced
    for i in range(len(gens)):  # row() widens to a width that holds P itself
        pairs, forced = plain_row(i, gens)
        assert prep.row(i) == packed_int(pairs, prep.k)
        assert prep.forced[i] == forced


def test_prepared_row_is_sound_before_any_exclusion():
    # L - E_1 has square 0 and meets L at 1: its row is (0, 1), not forced,
    # although no target has widened the fresh record yet.
    gens = [DivisorClass((1, -1)), DivisorClass((1, 0))]
    prep = cone._Prepared(cone._key(gens))
    assert prep.k == 0
    assert prep.row(0) == packed_int([0, 1], prep.k) and prep.half > prep.pmax
    assert prep.forced == [False, False]


def test_preparing_the_generic_r8_list_fills_no_row():
    # Preparing stays linear in the length of the list: no pairing row is
    # built before the exclusion reaches its curve.  L - 3E_1 + E_2 + E_3
    # meets E_3 at -1, then E_2 at -1, and L - 3E_1 meets L_12 at -2; it
    # minus 2L_12 has line degree -1.  So the miss fills those three rows.
    gens = effective_generators(generic_config(8))
    cone._prepare.cache_clear()
    prep = cone._prepare(cone._key(gens))
    assert len(gens) == 241 and prep.packed == [None] * 241
    miss = DivisorClass((1, -3, 1, 1) + (0,) * 5)
    proved, reached = reference_exclusion(miss, gens)
    assert proved and [format_class(gens[i]) for i in reached] == ["E_3", "E_2", "L_12"]
    assert monoid_membership(miss, gens) is None
    assert cone._prepare.cache_info().misses == 1
    assert [i for i, row in enumerate(prep.packed) if row is not None] == sorted(reached)


def pairing_bound(D, gens):
    """The bound on every slot the exclusion reads: |D'.g| over its loop
    tops, D' = D minus its subtractions, is at most sum |D_l| c_l + (A.D) P,
    with c_l = max |g_l| over the generators, and every |C.g| in a row is
    at most P = sum c_l^2."""
    a = cone._signed_bounding_class(D.r)
    c = [max(abs(x) for x in col) for col in zip(*[g.coeffs for g in gens])]
    adeg = sum(x * y for x, y in zip(a, D.coeffs))
    p = sum(x * x for x in c)
    return max(sum(abs(x) * y for x, y in zip(D.coeffs, c)) + adeg * p, p)


WIDE = 2**70


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exclusion_on_wide_targets_matches_plain_pairings(data):
    # Targets with coefficients up to 2**70, drawn at a fresh magnitude
    # each, make the record widen its slots several times with rows
    # already filled.  The exclusion still agrees with the plain one in
    # helpers, packs the rows of the curves each target reaches (a
    # widening drops the rows packed before it), keeps every packed row
    # at the current width with its plain forced flag, and its slots hold
    # the proven bound of every target whose loop it entered.
    if data.draw(st.booleans(), label="catalog"):
        r, gens = 5, effective_generators(find_type("(2,A4,3)(a)").config())
    else:
        r, gens = draw_generators(data)
    cone._prepare.cache_clear()
    prep = cone._prepare(cone._key(gens))
    a = cone._signed_bounding_class(r)
    reached = set()
    for _ in range(data.draw(st.integers(1, 6), label="targets")):
        top = 2 ** data.draw(st.integers(0, 70), label="bits")
        coeffs = data.draw(st.tuples(st.integers(0, top), *[st.integers(-top, top)] * r))
        if data.draw(st.booleans(), label="a sum"):
            counts = data.draw(st.lists(
                st.integers(0, top), min_size=len(gens), max_size=len(gens)))
            coeffs = class_sum(r, zip(counts, gens)).coeffs
        D = DivisorClass(coeffs)
        proved, taken = reference_exclusion(D, gens)
        assert cone._excluded(D.coeffs, prep) == proved, (D, gens)
        reached.update(taken)
        packed = {i for i, row in enumerate(prep.packed) if row is not None}
        assert set(taken) <= packed <= reached
        if sum(x * y for x, y in zip(a, coeffs)) >= 0 and not root_rejects(D, gens):
            assert 2 ** (prep.k - 1) > pairing_bound(D, gens)
        for i in packed:
            pairs, forced = plain_row(i, gens)
            assert prep.packed[i] == packed_int(pairs, prep.k)
            assert prep.forced[i] == forced


def test_a_target_just_past_the_first_width_widens_the_record():
    # p_2 infinitely near p_1: every c_l is 1 and P = 3, so the bound is
    # |D0| + |D1| + |D2| + 3 A.D.  2L - 3E_1 + 17E_2 has bound 127, which
    # the first width, 8 bits, holds; 2L - 6E_1 + 21E_2 has bound 128,
    # just past it, so the record widens to 16 bits, dropping the rows the
    # first target packed, and packs its own there.  Both are proved absent.
    gens = parse_classes(["E_12", "E_2", "L_12"], 2)
    cone._prepare.cache_clear()
    prep = cone._prepare(cone._key(gens))
    for coeffs, bound, k in [((2, -3, 17), 127, 8), ((2, -6, 21), 128, 16)]:
        D = DivisorClass(coeffs)
        assert pairing_bound(D, gens) == bound
        proved, reached = reference_exclusion(D, gens)
        assert proved and len(reached) >= 2
        assert cone._excluded(D.coeffs, prep)
        assert prep.k == k
    filled = [i for i, row in enumerate(prep.packed) if row is not None]
    assert filled
    assert all(prep.packed[i] == packed_int(plain_row(i, gens)[0], 16) for i in filled)


def test_a_row_wider_than_the_target_bound_widens_the_record():
    # C = 12E_2 has C.C = -144, past the 8-bit slots.  D = -E_1 + 2E_2 has
    # A-degree 0 and |D.g| <= 24, but it pairs -24 with C, so the row of C
    # is read: the record widens to 16 bits, which hold P = 145, and C is
    # forced.  D - C has A-degree -12, so D is proved absent.
    gens = [DivisorClass((0, 0, 12)), DivisorClass((1, 0, 0))]
    D = DivisorClass((0, -1, 2))
    cone._prepare.cache_clear()
    prep = cone._prepare(cone._key(gens))
    assert prep.pmax == 145 and pairing(D, gens[0]) == -24
    assert reference_exclusion(D, gens) == (True, [0])
    assert cone._excluded(D.coeffs, prep)
    assert prep.k == 16 and prep.forced[0]
    assert prep.packed[0] == packed_int(plain_row(0, gens)[0], 16)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_monoid_answers_do_not_depend_on_the_generator_order(data):
    # The exclusion takes the first generator in list order that pairs
    # negatively with the target, and the search ranks ties by position,
    # so the work and the witness may depend on the order; whether a sum
    # exists may not.  Every witness sums to the target, and a proof of
    # absence under one order gives None under every order.
    r, gens = draw_generators(data)
    orders = [gens] + [data.draw(st.permutations(gens), label="order") for _ in range(2)]
    targets = data.draw(st.lists(
        st.tuples(st.integers(0, 3), *[st.integers(-4, 3)] * r), min_size=1, max_size=8))
    counts = data.draw(st.lists(st.integers(0, 2), min_size=len(gens), max_size=len(gens)))
    for coeffs in [*targets, class_sum(r, zip(counts, gens)).coeffs]:
        t = DivisorClass(coeffs)
        sols = [monoid_membership(t, order) for order in orders]
        assert len({sol is None for sol in sols}) == 1, (t, orders)
        for sol in sols:
            if sol is not None:
                assert class_sum(r, [(n, g) for g, n in sol.items()]) == t
        if any(excluded(t, order) for order in orders):
            assert sols[0] is None


@pytest.mark.parametrize("label", ["(1,D5,1)", "(2,A4,3)(a)", "(3,2A1A2,4)", "(5,∅,16)"])
def test_catalog_monoid_answers_do_not_depend_on_the_generator_order(label):
    # The window of the benchmark's monoid workload, d <= 20 and k <= 12,
    # at m = (1, ..., 1), on the catalog's own NEG order and on three
    # shuffles of it.
    gens = effective_generators(find_type(label).config())
    rng = random.Random(label)
    orders = [gens] + [rng.sample(gens, len(gens)) for _ in range(3)]
    for k in range(1, 13):
        for d in range(1, 21):
            t = target(d, k)
            sols = [monoid_membership(t, order) for order in orders]
            assert len({sol is None for sol in sols}) == 1, t
            for sol in sols:
                if sol is not None:
                    assert class_sum(5, [(n, g) for g, n in sol.items()]) == t
            if any(excluded(t, order) for order in orders):
                assert sols[0] is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_root_prune_rejects_as_the_per_generator_root_test(data):
    # The root test compares D with the first step's ratio.  On targets
    # of line degree b0 > 0 it must reject exactly what the test over
    # each generator g with g0 > 0 (helpers.root_rejects) rejects.  A
    # rejected target is refuted before any pairing row is packed; any
    # other one that pairs negatively with a generator packs a row.
    r, gens = draw_generators(data)
    a = cone._signed_bounding_class(r)
    targets = data.draw(st.lists(
        st.tuples(st.integers(1, 3), *[st.integers(-4, 3)] * r), min_size=1, max_size=12))
    for coeffs in targets:
        D = DivisorClass(coeffs)
        if sum(x * y for x, y in zip(a, coeffs)) < 0:
            continue
        cone._prepare.cache_clear()
        prep = cone._prepare(cone._key(gens))
        rejected = root_rejects(D, gens)
        assert cone._excluded(D.coeffs, prep) == reference_exclusion(D, gens)[0], (D, gens)
        if rejected:
            assert prep.packed == [None] * len(gens), (D, gens)
            assert monoid_membership(D, gens) is None
        elif any(pairing(D, g) < 0 for g in gens):
            assert prep.packed != [None] * len(gens), (D, gens)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_steps_run_by_descending_ratio_and_the_root_holds_the_largest(data):
    # The steps are the generators with g0 > 0, by descending ratio
    # need_drop/g0, then coefficients, then position, and then the
    # degree-zero generators by leading index, then position.  The root
    # test's (g0, cap) is the first step's g0 and max(need_drop, 0), so
    # cap/g0 is the largest ratio of all, or 0 if that is negative, and
    # (1, 0) when no step has g0 > 0; the root is None when a degree-zero
    # generator has need_drop > 0.  Ratios are compared by
    # cross-multiplication.
    r, gens = draw_generators(data)
    prep = cone._prepare(cone._key(gens))
    a = cone._signed_bounding_class(r)
    assert sorted(prep.order) == list(range(len(gens)))
    for (c, adeg, _), p in zip(prep.steps, prep.order):
        assert c == gens[p].coeffs
        assert adeg == sum(x * y for x, y in zip(a, c))
    # A step's cap indices are the l, line degree included, with g_l != 0
    # and no later step's coefficient at l of the opposite sign.
    for s, (c, _, caps) in enumerate(prep.steps):
        later = [h for h, _, _ in prep.steps[s + 1:]]
        expected = [l for l in range(r + 1)
                    if c[l] and all(h[l] * c[l] >= 0 for h in later)]
        assert list(caps) == expected, (c, gens)
    positive = sum(g.coeffs[0] > 0 for g in gens)
    assert all(c[0] > 0 for c, _, _ in prep.steps[:positive])
    zero = [(next(l for l in range(1, r + 1) if c[l]), p) for (c, _, _), p in
            zip(prep.steps[positive:], prep.order[positive:])]
    assert zero == sorted(zero)
    steps = [(c[0], -sum(c[1:]), c, p) for (c, _, _), p in
             zip(prep.steps[:positive], prep.order[:positive])]
    for (g0, nd, c, p), (h0, nd2, c2, q) in zip(steps, steps[1:]):
        assert nd * h0 > nd2 * g0 or (nd * h0 == nd2 * g0 and (c, p) < (c2, q))
    top, top0 = 0, 1  # the largest ratio, or 0
    for h0, nd, _, _ in steps:
        if nd * top0 > top * h0:
            top, top0 = nd, h0
    if any(g.coeffs[0] == 0 and sum(g.coeffs[1:]) < 0 for g in gens):
        assert prep.root is None
        return
    g0, cap = prep.root
    assert g0 == (steps[0][0] if steps else 1) and cap * top0 == top * g0


def test_root_prune_is_off_when_a_degree_zero_generator_raises_need():
    # E_1 - E_2 - E_3 has line degree 0 and need_drop 1, so need can fall
    # after the line degree is spent, and no target is rejected at the
    # root: L + E_1 - E_2 - E_3 has need 1 against a bound of 0.
    gens = [DivisorClass((0, 1, -1, -1)), DivisorClass((1, 0, 0, 0))]
    hit = DivisorClass((1, 1, -1, -1))
    assert cone._prepare(cone._key(gens)).root is None
    assert not excluded(hit, gens)
    assert monoid_membership(hit, gens) == {g: 1 for g in gens}


def test_window_minima_match_the_benchmark_pool():
    # Read-only: the pool holds the window minimum of each query, recorded
    # before the exclusion existed.
    pool = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "monoid-window.json"
    data = json.loads(pool.read_text(encoding="utf-8"))
    window = data["window"]
    for entry in data["entries"][::16]:
        cfg = find_type(entry["label"]).config()
        best = brute_force_alpha_hat(
            cfg, tuple(entry["m"]), d_max=window["d_max"], m_max=window["m_max"])
        assert best == Fraction(entry["value"]), entry


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
    # At r = 8, -K is nef, but L - E_1 - E_2 - E_3 meets L_12 at -1.
    r8 = generic_config(8)
    assert is_nef(parse_class("K", 8) * -1, r8)
    assert not is_nef(parse_class("[1,-1,-1,-1,0,0,0,0,0]", 8), r8)
    with pytest.raises(RankMismatchError):
        is_nef(parse_class("L", 4), d5)
    with pytest.raises(RankMismatchError):
        is_nef(parse_class("L", 8), gen16)


@cache
def own_config(label):
    """A configuration of the catalog model, or of 8 general points, that
    no other test shares, so these tests may widen its record."""
    if label == "r8":
        return generic_config(8)
    return SurfaceConfig(5, find_type(label).classes())


def decoded_columns(prep):
    """The record's packed rows read back slot by slot, as columns."""
    k, half = prep.k, prep.half
    mask = (1 << k) - 1
    offset = half * (((1 << k * prep.ncols) - 1) // mask)
    return [
        tuple(((row + offset) >> k * j & mask) - half for row in prep.rows)
        for j in range(prep.ncols)
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_nef_check_matches_plain_pairings(data):
    # Entries up to 2**60 make the record widen past the width its LP left.
    label = data.draw(st.sampled_from(["(1,D5,1)", "(2,A4,3)(a)", "(5,∅,16)", "r8"]))
    cfg = own_config(label)
    gens = effective_generators(cfg)
    top = 2 ** data.draw(st.integers(0, 60), label="bits")
    F = DivisorClass(data.draw(st.tuples(*[st.integers(-top, top)] * (cfg.r + 1))))
    prep = cone._record(cfg)
    negative = [j for j, g in enumerate(gens) if pairing(F, g) < 0]
    assert cone._negative(F.coeffs, prep) == negative
    assert 2 ** (prep.k - 1) > sum(abs(f) * c for f, c in zip(F.coeffs, prep.cmax))
    assert is_nef(F, cfg) == (not negative)
    assert decoded_columns(prep) == [g.coeffs for g in gens] + [(-1,) + (0,) * cfg.r]


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 8).flatmap(lambda r: st.tuples(
    st.integers(-2, 24), st.tuples(*[st.integers(-1, 10)] * r))))
def test_cremona_reduction_decides_nef_as_the_generic_list_does(f):
    # An oracle that reads no NEG list (helpers.cremona_nef) against the
    # packed check over all exceptional classes of the rank (and -K at 8).
    f0, mults = f
    F = DivisorClass((f0,) + tuple(-x for x in mults))
    assert cremona_nef(F.coeffs) == is_nef(F, _generic(len(mults)))


def test_the_record_decodes_to_its_columns_after_every_widen():
    # The LP, the nef check and the exclusion each widen the record to the
    # width they need; after each, the rows read back as the generators,
    # then the line-degree column -e0.
    cfg = SurfaceConfig(5, find_type("(2,A4,3)(a)").classes())
    gens = effective_generators(cfg)
    columns = [g.coeffs for g in gens] + [(-1, 0, 0, 0, 0, 0)]
    prep = cone._record(cfg)
    assert prep.k == 0 and prep.steps is None
    _, cert = waldschmidt(cfg, ONES)
    widths = [prep.k]
    assert decoded_columns(prep) == columns
    assert not is_nef(DivisorClass((2**40, 2**41, 0, 0, 0, 0)), cfg)
    widths.append(prep.k)
    assert decoded_columns(prep) == columns
    # Line degree 0: the exclusion reads slots of about 2**73, and any
    # witness uses degree-zero steps alone.
    D = DivisorClass((0, 2**70, -(2**70), 0, 0, 0))
    assert prep.steps is None  # the LP and the nef check built no search parts
    found = cone._member(D.coeffs, prep)
    assert {gens[p]: n for p, n in found} == monoid_membership(D, gens)
    assert prep.steps is not None
    widths.append(prep.k)
    assert decoded_columns(prep) == columns
    assert widths[0] < widths[1] < widths[2]
    assert verify_certificate(cert, cfg)
    # The LP packs the record back at its own width.
    assert waldschmidt(cfg, ONES) == (cert.value, cert)
    assert prep.k == widths[0] and decoded_columns(prep) == columns


def test_an_lp_after_a_wide_nef_check_solves_at_its_own_width():
    # One nef check with entries near 2**60 widens the record; the next LP
    # on the configuration runs at the width of a fresh matrix of its
    # columns, as it did before that check.
    cfg = SurfaceConfig(5, find_type("(2,A4,3)(a)").classes())
    gens = effective_generators(cfg)
    prep = cone._record(cfg)
    m = (1, 2, 1, 2, 1)
    b, c = (0,) + tuple(-x for x in m), [0] * len(gens) + [1]
    fresh = simplex.PackedMatrix(prep.coords, prep.ncols)
    expected = solve_lp(fresh, b, c)
    value, cert = waldschmidt(cfg, m)
    assert prep.k == fresh.k
    assert not is_nef(DivisorClass((2**60, 2**60 + 1, 0, 0, 0, 0)), cfg)
    assert prep.k > fresh.k
    assert solve_lp(prep, b, c) == expected
    assert prep.k == fresh.k
    assert waldschmidt(cfg, m) == (value, cert) and prep.k == fresh.k


def test_the_alpha_scan_reads_the_configuration_record():
    # Each d of the scan goes to the configuration's record, never to the
    # raw-list cache with its per-call key.
    cfg = generic_config(8)
    before = cone._prepare.cache_info()
    assert alpha_degree(cfg, (2,) * 8) == 6
    assert cone._prepare.cache_info() == before


def test_waldschmidt_known_values():
    value, cert = waldschmidt(find_type("(1,D5,1)").config(), ONES)
    assert value == F(5, 3) == cert.value
    assert verify_certificate(cert, find_type("(1,D5,1)").config())

    cfg3 = three_generic_points()
    value3, cert3 = waldschmidt(cfg3, (1, 1, 1))
    assert value3 == F(3, 2) == cert3.value
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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_value_is_homogeneous_and_subadditive(data):
    # alpha_hat(k*m) = k*alpha_hat(m) for k <= 4, and alpha_hat(m + n) <=
    # alpha_hat(m) + alpha_hat(n), over the catalog and r = 3..8 general
    # points.  A failure here is a finding about the LP, not a bound to relax.
    cfg = shared_config(data.draw(st.sampled_from(SHARED_LABELS), label="config"))
    ms = st.tuples(*[st.integers(0, 3)] * cfg.r)
    m, n, k = data.draw(ms, label="m"), data.draw(ms, label="n"), data.draw(st.integers(1, 4))
    value = waldschmidt(cfg, m)[0]
    assert waldschmidt(cfg, tuple(k * x for x in m))[0] == k * value
    total = waldschmidt(cfg, tuple(x + y for x, y in zip(m, n)))[0]
    assert total <= value + waldschmidt(cfg, n)[0]


# The models whose five points all lie on the plane, and r general points.
DISTINCT_LABELS = [t.label for t in catalog() if t.n == 5] + [f"r{r}" for r in range(3, 9)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_alpha_lies_between_the_value_and_twice_it(data):
    # alpha_hat(m) <= alpha(m) <= 2*alpha_hat(m), and alpha(m + n) <=
    # alpha(m) + alpha(n).  The upper bound is containment, I^(2k) in I^k
    # for fat points at distinct points (Ein-Lazarsfeld-Smith,
    # Hochster-Huneke), so only distinct-point models are drawn.  A failure
    # here is a finding about the LP or the monoid search, not a bound to relax.
    cfg = shared_config(data.draw(st.sampled_from(DISTINCT_LABELS), label="config"))
    ms = st.tuples(*[st.integers(0, 3)] * cfg.r)
    m, n = data.draw(ms, label="m"), data.draw(ms, label="n")
    value, alpha = waldschmidt(cfg, m)[0], alpha_degree(cfg, m)
    assert value <= alpha <= 2 * value
    assert alpha_degree(cfg, tuple(x + y for x, y in zip(m, n))) <= alpha + alpha_degree(cfg, n)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([t.label for t in catalog()]), st.tuples(*[st.integers(0, 3)] * 5))
def test_no_catalog_model_exceeds_the_generic_value(label, m):
    # Lower semicontinuity at the LP level: the five general points are the
    # most general configuration, so no model's value exceeds theirs.
    assert waldschmidt(find_type(label).config(), m)[0] <= waldschmidt(_generic(5), m)[0]


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
        "degree d = -1 is negative": replaced(cert, d=-1),
        "multiplicity scale m = 0 is not positive": replaced(cert, m=0),
        "4 multiplicities for 5 points": replaced(
            cert, multiplicities=cert.multiplicities[:4]
        ),
        "L is not an effective-cone generator": replaced(
            cert, decomposition=cert.decomposition + ((parse_class("L", 5), F(0)),)
        ),
        "E_12 has negative coefficient -1": replaced(
            cert, decomposition=((parse_class("E_12", 5), F(-1)),) + cert.decomposition[1:]
        ),
        "nef class E_1 has rank 2, not 5": replaced(
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


@pytest.mark.parametrize("coefficients", [
    pytest.param(lambda q: float(q), id="float-sums-exactly"),
    pytest.param(lambda q: float(q) / 10, id="float-sums-inexactly"),
    pytest.param(lambda q: q == 1, id="bool"),
])
def test_certificate_coefficient_that_is_no_int_or_fraction_is_named(coefficients):
    # The all-ones certificate at r = 6 has six coefficients 1: as floats
    # (or bools) they sum exactly, and divided by 10 they do not.
    cfg = generic_config(6)
    _, cert = waldschmidt(cfg, (1,) * 6)
    bad = replaced(cert, decomposition=tuple(
        (g, coefficients(q)) for g, q in cert.decomposition
    ))
    assert not verify_certificate(bad, cfg)
    failures = certificate_failures(bad, cfg)
    assert failures[:6] == [
        f"{format_class(g)} has coefficient {q!r}, not an int or a Fraction"
        for g, q in bad.decomposition
    ]
    assert failures[6].startswith("decomposition sums to [0,0,0,0,0,0,0], not")


def test_certificate_field_of_the_wrong_type_is_named():
    cfg = generic_config(6)
    _, cert = waldschmidt(cfg, (1,) * 6)
    (g, q), *rest = cert.decomposition
    bad = {
        "degree d = None is not an int": replaced(cert, d=None),
        "multiplicity scale m = '1' is not an int": replaced(cert, m="1"),
        "multiplicities None are not a tuple or list of ints":
            replaced(cert, multiplicities=None),
        f"nef class {cert.nef.coeffs!r} is not a DivisorClass":
            replaced(cert, nef=cert.nef.coeffs),
        f"decomposition generator {g.coeffs!r} is not a DivisorClass":
            replaced(cert, decomposition=((g.coeffs, q), *rest)),
        "decomposition None is not a sequence of (generator, coefficient) pairs":
            replaced(cert, decomposition=None),
    }
    for reason, bad_cert in bad.items():
        assert not verify_certificate(bad_cert, cfg)
        assert reason in certificate_failures(bad_cert, cfg), reason


def test_certificate_failures_sums_mixed_denominators():
    # A decomposition with coefficients in 1 and 1/2, so the check scales
    # the sum to integers by a common denominator.
    cfg = find_type("(3,4A1,4)").config()
    _, cert = waldschmidt(cfg, (1, 2, 1, 1, 2))
    assert {q.denominator for _, q in cert.decomposition} == {1, 2}
    assert certificate_failures(cert, cfg) == []
    (g, q), *rest = cert.decomposition
    off = replaced(cert, decomposition=((g, q + F(1, 7)), *rest))
    sums = [F(0)] * 6
    for h, c in off.decomposition:
        sums = [s + c * a for s, a in zip(sums, h.coeffs)]
    assert certificate_failures(off, cfg)[0] == (
        "decomposition sums to [" + ",".join(str(v) for v in sums)
        + f"], not d*L - m*E_Z = {format_class(cert.target())}"
    )


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


def test_certificate_failures_compares_few_classes(monkeypatch):
    # hash(-1) == hash(-2), so the 240 (-1)-classes at r=8 share about 110
    # hash values; a set of DivisorClass would compare them in Python.
    golden = Path(__file__).parent / "golden"
    cfg = config.load_config(str(golden / "generic-r8.json"))
    data = json.loads((golden / "waldschmidt-r8.stdout").read_text(encoding="utf-8"))
    cert = certificate_from_dict(data["certificate"], 8)
    effective_generators(cfg)  # validate outside the count
    calls = []
    real_eq = DivisorClass.__eq__

    def counting_eq(self, other):
        calls.append(1)
        return real_eq(self, other)

    monkeypatch.setattr(DivisorClass, "__eq__", counting_eq)
    assert certificate_failures(cert, cfg) == []
    assert len(calls) < 50


@pytest.mark.parametrize("change", [
    pytest.param({"d": None}, id="missing-d"),
    pytest.param({"d": "x"}, id="string-d"),
    pytest.param({"d": 5.5}, id="float-d"),
    pytest.param({"d": True}, id="bool-d"),
    pytest.param({"multiplicities": [1, 1, 1, 1, 1.0]}, id="float-multiplicity"),
    pytest.param({"decomposition": [{"generator": "E_12", "coefficient": "1/0"}]},
                 id="zero-denominator"),
    pytest.param({"decomposition": [{"generator": "E_12", "coefficient": 0.5}]},
                 id="float-coefficient"),
    pytest.param({"decomposition": [{"generator": 12, "coefficient": "1"}]},
                 id="non-string-generator"),
    pytest.param({"decomposition": 3}, id="non-list-decomposition"),
])
def test_certificate_from_dict_rejects_malformed_data(change):
    _, cert = waldschmidt(find_type("(3,2A1A2,4)").config(), ONES)
    data = {**cert.to_dict(), **change}
    data = {k: v for k, v in data.items() if v is not None}
    with pytest.raises(ConfigurationError):
        certificate_from_dict(data, 5)


def test_alpha_degree_examples():
    assert alpha_degree(find_type("(5,∅,16)").config(), ONES) == 2
    assert alpha_degree(find_type("(1,D5,1)").config(), ONES) == 2
    cfg3 = three_generic_points()
    assert alpha_degree(cfg3, (0, 0, 0)) == 0
    assert alpha_degree(cfg3, (1, 1, 1)) == 2
    # d = 1 must genuinely be infeasible at (5,∅,16):
    gens = effective_generators(find_type("(5,∅,16)").config())
    assert monoid_membership(target(1, 1), gens) is None


def test_r8_alpha_takes_no_exhaustive_search():
    # Each answer was seconds of search before the exclusion pruned it.
    cfg = generic_config(8)
    for m, value, alpha in [
        ((1,) * 7 + (5,), F(11, 2), 6),
        ((9,) + (3,) * 6 + (1,), F(23, 2), 12),
    ]:
        assert waldschmidt(cfg, m)[0] == value
        assert alpha_degree(cfg, m) == alpha
        assert chudnovsky_check(cfg, m)


def test_alpha_degree_past_the_scan_raises():
    # This NEG list passes validation but names no line through two points,
    # so it is not geometric: its LP value is 3/2, and no d <= sum(m) + 1 = 2
    # makes d*L - E_1 an integer combination of its generators.
    cfg = config.config_from_dict({
        "r": 7, "negative_curves": ["C_1;234567"] + [f"E_{i}" for i in range(1, 8)],
    })
    m = (1,) + (0,) * 6
    assert validate_config(cfg).ok
    assert waldschmidt(cfg, m)[0] == F(3, 2)
    with pytest.raises(InfeasibleConeError, match="no degree up to 2"):
        alpha_degree(cfg, m)


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
    records = _record_calls(monkeypatch, cone, "_Prepared")
    fetches = _record_calls(monkeypatch, cone, "effective_generators")
    curves = find_type("(1,D5,1)").classes()
    cfg = SurfaceConfig(5, curves)
    _, cert = waldschmidt(cfg, ONES)
    assert verify_certificate(cert, cfg)
    assert is_nef(cert.nef, cfg) and alpha_degree(cfg, ONES) == 2
    assert chudnovsky_check(cfg, ONES)
    assert len(calls) == 1 and len(records) == 1 and len(fetches) == 1
    # An equal configuration built anew shares no cache with the first.
    twin = SurfaceConfig(5, curves)
    assert twin == cfg and twin is not cfg
    assert validate_config(twin).ok
    assert len(calls) == 2
    assert waldschmidt(twin, ONES) == (cert.value, cert)
    assert len(records) == 2 and len(fetches) == 2
    assert cone._record(cfg) is not cone._record(twin)


def test_an_invalid_configuration_keeps_no_record():
    # Every query on it raises, or verifies nothing, and none leaves a record.
    cfg = SurfaceConfig(2, parse_classes(["E_1", "E_12"], 2))
    assert not validate_config(cfg).ok
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            is_nef(parse_class("L", 2), cfg)
        with pytest.raises(ConfigurationError):
            waldschmidt(cfg, (1, 1))
    assert not verify_certificate(waldschmidt(three_generic_points(), (1, 1, 1))[1], cfg)
    assert "_record" not in cfg.__dict__


def test_the_record_is_freed_with_its_configuration():
    cfg = SurfaceConfig(5, find_type("(1,D5,1)").classes())
    waldschmidt(cfg, ONES)
    record = weakref.ref(cone._record(cfg))
    assert record() is not None
    del cfg
    gc.collect()
    assert record() is None


def test_chudnovsky_solves_one_lp(monkeypatch):
    solves = _record_calls(monkeypatch, cone, "solve_lp")
    assert chudnovsky_check(find_type("(1,D5,1)").config(), ONES)
    assert len(solves) == 1


def test_monoid_answers_generators_that_share_a_leading_index():
    # No valid configuration holds both: they pair to -1.  The search
    # needs no triangular system, so it answers them in either order,
    # with the lexicographically greatest vector in step order.
    e1, e12 = parse_class("E_1", 2), parse_class("E_12", 2)
    assert not validate_config(SurfaceConfig(2, (e1, e12))).ok
    for gens in ([e1, e12], [e12, e1]):
        member = naive_monoid_members(gens)
        for coeffs in itertools.product([0], range(-3, 4), range(-3, 4)):
            sol = monoid_membership(DivisorClass(coeffs), gens)
            assert (sol is not None) == member(coeffs), (coeffs, gens)
            if sol is not None:
                assert class_sum(2, [(n, g) for g, n in sol.items()]) == DivisorClass(coeffs)
    sol = monoid_membership(DivisorClass((0, 3, -1)), [e12, e1])
    assert list(sol.items()) == [(e12, 1), (e1, 2)]


def test_a_deep_degree_zero_target_costs_the_same_at_any_size(monkeypatch):
    # On (1,D5,1) the degree-zero steps E_12, E_23, E_34, E_45 each start
    # at lam <= R_l // g_l, the answer here, so N*(e_1 - e_5) takes as many
    # exclusions at every N, none of them on the zero residual, a leaf.
    # On [E_12, E_1] the exclusion leaves every residual (0, a, b) with
    # a, b > 0 open, though no sum reaches it; E_12 starts at
    # lam <= R_2 // -1, as E_1 is 0 at index 2, so (0, 2N, -N) and
    # (0, N, 0) cost the same at every N as well.
    d5 = effective_generators(find_type("(1,D5,1)").config())
    pair = parse_classes(["E_12", "E_1"], 2)
    cases = [
        (d5, (1024, 16384), lambda n: (0, n, 0, 0, 0, -n),
         lambda n: [("E_12", n), ("E_23", n), ("E_34", n), ("E_45", n)]),
        (pair, (64, 1024), lambda n: (0, 2 * n, -n), lambda n: [("E_12", n), ("E_1", n)]),
        (pair, (64, 1024), lambda n: (0, n, 0), lambda n: [("E_1", n)]),
    ]
    real, calls = cone._excluded, []

    def counting(coeffs, prep):
        calls.append(coeffs)
        return real(coeffs, prep)

    monkeypatch.setattr(cone, "_excluded", counting)
    for gens, sizes, coeffs, witness in cases:
        counts = []
        for n in sizes:
            calls.clear()
            sol = monoid_membership(DivisorClass(coeffs(n)), gens)
            assert [(format_class(g), k) for g, k in sol.items()] == witness(n)
            assert all(any(c) for c in calls)
            counts.append(len(calls))
        assert counts[0] == counts[1], (coeffs(1), counts)


@cache
def _generic_generators(r):
    return effective_generators(_generic(r))


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 7).flatmap(
    lambda r: st.tuples(st.just(r), st.tuples(*[st.integers(0, 3)] * r))))
def test_the_exclusion_decides_membership_on_general_points(rm):
    # On r general points, dL - sum m_i E_i with m in {0..3}^r and
    # d <= 3 max(m) + 3 is left open by the exclusion exactly when the
    # search finds a witness: the exclusion alone decides these targets.
    r, m = rm
    gens = _generic_generators(r)
    for d in range(3 * max(m) + 4):
        D = DivisorClass((d,) + tuple(-x for x in m))
        assert (not excluded(D, gens)) == (monoid_membership(D, gens) is not None), D


def _certificate_queries():
    """Every catalog model at all-ones and three seeded m in {0..3}^5, and
    the generic r = 6, 7, 8 configurations at three seeded m in {1,2,3}^r."""
    rng = random.Random(1802)
    for t in catalog():
        yield t.config(), (1,) * 5
        for _ in range(3):
            yield t.config(), tuple(rng.randint(0, 3) for _ in range(5))
    for r in (6, 7, 8):
        for _ in range(3):
            yield generic_config(r), tuple(rng.randint(1, 3) for _ in range(r))


def _solved_lp(mm, prep):
    """cone._solve's answer, and the matrix it handed solve_lp (None if none)."""
    seen = []
    real = cone.solve_lp

    def recording(a, b, c):
        seen.append(a)
        return real(a, b, c)

    with mock.patch.object(cone, "solve_lp", recording):
        value, cert = cone._solve(mm, prep)
    return value, cert, seen[0] if seen else None


def test_the_integer_certificate_is_the_fraction_paths():
    # On the record's LP, _solve builds the certificate in integers over the
    # LP's denominator; it equals the one the Fraction views give
    # (helpers.fraction_certificate).  The queries that take the symmetry
    # quotient lift their certificate from it instead.
    solved = lifted = 0
    for cfg, m in _certificate_queries():
        mm, prep = cone._require_valid(cfg, m)
        if not any(mm):
            continue
        value, cert, a = _solved_lp(mm, prep)
        if a is not prep:
            lifted += 1
            continue
        gens = effective_generators(cfg)
        res = solve_lp(prep, (0,) + tuple(-x for x in mm), [0] * len(gens) + [1])
        expected = fraction_certificate(res, gens, mm)
        assert cert == expected and value == expected.value, (cfg, m)
        assert {type(q) for _, q in cert.decomposition} == {Fraction}, (cfg, m)
        solved += 1
    assert (solved, lifted) == (117, 12)


def test_the_quotient_lp_has_the_pool_shape():
    # Every generic-r8 pool query takes the quotient: one row for the line
    # degree and one per distinct m_i, so at most 4, and a column count
    # fixed by the block sizes, against the record's 241 generators.
    entries = json.loads((Path(__file__).parent.parent / "perfbench" / "data" / "generic-r8.json").read_text(encoding="utf-8"))["entries"]
    prep = cone._record(_generic(8))
    columns = {
        (8,): 7, (6, 2): 19, (4, 4): 21, (5, 3): 21, (6, 1, 1): 29, (5, 2, 1): 35,
        (4, 3, 1): 37, (4, 2, 2): 41, (3, 3, 2): 43,
    }
    counts = []
    for entry in entries:
        m = tuple(entry["m"])
        value, _, a = _solved_lp(m, prep)
        sizes = tuple(sorted(collections.Counter(m).values(), reverse=True))
        assert isinstance(a, list) and len(a) == len(sizes) + 1 <= 4, m
        assert len(a[0]) - 1 == columns[sizes], m
        assert value == Fraction(entry["value"]), m
        counts.append(len(a[0]) - 1)
    assert (len(counts), statistics.median(counts), max(counts)) == (97, 37, 43)


def _symmetry_cases():
    """(label, m), a catalog model or generic r = 3..8 about equally often,
    with m in {0..3}^r drawn from one to three of those values, so that
    repeated entries, and with them the quotient, are common."""
    labels = st.one_of(st.sampled_from(SHARED_LABELS[:-6]), st.sampled_from(SHARED_LABELS[-6:]))
    values = st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)
    return st.tuples(labels, values).flatmap(lambda lv: st.tuples(
        st.just(lv[0]),
        st.tuples(*[st.sampled_from(lv[1])] * shared_config(lv[0]).r)))


@settings(max_examples=150, deadline=None)
@given(_symmetry_cases())
def test_the_symmetry_quotient_solves_the_record_lp(case):
    label, m = case
    cfg = shared_config(label)
    gens = effective_generators(cfg)
    prep = cone._record(cfg)
    value, cert, a = _solved_lp(m, prep)
    full = solve_lp(prep, (0,) + tuple(-x for x in m), [0] * len(gens) + [1])
    assert value == full.objective, case
    assert (a is None) == (not any(m)), case
    assert certificate_failures(cert, cfg) == [], case
    assert plain_certificate_failures(cert, gens) == [], case
    blocks = symmetry_blocks(gens, m)
    quotient = any(m) and 2 * (len(blocks) + 1) <= cfg.r + 1
    assert (a not in (None, prep)) == quotient, case
    if quotient:
        assert len(a) == len(blocks) + 1, case
        nef = cert.nef.coeffs
        assert all(len({nef[i] for i in b}) == 1 for b in blocks), case


def test_points_whose_swap_moves_the_neg_list_are_not_merged():
    # (1,D5,1): no swap of two points maps its NEG list to itself, so with
    # all-ones m every point is its own block and the record's LP is solved.
    cfg = find_type("(1,D5,1)").config()
    gens = effective_generators(cfg)
    prep = cone._record(cfg)
    assert symmetry_blocks(gens, ONES) == [[1], [2], [3], [4], [5]]
    assert prep.symmetry() == [1, 2, 3, 4, 5]
    value, cert, a = _solved_lp(ONES, prep)
    assert a is prep
    res = solve_lp(prep, (0,) + (-1,) * 5, [0] * len(gens) + [1])
    assert cert == fraction_certificate(res, gens, ONES) and value == res.objective


@pytest.mark.parametrize("label", SHARED_LABELS)
def test_the_record_symmetry_is_the_plain_partition(label):
    # heads[i - 1] is the first point of i's block; with every m_i equal the
    # blocks are those of the plain swap test.
    cfg = shared_config(label)
    blocks = symmetry_blocks(effective_generators(cfg), (1,) * cfg.r)
    heads = cone._record(cfg).symmetry()
    assert [[i for i in range(1, cfg.r + 1) if heads[i - 1] == b[0]] for b in blocks] == blocks


def test_the_certificate_scales_to_an_integer_sum():
    # Integer closure: with s the lcm of the certificate's denominators,
    # s*(d*L - m_c*E_Z) is an integer sum of generators, and alpha_hat
    # bounds alpha from below, so alpha(s*m_c*m) = s*d exactly: the monoid
    # search reaches what the LP certifies.
    checked = 0
    for cfg, m in _certificate_queries():
        if not any(m):
            continue
        _, cert = waldschmidt(cfg, m)
        s = lcm(*[q.denominator for _, q in cert.decomposition])
        assert alpha_degree(cfg, tuple(s * cert.m * x for x in m)) == s * cert.d, (cfg, m)
        checked += 1
    assert checked >= 125


def test_solver_invariants_raise_typed_errors(monkeypatch):
    cfg = find_type("(1,D5,1)").config()
    real = cone.solve_lp

    def zero_optimum(a, b, c):
        res = real(a, b, c)
        return replaced(res, x_num=res.x_num[:-1] + (0,))

    def loose_dual(a, b, c):
        res = real(a, b, c)
        return replaced(res, den=2 * res.den, dual_num=(-res.den,) + res.dual_num[1:])

    monkeypatch.setattr(cone, "solve_lp", zero_optimum)
    with pytest.raises(SolverInvariantError, match="not positive"):
        waldschmidt(cfg, ONES)
    monkeypatch.setattr(cone, "solve_lp", loose_dual)
    with pytest.raises(SolverInvariantError, match="not -1"):
        waldschmidt(cfg, ONES)
    unbounded = LpResult(UNBOUNDED, None, None, None, None)
    monkeypatch.setattr(cone, "solve_lp", lambda a, b, c: unbounded)
    with pytest.raises(SolverInvariantError, match="unbounded"):
        waldschmidt(cfg, ONES)
    with pytest.raises(SolverInvariantError, match="unbounded"):
        cone_membership(target(2, 1), effective_generators(cfg))
