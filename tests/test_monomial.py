from fractions import Fraction
from functools import reduce
import itertools
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from waldschmidt.errors import MonomialError
from waldschmidt import monomial as mono

XYZ = ("x", "y", "z")


def ideal(text, variables=XYZ):
    return mono.parse_ideal(text, variables)


def test_parse_and_format():
    i = ideal("x^2, x*y, y^3")
    assert i.variables == XYZ
    assert i.generators == ((2, 0, 0), (1, 1, 0), (0, 3, 0))
    assert mono.format_ideal(i) == "x^2, x*y, y^3"
    assert mono.parse_ideal("a^2*b, c").variables == ("a", "b", "c")
    assert mono.format_ideal(ideal("1")) == "1"
    assert mono.format_ideal(mono.MonomialIdeal(XYZ, ())) == "0"
    with pytest.raises(MonomialError):
        mono.parse_ideal("x^2, w", ("x", "y"))
    with pytest.raises(MonomialError):
        mono.parse_ideal("x^, y")
    with pytest.raises(MonomialError):
        mono.parse_ideal("x,,y")
    with pytest.raises(MonomialError, match="repeated variable name"):
        mono.parse_ideal("x*y, y^2", ("x", "y", "y"))
    with pytest.raises(MonomialError, match="repeated variable name"):
        mono.MonomialIdeal(("x", "x"), ((1, 0),))


def test_minimalize():
    i = ideal("x^4, x^3*y, x^2*y^3, x^2*y^2, x*y^4, y^6")
    assert mono.format_ideal(i) == "x^4, x^3*y, x^2*y^2, x*y^4, y^6"


def naive_minimal(gens):
    """Every generator that no other generator divides, by all pairs."""
    uniq = set(gens)
    return tuple(sorted(
        (g for g in uniq
         if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in uniq)),
        reverse=True,
    ))


def vector_lists(n, min_size, max_size):
    """Lists of exponent vectors in n variables.  Each list draws its entries
    as k * scale + r with small k and r; the scales 2**29 and 2**59 make the
    packed fields wider than 30 and 60 bits."""
    def lists(scale):
        entry = st.builds(lambda k, r: k * scale + r, st.integers(0, 3), st.integers(0, 1))
        return st.lists(st.tuples(*[entry] * n), min_size=min_size, max_size=max_size)
    return st.sampled_from([1, 2**29, 2**59]).flatmap(lists)


@given(st.integers(1, 4).flatmap(lambda n: vector_lists(n, 0, 12)))
@example([(0, 0, 0)])
@example([(2**40, 0), (2**40 + 1, 1), (0, 2**40), (3, 2**40)])
def test_minimal_matches_all_pairs_reference(gens):
    assert mono._minimal(gens) == naive_minimal(gens)


def test_ideals_need_a_variable():
    with pytest.raises(MonomialError):
        mono.parse_ideal("1")
    with pytest.raises(MonomialError):
        mono.MonomialIdeal((), ())


def test_exponent_vectors_must_fit_the_variables():
    with pytest.raises(MonomialError, match="bad exponent vector"):
        mono.MonomialIdeal(("x", "y"), ((1,),))
    # Exponents are nonnegative ints; the message names the bad vector.
    for bad in ((1, 2, 0), (1.5, 0), (True, 0), (2, -1)):
        with pytest.raises(MonomialError, match=re.escape(f"vector {bad} in 2")):
            mono.MonomialIdeal(("x", "y"), ((0, 2), bad))


def test_product_and_power():
    j = ideal("x, y^2")
    assert mono.format_ideal(mono.power(j, 3)) == "x^3, x^2*y^2, x*y^4, y^6"
    for m in (0, 2.0, True, Fraction(2)):
        with pytest.raises(MonomialError):
            mono.power(j, m)
    with pytest.raises(MonomialError):
        mono.product(j, mono.parse_ideal("x", ("x",)))


def test_pair_budget():
    def chain(n):  # n + 1 generators
        return mono.MonomialIdeal(XYZ, tuple((a, n - a, 0) for a in range(n + 1)))

    assert len(chain(39).generators) * len(chain(49).generators) == mono.PAIR_CAP
    mono.product(chain(39), chain(49))
    with pytest.raises(MonomialError, match="budget"):
        mono.product(chain(40), chain(49))
    # Intersections have their own, larger budget.
    assert len(chain(79).generators) * len(chain(49).generators) == mono.LCM_PAIR_CAP
    mono.intersect(chain(79), chain(49))
    with pytest.raises(MonomialError, match="intersection budget"):
        mono.intersect(chain(80), chain(49))


def test_power_budget():
    # A step of power multiplies I^k by I.  (x)^m forms one pair per step,
    # m - 1 in all, so m = cap + 1 fits the budget and m = cap + 2 does not.
    cap = mono.POWER_PAIR_CAP
    x = ideal("x")
    assert mono.power(x, cap + 1).generators == ((cap + 1, 0, 0),)
    with pytest.raises(MonomialError, match=f"{cap + 1} generator pairs exceed the power budget of {cap}"):
        mono.power(x, cap + 2)
    # (y, z)^m forms m^2 + m - 2 pairs: 7830 at m = 88, 8008 at m = 89,
    # where the budget stops any larger m before its 89th step.
    yz = ideal("y, z")
    assert len(mono.power(yz, 88).generators) == 89
    for m in (89, 999):
        with pytest.raises(MonomialError, match="8008 generator pairs exceed the power budget"):
            mono.power(yz, m)
    with pytest.raises(MonomialError, match="8008 generator pairs exceed the power budget"):
        mono.symbolic_power(ideal("x^2*y, z"), 150)


def test_symbolic_power_intersection_budget():
    # 3249 lcm pairs in the last intersection, but small powers.
    i = ideal("x^4*y, x^4*z, x^3*y*z, x^2*y^2*z^2, x*y^3*z^3, y^4*z^4")
    assert mono.alpha(mono.symbolic_power(i, 14)) == 63
    # (y, z)^m and (x^2, z)^m have m + 1 generators each: 63^2 pairs fit
    # the budget, 64^2 do not.
    j = ideal("x^2*y, z")
    assert mono.alpha(mono.symbolic_power(j, 62)) == 62
    with pytest.raises(MonomialError, match="4096 generator pairs exceed the intersection budget"):
        mono.symbolic_power(j, 63)


def test_intersect():
    a = mono.parse_ideal("x", ("x", "y"))
    b = mono.parse_ideal("y", ("x", "y"))
    assert mono.format_ideal(mono.intersect(a, b)) == "x*y"


def test_contains():
    i = ideal("x^2, x*y, y^3")
    assert str(i) == "x^2, x*y, y^3"
    assert i.contains((2, 5, 0))
    assert not i.contains((1, 0, 9))


@pytest.mark.parametrize("vector", [(1,), (0, 2, 0, 5), (1.5, 0, 0), (True, 0, 0), (0, -1, 0)])
def test_contains_rejects_what_the_constructor_rejects(vector):
    i = ideal("x, y^2")
    with pytest.raises(MonomialError, match=re.escape(f"bad exponent vector {vector} in 3")):
        i.contains(vector)
    with pytest.raises(MonomialError, match="bad exponent vector"):
        mono.MonomialIdeal(XYZ, (vector,))


def test_saturation_worked_example():
    i2 = mono.power(ideal("x^2, x*y, y^3"), 2)
    assert mono.format_ideal(mono.saturate_irrelevant(i2)) == (
        "x^4, x^3*y, x^2*y^2, x*y^4, y^6"
    )
    j3 = mono.power(ideal("x, y^2"), 3)
    assert mono.saturate_irrelevant(j3) == j3
    # z*(x, y) cuts out a line plus an embedded point at the origin of
    # the affine chart; neither component is irrelevant, so saturation
    # fixes the ideal (stripping z alone would give the colon by z).
    zy = mono.parse_ideal("x*z, y*z", XYZ)
    assert mono.saturate_irrelevant(zy) == zy
    words = mono._Words(3, mono._top(zy))
    stripped = words.strip(words.pack(zy.generators), 2)
    assert mono.format_ideal(words.ideal(XYZ, stripped)) == "x, y"


def test_symbolic_power_worked_example():
    i = ideal("x^2, x*y, y^3")
    assert mono.format_ideal(mono.symbolic_power(i, 2)) == (
        "x^4, x^3*y, x^2*y^2, x*y^4, y^6"
    )
    j = ideal("x, y^2")
    assert mono.format_ideal(mono.symbolic_power(j, 3)) == (
        "x^3, x^2*y^2, x*y^4, y^6"
    )
    assert mono.symbolic_power(i, 1) == mono.saturate_irrelevant(i)
    for m in (0, 2.0, True, Fraction(2)):
        with pytest.raises(MonomialError):
            mono.symbolic_power(i, m)


def test_strict_containment_of_powers():
    # x^3 lies in the length-three chain ideal but not in the square.
    j3 = mono.symbolic_power(ideal("x, y^2"), 3)
    i2 = mono.symbolic_power(ideal("x^2, x*y, y^3"), 2)
    x3 = (3, 0, 0)
    assert j3.contains(x3)
    assert not i2.contains(x3)
    assert all(i2.contains(g) for g in j3.generators) is False


def test_alpha():
    assert mono.alpha(ideal("x^2, x*y, y^3")) == 2
    assert mono.alpha(ideal("x^3")) == 3
    assert mono.alpha(ideal("x, y^2")) == 1
    with pytest.raises(MonomialError):
        mono.alpha(mono.MonomialIdeal(XYZ, ()))


def test_waldschmidt_estimate():
    assert mono.waldschmidt_estimate(ideal("x, y^2"), 6) == Fraction(1)
    assert mono.waldschmidt_estimate(ideal("x^2, x*y, y^3"), 4) == Fraction(2)
    for m in (0, 2.0, True, Fraction(2)):
        with pytest.raises(MonomialError):
            mono.waldschmidt_estimate(ideal("x"), m)


small_ideals = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
    min_size=1, max_size=4,
).map(lambda gens: mono.MonomialIdeal(XYZ, tuple(gens)))


@given(small_ideals)
def test_saturation_idempotent_and_extensive(i):
    s = mono.saturate_irrelevant(i)
    assert mono.saturate_irrelevant(s) == s
    assert all(s.contains(g) for g in i.generators)


def naive_product(a, b):
    return naive_minimal(tuple(map(sum, zip(g, h))) for g in a for h in b)


def naive_intersection(a, b):
    return naive_minimal(tuple(map(max, g, h)) for g in a for h in b)


def naive_symbolic_power(gens, m, n):
    """(I^m)^sat in n variables by brute force: all m-fold products, then the
    intersection over v of the ideals with x_v stripped, by all lcm pairs."""
    powers = naive_minimal(tuple(map(sum, zip(*c))) for c in itertools.product(gens, repeat=m))
    stripped = [
        naive_minimal(tuple(0 if k == v else e for k, e in enumerate(g)) for g in powers)
        for v in range(n)
    ]
    return reduce(naive_intersection, stripped)


def ideal_pairs(n):
    variables = ("x", "y", "z", "w")[:n]
    ideals = vector_lists(n, 1, 4).map(lambda gens: mono.MonomialIdeal(variables, tuple(gens)))
    return st.tuples(ideals, ideals)


UNIT_XY = mono.parse_ideal("1", ("x", "y"))
HUGE_XY = mono.parse_ideal(f"x^{2**40}, x*y^{2**40}, y^{2**40 + 1}", ("x", "y"))
# Its symbolic fourth power passes the intersection budget: 4305 pairs.
REFUSED_XYZW = mono.MonomialIdeal(("x", "y", "z", "w"), (
    (0, 3 * 2**29, 0, 3 * 2**29),
    (1, 2**29, 3 * 2**29, 2**30),
    (2**29, 2**30 + 1, 2**29, 0),
    (2**29, 2**30, 2**29 + 1, 0),
))


def naive_refusal(gens, m, n):
    """The message of the first step of monomial.symbolic_power, in the
    order its docstring gives, that passes its cap, by the naive helpers:
    per stripped variable each power's running total against
    POWER_PAIR_CAP and each product step against PAIR_CAP, then each
    intersection from left to right against LCM_PAIR_CAP.  None if no
    step passes its cap."""
    def refusal(pairs, what, cap):
        return f"{pairs} generator pairs exceed the {what} of {cap}" if pairs > cap else None

    parts = []
    for v in range(n):
        stripped = naive_minimal(tuple(0 if k == v else e for k, e in enumerate(g)) for g in gens)
        acc, total = stripped, 0
        for _ in range(m - 1):
            total += len(acc) * len(stripped)
            message = (refusal(total, "power budget", mono.POWER_PAIR_CAP)
                       or refusal(len(acc) * len(stripped), "budget", mono.PAIR_CAP))
            if message:
                return message
            acc = naive_product(acc, stripped)
        parts.append(acc)
    acc = parts[0]
    for part in parts[1:]:
        message = refusal(len(acc) * len(part), "intersection budget", mono.LCM_PAIR_CAP)
        if message:
            return message
        acc = naive_intersection(acc, part)
    return None


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(ideal_pairs), st.integers(1, 4))
@example((UNIT_XY, HUGE_XY), 3)
@example((HUGE_XY, UNIT_XY), 4)
@example((REFUSED_XYZW, REFUSED_XYZW), 4)
def test_symbolic_power_matches_brute_force(pair, m):
    # A refusal must be the one its budgets call for, recounted naively.
    i, j = pair
    n = len(i.variables)
    try:
        power = mono.symbolic_power(i, m)
    except MonomialError as exc:
        refusal = naive_refusal(i.generators, m, n)
        assert refusal is not None and str(exc) == refusal
    else:
        assert power.generators == naive_symbolic_power(i.generators, m, n)
    assert mono.product(i, j).generators == naive_product(i.generators, j.generators)
    assert mono.intersect(i, j).generators == naive_intersection(i.generators, j.generators)


@given(small_ideals, st.integers(1, 2), st.integers(1, 2))
def test_initial_degree_subadditive(i, a, b):
    if i.generators == ((0, 0, 0),):
        return
    alpha = lambda m: mono.alpha(mono.symbolic_power(i, m))
    assert alpha(a + b) <= alpha(a) + alpha(b)


def test_cross_module_oracle_infinitely_near_pair():
    # The chain configuration p_2 infinitely near p_1 has the same
    # constant computed from the cone and from the monomial side.
    from waldschmidt.config import ProximityMatrix, SurfaceConfig
    from waldschmidt.cone import waldschmidt
    from waldschmidt.lattice import parse_classes

    cfg = SurfaceConfig(
        2,
        parse_classes(["E_12", "E_2", "L_12"], 2),
        proximity=ProximityMatrix(2, frozenset({(2, 1)})),
    )
    cone_value, _ = waldschmidt(cfg, (1, 1))
    estimate = mono.waldschmidt_estimate(ideal("x, y^2"), 6)
    assert cone_value == estimate == 1


def fat(gens, m):
    """The m-th power of the ideal generated by `gens`; the unit ideal at m = 0."""
    return mono.power(ideal(gens), m) if m else ideal("1")


# Two r = 3 configurations whose fat-point ideals are monomial, with
# their NEG lists written by hand:
# - the coordinate points p_1 = [1:0:0], p_2 = [0:1:0], p_3 = [0:0:1];
# - p_2 infinitely near p_1 = [0:0:1] along x = 0, and p_3 = [1:0:0].
#   The cluster's ideal is (x,y)^(m1-m2) (x,y^2)^m2 (Zariski's product
#   theorem for complete ideals); x = 0 is L_12 and y = 0 is L_13.
TORIC_R3 = [
    (["E_1", "E_2", "E_3", "L_12", "L_13", "L_23"], None,
     lambda m: reduce(mono.intersect, [fat("y, z", m[0]), fat("x, z", m[1]),
                                       fat("x, y", m[2])]),
     63),
    (["E_12", "E_2", "E_3", "L_12", "L_13"], {(2, 1)},
     lambda m: mono.intersect(
         mono.product(fat("x, y", m[0] - m[1]), fat("x, y^2", m[1])),
         fat("y, z", m[2])),
     39),
]


@pytest.mark.parametrize("neg, pairs, fat_ideal, cases", TORIC_R3,
                         ids=["coordinate-points", "p2-near-p1"])
def test_lp_certificate_degree_is_the_monomial_initial_degree(neg, pairs, fat_ideal, cases):
    # The certificate puts d*L - m*E_Z in the effective cone and shows no
    # smaller ratio is there, so the least degree of a form in I^(m) should
    # be d.  The monomial side reads no NEG list.
    from waldschmidt.config import ProximityMatrix, SurfaceConfig, proximity_check
    from waldschmidt.cone import waldschmidt
    from waldschmidt.lattice import parse_classes

    prox = None if pairs is None else ProximityMatrix(3, frozenset(pairs))
    cfg = SurfaceConfig(3, parse_classes(neg, 3), proximity=prox)
    checked = 0
    for m in itertools.product(range(4), repeat=3):
        if not any(m) or (prox is not None and not proximity_check(m, prox)[1]):
            continue
        value, cert = waldschmidt(cfg, m)
        i = fat_ideal(m)
        assert mono.alpha(mono.symbolic_power(i, cert.m)) == cert.d, m
        # The least ratio alpha(I^(k))/k over k <= K is the LP value once K
        # reaches the certificate's k.
        for top in (cert.m, cert.m + 3):
            assert mono.waldschmidt_estimate(i, top) == value, (m, top)
        checked += 1
    assert checked == cases
