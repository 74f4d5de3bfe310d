import pytest
from hypothesis import given, strategies as st

from waldschmidt.classes import candidate_sets, enumerate_exceptional
from waldschmidt.config import SurfaceConfig
from waldschmidt.errors import ClassParseError, RankMismatchError, UnsupportedRankError
from waldschmidt.lattice import (
    DivisorClass,
    canonical_class,
    class_sum,
    format_class,
    line_class,
    named_class,
    pairing,
    parse_class,
    point_class,
)


def cls(*coeffs):
    return DivisorClass(tuple(coeffs))


def classes(r):
    return st.builds(
        lambda t: DivisorClass(tuple(t)),
        st.tuples(*[st.integers(min_value=-9, max_value=9)] * (r + 1)),
    )


def test_pairing_diagonal_form():
    assert pairing(line_class(5), line_class(5)) == 1
    k5 = canonical_class(5)
    assert pairing(k5, k5) == 4
    q = cls(2, -1, -1, -1, -1, -1)
    assert pairing(q, point_class(5, 5)) == 1


@given(st.integers(0, 8).flatmap(lambda r: st.tuples(classes(r), classes(r))))
def test_pairing_matches_the_written_out_form(pair):
    u, v = pair
    a, b = u.coeffs, v.coeffs
    assert pairing(u, v) == a[0] * b[0] - sum(a[i] * b[i] for i in range(1, len(a)))


def test_pairing_rank_mismatch():
    with pytest.raises(RankMismatchError):
        pairing(line_class(2), line_class(3))


def test_point_class_index_and_class_sum_rank_checks():
    assert point_class(3, 3).coeffs == (0, 0, 0, 1)
    with pytest.raises(UnsupportedRankError, match="index 4 outside 1..3"):
        point_class(3, 4)
    with pytest.raises(RankMismatchError):
        class_sum(3, [(1, line_class(2))])


@pytest.mark.parametrize("r", range(9))
def test_parsed_classes_equal_checked_construction(r):
    # parse_class, named_class, line_class and canonical_class skip
    # DivisorClass's checks; what they build must still be the same object.
    known = [line_class(r), canonical_class(r)]
    if r >= 1:
        known += enumerate_exceptional(r)
    if r >= 2:
        known += [c for fam in candidate_sets(r) for c in fam.members]
    for c in known:
        parsed = parse_class(format_class(c), r)
        checked = DivisorClass(c.coeffs)
        assert type(parsed) is DivisorClass
        assert {type(a) for a in parsed.coeffs} == {int}
        assert parsed == checked
        assert hash(parsed) == hash(checked)
        assert repr(parsed) == repr(checked)


@pytest.mark.parametrize("head, indices, error, message", [
    ("E", [1, 2], UnsupportedRankError, "rank 9 outside supported range 0..8"),
    ("E", [10], ClassParseError, "index 10 outside 1..9"),
    ("E", [0], ClassParseError, "index 0 outside 1..9"),
    ("L", [3, 3], ClassParseError, "repeated index 3"),
])
def test_named_class_above_rank_8(head, indices, error, message):
    # The index checks come first, then the rank check.
    with pytest.raises(error) as exc:
        named_class(head, indices, 9)
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("build, r", [
    (lambda: named_class("L", (), -1), -1),
    (lambda: SurfaceConfig(9, ()), 9),
    (lambda: DivisorClass((0,) * 10), 9),
    (lambda: DivisorClass(()), -1),
], ids=["named-1", "config9", "class9", "class-1"])
def test_every_rank_check_raises_one_message(build, r):
    # A named class of no indices at rank -1 would otherwise be the rank-0 class.
    with pytest.raises(UnsupportedRankError) as exc:
        build()
    assert str(exc.value) == f"rank {r} outside supported range 0..8"


def test_canonical_class_values():
    assert canonical_class(5).coeffs == (-3, 1, 1, 1, 1, 1)
    assert canonical_class(0).coeffs == (-3,)
    assert pairing(canonical_class(8), canonical_class(8)) == 1
    with pytest.raises(UnsupportedRankError):
        canonical_class(9)
    with pytest.raises(UnsupportedRankError):
        canonical_class(-1)


def test_parse_named_forms():
    assert parse_class("L_123", 5).coeffs == (1, -1, -1, -1, 0, 0)
    assert parse_class("E_45", 5).coeffs == (0, 0, 0, 0, 1, -1)
    assert parse_class("Q_12345", 5).coeffs == (2, -1, -1, -1, -1, -1)
    assert parse_class("L", 3).coeffs == (1, 0, 0, 0)
    assert parse_class("K", 2).coeffs == (-3, 1, 1)
    assert parse_class("E_5", 5).coeffs == (0, 0, 0, 0, 0, 1)
    assert parse_class("C_1;234567", 7).coeffs == (3, -2, -1, -1, -1, -1, -1, -1)
    assert parse_class("[2,-1,0]", 2).coeffs == (2, -1, 0)
    assert parse_class(" L _ 1 2 ", 2).coeffs == (1, -1, -1)
    assert named_class("C", (2, 1, 3), 3) == parse_class("C_2;13", 3) == cls(3, -1, -2, -1)


@pytest.mark.parametrize(
    "text,r",
    [
        ("L_129", 5),       # index above rank
        ("E_44", 5),        # repeated index
        ("C_2;25", 5),      # repeat across the double index
        ("X_12", 5),        # unknown head
        ("[1,2]", 2),       # wrong length
        ("", 3),
        ("E_", 5),
        ("L_0", 5),         # index zero
    ],
)
def test_parse_rejects(text, r):
    with pytest.raises(ClassParseError):
        parse_class(text, r)


@pytest.mark.parametrize(
    "text",
    ["L", "K", "E_1", "E_25", "E_134", "L_12", "L_2345", "Q_12345",
     "C_1;234567", "[0,2,-3,1,0,0]", "[-3,1,1,1,1,1]"],
)
def test_format_inverts_parse_on_canonical_spellings(text):
    c = parse_class(text, 5 if "6" not in text and "7" not in text else 7)
    assert parse_class(format_class(c), c.r) == c
    if not text.startswith("["):
        assert format_class(c) == text


@given(classes(5))
def test_parse_inverts_format(c):
    assert parse_class(format_class(c), 5) == c


@given(classes(4), classes(4))
def test_pairing_symmetric(u, v):
    assert pairing(u, v) == pairing(v, u)


@given(classes(4), classes(4), classes(4))
def test_pairing_bilinear(u, v, w):
    assert pairing(u + w, v) == pairing(u, v) + pairing(w, v)


@given(classes(6))
def test_parity_identity(d):
    k = canonical_class(6)
    assert (pairing(d, d) + pairing(d, k)) % 2 == 0


def test_class_arithmetic_immutable():
    a = cls(1, -1, 0)
    b = cls(0, 1, 1)
    assert (a + b).coeffs == (1, 0, 1)
    assert (a - b).coeffs == (1, -2, -1)
    assert (3 * a).coeffs == (3, -3, 0)
    assert (-a).coeffs == (-1, 1, 0)
    with pytest.raises(Exception):
        a.coeffs = (0,)


def test_rank_bounds():
    with pytest.raises(UnsupportedRankError):
        DivisorClass(tuple(range(10)))
    with pytest.raises(UnsupportedRankError):
        DivisorClass(())


@pytest.mark.parametrize(
    "coeffs", [(1.7, 2, 1), (1, "2", 1), (1, 2, True), (1.0, 0, 0), 5, None])
def test_coefficients_must_be_integers(coeffs):
    with pytest.raises(ClassParseError):
        DivisorClass(coeffs)
    if isinstance(coeffs, tuple):  # a non-iterable has no iterator to pass
        with pytest.raises(ClassParseError):
            DivisorClass(iter(coeffs))


def test_divisor_takes_any_integer_iterable():
    assert DivisorClass(iter([1, -1, 0])) == cls(1, -1, 0)
    assert DivisorClass(range(3)) == cls(0, 1, 2)


@pytest.mark.parametrize(
    "coeffs",
    [
        (0, -1, 1),                      # E-shape whose +1 is not the least index
        (3, -2, -2, -1, -1, -1, -1, -1),  # C-shape with two double points
        (1, -1, 1, -1),                  # L-shape with a +1
        (3, -2, 0, 0, 0, 0),             # C-shape with no further index
        (2, 0, 0, 0, 0, 0),              # Q-shape with no index
        (0, 0, 0),                       # E-shape with no index
    ],
)
def test_off_shape_classes_format_raw(coeffs):
    c = DivisorClass(coeffs)
    assert format_class(c) == "[" + ",".join(str(a) for a in coeffs) + "]"
    assert parse_class(format_class(c), c.r) == c


# Whitespace as str.split sees it: ASCII, the C0 separators, NEL, no-break,
# ogham, em, hair, line and paragraph separators, narrow, math and ideographic.
WHITESPACE = (" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0"
              "\u1680\u2003\u200a\u2028\u2029\u202f\u205f\u3000")
NAMED = st.builds(
    named_class,
    st.sampled_from("ELQC"),
    st.permutations(range(1, 6)).flatmap(lambda p: st.integers(1, 5).map(lambda k: p[:k])),
    st.just(5),
)


@given(st.one_of(classes(5), NAMED, st.sampled_from([line_class(5), canonical_class(5)])),
       st.data())
def test_parse_ignores_whitespace_anywhere(c, data):
    text = format_class(c)
    gaps = data.draw(st.lists(st.text(st.sampled_from(WHITESPACE), max_size=3),
                              min_size=len(text) + 1, max_size=len(text) + 1))
    spaced = "".join(gap + ch for gap, ch in zip(gaps, text)) + gaps[-1]
    assert parse_class(spaced, 5) == c


@pytest.mark.parametrize("text, r, message", [
    ("L_129", 5, "index 9 outside 1..5"),
    ("E_44", 5, "repeated index 4"),
    ("C_2;25", 5, "repeated index 2"),
    ("X_12", 5, "unrecognised class string 'X_12'"),
    ("[1,2]", 2, "raw vector has 2 entries, expected 3"),
    ("", 3, "empty class string"),
    (" \t\n\u3000", 3, "empty class string"),
    ("E_", 5, "unrecognised class string 'E_'"),
    ("L_0", 5, "index 0 outside 1..5"),
    (" X _ 1\t2 ", 5, "unrecognised class string ' X _ 1\\t2 '"),
    ("[1, 2]", 2, "raw vector has 2 entries, expected 3"),
    ("L_1\xa02\u20039", 5, "index 9 outside 1..5"),
    ("[1,2.5,0]", 2, "unrecognised class string '[1,2.5,0]'"),
    ("E_1\u200b", 2, "unrecognised class string 'E_1\\u200b'"),  # zero width: no space
])
def test_parse_error_messages(text, r, message):
    with pytest.raises(ClassParseError) as exc:
        parse_class(text, r)
    assert str(exc.value) == message
