import json
from fractions import Fraction

import pytest

from helpers import brute_force_alpha_hat, replaced
from waldschmidt import cli, config, dp4
from waldschmidt.classes import enumerate_exceptional, is_exceptional, is_root
from waldschmidt.cone import waldschmidt
from waldschmidt.config import derive_proximity, proximity_check, validate_config
from waldschmidt.dp4 import (
    R5,
    catalog,
    check_bounds,
    check_degenerations,
    compute_table,
    find_type,
    sigma_rank,
)
from waldschmidt.errors import ConfigurationError
from waldschmidt.lattice import pairing

F = Fraction

EXPECTED_LABELS = [
    "(1,D5,1)", "(1,A4,3)",
    "(2,2A1A3,2)", "(2,D4,2)", "(2,A4,3)(a)", "(2,A4,3)(b)", "(2,A1A3,3)",
    "(2,2A1A2,4)", "(2,A3,5)", "(2,A1A2,6)",
    "(3,A1A3,3)", "(3,2A1A2,4)", "(3,4A1,4)", "(3,A3,4)", "(3,A3,5)(a)",
    "(3,A3,5)(b)", "(3,A1A2,6)(a)", "(3,A1A2,6)(b)", "(3,3A1,6)", "(3,A2,8)",
    "(3,2A1,9)",
    "(4,A1A2,6)", "(4,3A1,6)", "(4,A2,8)", "(4,2A1,8)", "(4,2A1,9)",
    "(4,A1,12)",
    "(5,2A1,9)", "(5,A1,12)", "(5,∅,16)",
]


def test_catalog_labels_complete():
    assert [t.label for t in catalog()] == EXPECTED_LABELS


def test_sigma_rank():
    assert sigma_rank("D5") == 5
    assert sigma_rank("2A1A3") == 5
    assert sigma_rank("2A1A2") == 4
    assert sigma_rank("4A1") == 4
    assert sigma_rank("") == 0


def test_counts_match_labels():
    # The lines are derived from the roots, so the paper's l, read off the
    # label, is an independent check of them.
    for t in catalog():
        assert len(t.lines) == t.l, t.label
        assert len(t.roots) == sigma_rank(t.sigma), t.label


def test_roots_and_lines_have_right_squares():
    for t in catalog():
        assert all(is_root(c) for c in t.roots), t.label
        assert all(is_exceptional(c) for c in t.lines), t.label


def test_adjacency_is_the_pairing():
    # Distinct prime divisors on these surfaces meet in 0 or 1 points;
    # the drawn adjacency is exactly the pairs of pairing one.
    for t in catalog():
        cls = t.classes()
        edges = t.edges()
        for i in range(len(cls)):
            for j in range(i + 1, len(cls)):
                p = pairing(cls[i], cls[j])
                assert p in (0, 1), (t.label, str(cls[i]), str(cls[j]))
                assert ((i, j) in edges) == (p == 1)


def test_every_entry_is_a_valid_configuration():
    for t in catalog():
        assert validate_config(t.config()).ok, t.label


def test_each_model_keeps_one_configuration_validated_once(monkeypatch):
    entry = replaced(find_type("(1,D5,1)"))  # a new object: nothing cached yet
    assert entry.config() is entry.config()
    validations = []
    real = config._validate
    monkeypatch.setattr(config, "_validate", lambda cfg: validations.append(cfg) or real(cfg))
    for m in [(1,) * R5, (2, 1, 1, 1, 1)]:
        waldschmidt(entry.config(), m)
    assert len(validations) == 1 and validations[0] is entry.config()


def test_all_ones_satisfies_the_proximity_inequalities():
    # The paper's hypothesis for alpha-hat as a cone LP.  A catalog config
    # carries no proximity matrix, so waldschmidt() never checks it; the
    # pairs are read off each entry's vertical NEG classes here instead.
    for t in catalog():
        prox = derive_proximity(R5, t.classes())
        assert bool(prox.pairs) == (t.n < R5), t.label
        assert proximity_check((1,) * R5, prox)[1], t.label


def test_plane_point_count_matches_verticals():
    for t in catalog():
        verticals = [c for c in t.roots if c.coeffs[0] == 0]
        assert t.n == R5 - len(verticals), t.label


def test_lines_are_the_exceptional_classes_meeting_every_root_nonnegatively():
    # catalog() derives the lines by this rule; here it is restated on sets,
    # and test_counts_match_labels checks the derived counts against the
    # paper's l.  With no roots, as for (5,∅,16), they are all 16
    # exceptional classes.
    exceptional = enumerate_exceptional(R5)
    for t in catalog():
        meeting = {e for e in exceptional if all(pairing(e, a) >= 0 for a in t.roots)}
        assert set(t.lines) == meeting, t.label


def test_named_examples():
    d5 = find_type("(1,D5,1)")
    assert {str(c) for c in d5.roots} == {"E_12", "E_23", "E_34", "E_45", "L_123"}
    assert {str(c) for c in d5.lines} == {"E_5"}
    a4 = find_type("(1,A4,3)")
    assert {str(c) for c in a4.roots} == {"E_12", "E_23", "E_34", "E_45"}
    assert {str(c) for c in a4.lines} == {"E_5", "Q_12345", "L_12"}
    # (n, sigma, l) as read off the label; the empty type is spelled "".
    for t, nsl in [(d5, (1, "D5", 1)), (find_type("(3,A1A2,6)(b)"), (3, "A1A2", 6)),
                   (find_type("(5,∅,16)"), (5, "", 16))]:
        assert (t.n, t.sigma, t.l) == nsl, t.label


def test_expected_value_table_encoding():
    special = {
        "(1,D5,1)": F(5, 3),
        "(2,2A1A3,2)": F(5, 3),
        "(2,A4,3)(a)": F(7, 4),
        "(3,A1A3,3)": F(5, 3),
        "(3,2A1A2,4)": F(9, 5),
        "(4,A1A2,6)": F(9, 5),
    }
    for t in catalog():
        assert t.expected_alpha_hat == special.get(t.label, F(2))


# Exact affine polynomials in (x, y): {(i, j): coefficient of x^i y^j}.
def _mul(*factors):
    out = {(0, 0): F(1)}
    for f in factors:
        prod = {}
        for (i, j), a in out.items():
            for (k, l), b in f.items():
                prod[i + k, j + l] = prod.get((i + k, j + l), 0) + a * b
        out = {e: c for e, c in prod.items() if c}
    return out


def _linear(a, b, c):
    """The affine linear form a*x + b*y + c."""
    return {e: F(v) for e, v in (((1, 0), a), ((0, 1), b), ((0, 0), c)) if v}


def _order_at(f, point):
    """Multiplicity of f at an ordinary point: order of f(x + px, y + py)."""
    px, py = point
    shifted = {}
    for (i, j), c in f.items():
        term = _mul(*[_linear(1, 0, px)] * i, *[_linear(0, 1, py)] * j)
        for e, v in term.items():
            shifted[e] = shifted.get(e, 0) + c * v
    return min(i + j for (i, j), c in shifted.items() if c)


def _virtual_transform(f, m):
    """Blow up the origin on the chart y = x*y1 and remove m copies of x = 0.

    The chart origin is the infinitely near point in the direction of
    y = 0; the result is again a polynomial exactly when f has order at
    least m at the origin.
    """
    assert all(i + j >= m for i, j in f)
    return {(i + j - m, j): c for (i, j), c in f.items()}


_X, _Y = _linear(1, 0, 0), _linear(0, 1, 0)


@pytest.mark.parametrize(
    "label,lines,factors,d,m,points,chain",
    [
        # p1, p2, p3 on x = 0; p1 > p4 > p5 along y = 0.
        ("(3,A1A3,3)", {"L_123": _X, "L_145": _Y},
         [_X] * 3 + [_Y] * 2, 5, 3,
         {1: (0, 0), 2: (0, 1), 3: (0, 2)}, 2),
        # p1, p2, p3 on x = 0; p1 > p4 along y = 0; p5 = (1, 0) on y = 0.
        ("(4,A1A2,6)", {"L_123": _X, "L_145": _Y},
         [_X] * 4 + [_Y] * 3 + [_linear(1, 1, -1), _linear(2, 1, -2)], 9, 5,
         {1: (0, 0), 2: (0, 1), 3: (0, 2), 5: (1, 0)}, 1),
    ],
    ids=["(3,A1A3,3)", "(4,A1A2,6)"],
)
def test_explicit_form_bounds_the_recorded_value(
    label, lines, factors, d, m, points, chain
):
    # A form of degree d in I_Z^(m) gives alpha_hat <= d/m.  The check is
    # plain polynomial expansion: no LP, no NEG list, no monoid search.
    entry = find_type(label)
    roots = {str(c) for c in entry.roots}
    for name, form in lines.items():
        # The coordinate lines are the entry's (-2)-curves through the
        # ordinary points named in the class; the infinitely near points
        # follow y = 0 by the choice of chart.
        assert name in roots, (label, name)
        for i, point in points.items():
            if str(i) in name[2:]:
                assert _order_at(form, point) >= 1, (label, name, i)
    f = _mul(*factors)
    assert max(i + j for i, j in f) == d
    for i, point in points.items():
        assert _order_at(f, point) >= m, (label, i)
    # p1 is the origin; each infinitely near point is the chart origin.
    for _ in range(chain):
        f = _virtual_transform(f, m)
        assert _order_at(f, (0, 0)) >= m, label
    assert entry.expected_alpha_hat <= F(d, m)


def test_find_type_aliases_and_errors():
    assert find_type(" (1,D5,1) ").label == "(1,D5,1)"
    assert find_type("(5,empty,16)").label == "(5,∅,16)"
    with pytest.raises(KeyError):
        find_type("(9,Z9,1)")


def test_compute_table_certificates_and_truth():
    table = compute_table()
    assert len(table.rows) == 30
    assert table.all_verified
    # Every LP value coincides with the independent integer search.
    for row in table.rows:
        cfg = find_type(row.label).config()
        assert row.alpha_hat == brute_force_alpha_hat(cfg, (1,) * R5), row.label


def test_compute_table_reports_mismatches_without_raising(monkeypatch, capsys):
    # No catalog row mismatches, so plant one wrong expected value.
    real = catalog()
    wrong = replaced(real[3], expected_alpha_hat=F(11, 7))
    monkeypatch.setattr(dp4, "catalog", lambda: real[:3] + (wrong,) + real[4:])
    table = compute_table()
    assert [row.label for row in table.mismatches] == [wrong.label]
    assert table.mismatches[0].expected == F(11, 7)

    assert cli.main(["dp4", "--all"]) == 0
    out, err = capsys.readouterr()
    flagged = [line for line in out.splitlines() if "(expected" in line]
    assert flagged == [line for line in out.splitlines() if line.startswith(wrong.label)]
    assert flagged[0].endswith("(expected 11/7)")
    assert err.strip() == f"mismatched expected values: {wrong.label}"

    assert cli.main(["dp4", "--all", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["mismatches"] == [wrong.label]


def test_degeneration_monotonicity():
    report = check_degenerations(compute_table())
    assert report.ok
    for e in report.edges:
        if not e.flagged:
            assert e.special_value <= e.general_value, (e.general, e.special)
    flagged = [e for e in report.edges if e.flagged]
    assert [(e.general, e.special) for e in flagged] == [("(5,A1,12)", "(4,2A1,9)")]


def test_degeneration_to_an_unknown_target_raises(monkeypatch):
    table = compute_table()
    real = catalog()
    stray = replaced(real[0], degenerates_to=(("(9,X,0)", False),))
    monkeypatch.setattr(dp4, "catalog", lambda: (stray,) + real[1:])
    with pytest.raises(ConfigurationError, match=r"unknown degeneration target \(9,X,0\)"):
        check_degenerations(table)


def test_degeneration_ambiguous_target_runs_both_variants():
    pairs = {(e.general, e.special) for e in check_degenerations(compute_table()).edges}
    assert ("(4,A2,8)", "(3,A1A2,6)(a)") in pairs
    assert ("(4,A2,8)", "(3,A1A2,6)(b)") in pairs


def test_bounds_and_value_set():
    report = check_bounds(compute_table())
    assert report.lower == F(5, 3) and report.upper == F(2)
    assert report.within_bounds
    assert report.value_set == {F(5, 3), F(7, 4), F(9, 5), F(2)}


def test_chudnovsky_on_all_types():
    from waldschmidt.cone import chudnovsky_check

    for t in catalog():
        assert chudnovsky_check(t.config(), (1,) * R5), t.label


def _positive_roots():
    from waldschmidt.classes import enumerate_roots

    out = []
    for a in enumerate_roots(R5):
        if a.coeffs[0] == 1:
            out.append(a)
        elif a.coeffs[0] == 0:
            lead = next(x for x in a.coeffs[1:] if x != 0)
            if lead == 1:
                out.append(a)
    return out


def _chain_type(roots):
    """Dynkin type of the pairing graph when all components are paths."""
    n = len(roots)
    adj = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            p = pairing(roots[i], roots[j])
            if p not in (0, 1):
                return None
            if p == 1:
                adj[i].add(j)
                adj[j].add(i)
    seen, comps = set(), []
    for s in range(n):
        if s in seen:
            continue
        stack, comp = [s], []
        seen.add(s)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u] - seen:
                seen.add(v)
                stack.append(v)
        degs = sorted(len(adj[u]) for u in comp)
        if degs not in ([0], [1, 1] + [2] * (len(comp) - 2)):
            return None
        comps.append(f"A{len(comp)}")
    return tuple(sorted(comps))


@pytest.mark.parametrize(
    "rank,dynkin,n,l,value",
    [
        (4, ("A1", "A3"), 3, 3, F(5, 3)),
        (3, ("A1", "A2"), 4, 6, F(9, 5)),
        (4, ("A1", "A3"), 2, 3, F(2)),
        (3, ("A1", "A2"), 3, 6, F(2)),
    ],
)
def test_value_is_forced_by_the_signature(rank, dynkin, n, l, value):
    # Every lattice-consistent NEG list with the given (n, sigma, l)
    # signature computes the same constant, so the catalog values do not
    # depend on which labelled transcription of the model was chosen.
    from itertools import combinations

    from waldschmidt.cone import waldschmidt
    from waldschmidt.config import SurfaceConfig

    exc = enumerate_exceptional(R5)
    found = 0
    for combo in combinations(_positive_roots(), rank):
        if _chain_type(list(combo)) != dynkin:
            continue
        verticals = sum(1 for a in combo if a.coeffs[0] == 0)
        if R5 - verticals != n:
            continue
        lines = [e for e in exc if all(pairing(e, a) >= 0 for a in combo)]
        if len(lines) != l:
            continue
        cfg = SurfaceConfig(R5, tuple(combo) + tuple(lines))
        if not validate_config(cfg).ok:
            continue
        assert waldschmidt(cfg, (1,) * R5)[0] == value
        found += 1
    assert found > 0
