"""CLI stdout compared byte for byte with outputs recorded in tests/golden.

The files were recorded before the validation and solver-path refactor
(the r=8 case before the integer-pivoting simplex, the dp4 --type,
--degenerations and --bounds cases and the monomial cases before the
saturation rewrite, the candidates cases before the class-name shapes
moved into one table).  The r=7 and r=8 certificates other than uniform
r=8, and the dp4 --all certificates of (5,A1,12) and (5,∅,16), were
recorded again when the Waldschmidt LP moved to its symmetry quotient
(cone._solve), with every alpha_hat and every other field unchanged.
Any change to a value, a certificate or the JSON layout shows here.
generic-r6.json, generic-r7.json and generic-r8.json list every
exceptional class at that rank (classes.enumerate_exceptional), i.e. r
general points.  monoid-witnesses.json holds the output of
cone.monoid_membership itself, the integer oracle behind the brute-force
tests, and monoid-window-answers.json a hash of its every answer over the
benchmark's window on each catalog model.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import cremona_nef
from waldschmidt import cone
from waldschmidt.classes import enumerate_exceptional, is_exceptional
from waldschmidt.cli import main
from waldschmidt.config import effective_generators
from waldschmidt.cone import monoid_membership
from waldschmidt.dp4 import catalog
from waldschmidt.lattice import DivisorClass, canonical_class, format_class, parse_class

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "dp4-all.stdout": ["dp4", "--all", "--json"],
    "waldschmidt-r6.stdout": [
        "waldschmidt", "--config", str(GOLDEN / "generic-r6.json"),
        "--m", "1,2,2,2,2,2", "--json",
    ],
    "waldschmidt-r7.stdout": [
        "waldschmidt", "--config", str(GOLDEN / "generic-r7.json"),
        "--m", "1,2,2,2,2,2,2", "--json",
    ],
    "waldschmidt-r8.stdout": [
        "waldschmidt", "--config", str(GOLDEN / "generic-r8.json"),
        "--m", "1,2,2,2,2,2,2,2", "--json",
    ],
    "dp4-type.stdout": ["dp4", "--type", "(3,A1A3,3)", "--json"],
    "dp4-degenerations.stdout": ["dp4", "--degenerations", "--json"],
    "dp4-bounds.stdout": ["dp4", "--bounds", "--json"],
}
# Three more r=8 LPs, recorded before the simplex tableau moved to packed
# integer rows: the uniform m (48/17, 102 Bland pivots on the record's LP)
# and the benchmark pool's most and least pivoted m (86/11 after 106
# pivots, 11/2 after 28); all three now solve in the symmetry quotient.
R8_MULTIPLICITIES = {
    "uniform": "1,1,1,1,1,1,1,1",
    "pool-max": "3,3,3,3,3,2,2,3",
    "pool-min": "1,1,1,3,3,1,3,1",
}
for key, m in R8_MULTIPLICITIES.items():
    CASES[f"waldschmidt-r8-{key}.stdout"] = [
        "waldschmidt", "--config", str(GOLDEN / "generic-r8.json"), "--m", m, "--json",
    ]
for r in range(2, 9):
    CASES[f"candidates-r{r}.stdout"] = ["candidates", "--r", str(r), "--json"]

# (ideal in x, y, z; m).  pool0 and pool1 are the first two entries of the
# benchmark's fat-point pool; primary is (x,y,z)-primary, so it saturates to
# the unit ideal; embedded is a line with an embedded point, fixed by
# saturation; mixed has a saturation strictly larger than the ideal.
MONOMIAL_IDEALS = {
    "pool0": ("x^3*y^4, x^2*y^3*z, x*y^2*z^2, x*z^4, y*z^3", 3),
    "pool1": ("x^4*y, x^3*z, x^2*z^2, x*z^3, z^4", 2),
    "primary": ("x^2, x*y, y^3, z", 4),
    "embedded": ("x*z, y*z", 3),
    "mixed": ("x^3*z, x^2*y^2, y^3*z^2, x*y*z^3", 3),
}
for key, (ideal, m) in MONOMIAL_IDEALS.items():
    for op in ("sat", "power", "symbolic-power", "alpha", "estimate"):
        CASES[f"monomial-{op}-{key}.stdout"] = [
            "monomial", op, "--ideal", ideal, "--m", str(m), "--max-m", str(m), "--json",
        ]
# Text twins: the same argv without --json, recorded before the text form
# was rendered from the JSON payload.  A monomial text line is the JSON
# "result" string, so one ideal per operation covers it.
for name, argv in list(CASES.items()):
    if not name.startswith("monomial-") or name.endswith("-mixed.stdout"):
        CASES[name.replace(".stdout", "-text.stdout")] = [a for a in argv if a != "--json"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recorded_output(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def test_python_dash_m_matches_recorded_output():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run(
        [sys.executable, "-m", "waldschmidt", *CASES["dp4-type.stdout"]],
        cwd=root, env=env, capture_output=True, check=True,
    ).stdout
    assert out == (GOLDEN / "dp4-type.stdout").read_bytes()


def test_monoid_witnesses_match_recorded_output():
    """Every search decides and decomposes as when the file was recorded.

    monoid-witnesses.json was recorded before the search moved to integer
    arithmetic; its "about" field says how the targets were drawn.
    """
    data = json.loads((GOLDEN / "monoid-witnesses.json").read_text(encoding="utf-8"))
    sets = {
        name: (s["r"], [parse_class(c, s["r"]) for c in s["classes"]])
        for name, s in data["generator_sets"].items()
    }
    for case in data["cases"]:
        r, gens = sets[case["generators"]]
        found = monoid_membership(parse_class(case["target"], r), gens)
        got = None if found is None else [[format_class(g), n] for g, n in found.items()]
        assert got == case["witness"], case


@pytest.mark.parametrize("r, count", [(6, 27), (7, 56), (8, 240)])
def test_generic_configurations_list_every_exceptional_class(r, count):
    """generic-r{r}.json is r general points: no proximity, and as NEG list
    exactly enumerate_exceptional(r), in its order."""
    data = json.loads((GOLDEN / f"generic-r{r}.json").read_text(encoding="utf-8"))
    assert data.keys() == {"r", "negative_curves"} and data["r"] == r
    expected = enumerate_exceptional(r)
    assert len(expected) == count
    assert [parse_class(t, r) for t in data["negative_curves"]] == expected


def test_generic_certificates_hold_without_the_neg_list():
    """Each recorded certificate on general points, checked by reduction
    alone: its nef class passes helpers.cremona_nef, and each generator of
    its decomposition is a (-1)-class (K.c = c.c = -1) or, at r = 8, -K."""
    names = sorted(p.name for p in GOLDEN.glob("waldschmidt-r[678]*.stdout")
                   if not p.name.endswith("-text.stdout"))
    assert len(names) == 6
    for name in names:
        cert = json.loads((GOLDEN / name).read_text(encoding="utf-8"))["certificate"]
        r = len(cert["multiplicities"])
        assert cremona_nef(parse_class(cert["nef"], r).coeffs), name
        for item in cert["decomposition"]:
            g = parse_class(item["generator"], r)
            assert is_exceptional(g) or (r == 8 and g == -canonical_class(8)), (name, item)


def test_the_exclusion_leaves_open_exactly_the_window_hits():
    """On every recorded window the exclusion, alone, leaves open as many
    targets as have a sum: as it is sound, it then refutes every miss."""
    data = json.loads((GOLDEN / "monoid-window-answers.json").read_text(encoding="utf-8"))
    window = data["window"]
    models = {t.label: t for t in catalog()}
    for entry in data["models"]:
        gens = effective_generators(models[entry["label"]].config())
        prep = cone._prepare(cone._key(gens))
        open_targets = sum(
            not cone._excluded((d,) + tuple(-k * x for x in entry["m"]), prep)
            for k in range(1, window["m_max"] + 1) for d in range(1, window["d_max"] + 1))
        assert open_targets == entry["hits"], entry


def window_multiplicities(label: str) -> list[tuple[int, ...]]:
    """All-ones, then one m in {1,2}^5 other than it, drawn from
    random.Random(label)."""
    ones = (1,) * 5
    rest = [m for m in itertools.product((1, 2), repeat=5) if m != ones]
    return [ones, random.Random(label).choice(rest)]


def window_answers(gens, m, d_max: int, m_max: int) -> tuple[int, str]:
    """(hits, sha256) of monoid_membership on d*L - k*E(m) for k = 1..m_max,
    then d = 1..d_max: each answer is null or its [position, coefficients,
    count] list in insertion order, hashed as compact JSON."""
    position = {id(g): p for p, g in enumerate(gens)}
    answers = []
    for k in range(1, m_max + 1):
        for d in range(1, d_max + 1):
            found = monoid_membership(DivisorClass((d,) + tuple(-k * x for x in m)), gens)
            answers.append(None if found is None else [
                [position[id(g)], list(g.coeffs), n] for g, n in found.items()])
    blob = json.dumps(answers, separators=(",", ":")).encode()
    return sum(a is not None for a in answers), hashlib.sha256(blob).hexdigest()


def test_monoid_window_answers_match_recorded_output():
    """Every answer of the benchmark's window, witnesses and their order
    included, is the one recorded; the "about" field says what was run."""
    data = json.loads((GOLDEN / "monoid-window-answers.json").read_text(encoding="utf-8"))
    window = data["window"]
    expected = [(t.label, list(m)) for t in catalog() for m in window_multiplicities(t.label)]
    assert [(e["label"], e["m"]) for e in data["models"]] == expected
    models = {t.label: t for t in catalog()}
    for entry in data["models"]:
        gens = effective_generators(models[entry["label"]].config())
        hits, digest = window_answers(gens, entry["m"], window["d_max"], window["m_max"])
        assert (hits, digest) == (entry["hits"], entry["sha256"]), entry
