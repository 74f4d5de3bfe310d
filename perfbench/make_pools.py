"""Regenerate the input pools and reference values under perfbench/data.

Run from the repository root:  python3 perfbench/make_pools.py

Every pool is drawn from a fixed generation seed, so the files are
reproducible.  A reference is accepted only after an independent check:

- generic-r8: the LP value, its certificate rechecked with the exact
  arithmetic of checks.py, and the uniform value 48/17 written by hand
  (12/5 and 21/8 are checked at r = 6 and 7 as well).  Generic points are
  symmetric, so permuted vectors must agree.
- dp4-catalog: the LP value with its certificate rechecked, and the
  integer brute-force window (d <= 20, m <= 12) wherever m <= 2, where the
  search is affordable; the window must never beat the LP, and reaching
  the LP value is recorded.
- monoid-window: the window minimum, which must equal the certified LP
  value.
- monomial-symbolic: the package's (I^m)^sat must equal the intersection
  of the powers P_i^(a_i*m) of the coordinate-point primes, computed here.

`pivots` (generic-r8) and `work` (monoid-window) are deterministic work
counts used only to stratify sampling so that every seed draws the same
mix of cheap and expensive queries.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction

from run import DATA, add_source

add_source()

import checks  # noqa: E402
from workloads import window_minimum  # noqa: E402
from waldschmidt import classes, cone, config, dp4, monomial, simplex  # noqa: E402

GEN_SEED = 1802
GENERIC_UNIFORM = {6: Fraction(12, 5), 7: Fraction(21, 8), 8: Fraction(48, 17)}
WINDOW_D, WINDOW_M = 20, 12


def checked_lp(cfg, m) -> Fraction:
    value, cert = cone.waldschmidt(cfg, m)
    gens = frozenset(g.coeffs for g in config.effective_generators(cfg))
    errs = checks.certificate_errors(
        cert.d, cert.m, cert.multiplicities,
        [(g.coeffs, c) for g, c in cert.decomposition], cert.nef.coeffs, gens,
    )
    if errs or value != Fraction(cert.d, cert.m):
        raise SystemExit(f"certificate for m={m} failed: {errs}")
    return value


def generic_r8() -> dict:
    for r, expected in GENERIC_UNIFORM.items():
        cfg = config.SurfaceConfig(r, tuple(classes.enumerate_exceptional(r)))
        if checked_lp(cfg, (1,) * r) != expected:
            raise SystemExit(f"generic uniform value at r={r} is not {expected}")
    cfg = config.SurfaceConfig(8, tuple(classes.enumerate_exceptional(8)))
    rng = random.Random(GEN_SEED)
    vectors = [(1,) * 8]
    while len(vectors) < 97:
        m = tuple(rng.choice((1, 2, 3)) for _ in range(8))
        if m not in vectors:
            vectors.append(m)
    pivots = [0]
    original = simplex._Tableau.pivot

    def counting_pivot(self, row, col):
        pivots[0] += 1
        return original(self, row, col)

    by_multiset: dict[tuple[int, ...], Fraction] = {}
    entries = []
    simplex._Tableau.pivot = counting_pivot
    try:
        for m in vectors:
            pivots[0] = 0
            value = checked_lp(cfg, m)
            key = tuple(sorted(m))
            if by_multiset.setdefault(key, value) != value:
                raise SystemExit(f"permutations of {key} disagree")
            entries.append({"m": list(m), "value": str(value), "pivots": pivots[0]})
            print("generic-r8", m, value, pivots[0], flush=True)
    finally:
        simplex._Tableau.pivot = original
    return {"rank": 8, "entries": entries}


def dp4_catalog() -> dict:
    rng = random.Random(GEN_SEED + 1)
    entries = []
    for entry in dp4.catalog():
        cfg = entry.config()
        gens = config.effective_generators(cfg)
        vectors = [(1,) * 5]
        while len(vectors) < 16:
            m = tuple(rng.randint(0, 4) for _ in range(5))
            if m not in vectors:
                vectors.append(m)
        for m in vectors:
            value = checked_lp(cfg, m)
            row = {"label": entry.label, "m": list(m), "value": str(value)}
            if max(m) <= 2 and any(m):
                brute, _ = window_minimum(gens, m, WINDOW_D, WINDOW_M)
                if brute is not None and brute < value:
                    raise SystemExit(f"{entry.label} m={m}: window {brute} < LP {value}")
                row["window_reached"] = brute == value
            entries.append(row)
            print("dp4-catalog", entry.label, m, value, row.get("window_reached"), flush=True)
    return {"entries": entries}


def monoid_window() -> dict:
    work = [0]
    original = cone.pairing

    def counting_pairing(u, v):
        work[0] += 1
        return original(u, v)

    entries = []
    for entry in dp4.catalog():
        cfg = entry.config()
        gens = config.effective_generators(cfg)
        for m in itertools.product((1, 2), repeat=5):
            lp = checked_lp(cfg, m)
            work[0] = 0
            cone.pairing = counting_pairing
            try:
                brute, _ = window_minimum(gens, m, WINDOW_D, WINDOW_M)
            finally:
                cone.pairing = original
            if brute != lp:
                raise SystemExit(f"{entry.label} m={m}: window {brute} != LP {lp}")
            entries.append(
                {"label": entry.label, "m": list(m), "value": str(brute), "work": work[0]}
            )
            print("monoid-window", entry.label, m, brute, work[0], flush=True)
    return {"window": {"d_max": WINDOW_D, "m_max": WINDOW_M}, "entries": entries}


def _minimal(gens):
    gens = set(gens)
    return sorted(
        g for g in gens
        if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in gens)
    )


def _prime_power(point: int, k: int):
    """Generators of P^k, P the ideal of the coordinate point `point`."""
    u, v = [i for i in range(3) if i != point]
    out = []
    for j in range(k + 1):
        e = [0, 0, 0]
        e[u], e[v] = j, k - j
        out.append(tuple(e))
    return out


def _intersect(a, b):
    return _minimal(tuple(max(x, y) for x, y in zip(g, h)) for g in a for h in b)


def _format(gens) -> str:
    def mono(g):
        parts = [v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", g) if e]
        return "*".join(parts) if parts else "1"

    return ", ".join(mono(g) for g in sorted(gens, reverse=True))


def monomial_symbolic() -> dict:
    rng = random.Random(GEN_SEED + 2)
    entries = []
    while len(entries) < 400:
        points = rng.sample(range(3), rng.choice((2, 3)))
        weights = [rng.randint(1, 4) for _ in points]
        k = rng.randint(2, 5)
        ideal = None
        expected = None
        for p, a in zip(points, weights):
            ideal = _prime_power(p, a) if ideal is None else _intersect(ideal, _prime_power(p, a))
            part = _prime_power(p, a * k)
            expected = part if expected is None else _intersect(expected, part)
        text = _format(ideal)
        got = monomial.symbolic_power(monomial.parse_ideal(text, ["x", "y", "z"]), k)
        if set(got.generators) != set(expected):
            raise SystemExit(f"symbolic power of {text} (m={k}) disagrees")
        entries.append({"ideal": text, "m": k, "result": [list(g) for g in expected]})
    print("monomial-symbolic", len(entries), "entries", flush=True)
    return {"variables": ["x", "y", "z"], "entries": entries}


POOLS = {
    "generic-r8": generic_r8,
    "dp4-catalog": dp4_catalog,
    "monoid-window": monoid_window,
    "monomial-symbolic": monomial_symbolic,
}


def main(argv: list[str]) -> int:
    names = argv or list(POOLS)
    DATA.mkdir(exist_ok=True)
    for name in names:
        data = POOLS[name]()
        data["generation_seed"] = GEN_SEED
        path = DATA / f"{name}.json"
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
        print("wrote", path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
