"""The four workloads: seeded inputs, one query, and its output check.

Each workload draws its queries from a pool in perfbench/data, whose
reference values were checked independently when the pool was made (see
make_pools.py).  `setup` builds everything the first query needs and
runs one fixed warm-up query.  `plan` is the seeded query sequence as a
list of rounds, each with the same mix of cheap and expensive queries:
the timed loop cycles through it and stops only at the end of a round.
The traced run takes the first `trace_queries` queries of the plan.
`run` is one query as a user issues it; `check` returns the reasons an
output is wrong (empty when correct).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import checks
from waldschmidt import classes, cli, cone, config, dp4, lattice

# Written by hand: alpha_hat of r general points with all multiplicities 1
# (12/5 and 21/8 at r = 6 and 7 are checked when the pools are made).
GENERIC_R8_UNIFORM = Fraction(48, 17)


def _load(data_dir: Path, name: str) -> dict:
    return json.loads((data_dir / f"{name}.json").read_text(encoding="utf-8"))


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _stratified_rounds(items: list, key, strata: int, rng: random.Random) -> list[list]:
    """Every item once, in rounds that take one item from each cost stratum.

    Items are sorted by `key` and cut into `strata` equal groups; each round
    visits the groups in a fresh seeded order.  A run made of whole rounds
    therefore sees the same mix of cheap and expensive queries whatever the
    seed.
    """
    ranked = sorted(items, key=key)
    size = len(ranked) // strata
    groups = [rng.sample(ranked[i * size:(i + 1) * size], size) for i in range(strata)]
    return [[groups[g][j] for g in rng.sample(range(strata), strata)] for j in range(size)]


def window_minimum(gens, m, d_max: int, m_max: int):
    """Least d/k with d <= d_max, k <= m_max and d*L - k*E_Z in the integer
    monoid of `gens`, with its (d, k, coefficients); (None, None) if none."""
    best, witness = None, None
    for k in range(1, m_max + 1):
        for d in range(1, d_max + 1):
            q = Fraction(d, k)
            if best is not None and q >= best:
                continue
            target = lattice.DivisorClass((d,) + tuple(-k * x for x in m))
            found = cone.monoid_membership(target, gens)
            if found is not None:
                best, witness = q, (d, k, found)
    return best, witness


class GenericR8:
    """CLI `waldschmidt --config <file> --m <m> --json` on 8 general points."""

    trace_queries = 9

    def setup(self, seed: int, data_dir: Path, tmp_dir: Path) -> list[str]:
        problems = []
        exceptional = classes.enumerate_exceptional(8)
        orbit = classes.weyl_orbit(lattice.point_class(8, 8), 8)
        if {c.coeffs for c in orbit} != {c.coeffs for c in exceptional} or len(orbit) != 240:
            problems.append("exceptional classes at r=8 differ from the Weyl orbit of e_8")
        names = [lattice.format_class(c) for c in exceptional]
        gens = {checks.parse_class(s, 8) for s in names}
        if any(checks.pairing(g, g) != -1 or 3 * g[0] + sum(g[1:]) != 1 for g in gens):
            problems.append("a configuration class is not a (-1)-class")
        self.generators = frozenset(gens | {(3,) + (-1,) * 8})
        self.path = tmp_dir / "generic-r8.json"
        self.path.write_text(json.dumps({"r": 8, "negative_curves": names}), encoding="utf-8")
        pool = _load(data_dir, "generic-r8")["entries"]
        self.reference = {tuple(e["m"]): Fraction(e["value"]) for e in pool}
        ones = (1,) * 8
        if self.reference[ones] != GENERIC_R8_UNIFORM:
            problems.append("stored uniform r=8 value is not 48/17")
        rng = random.Random(seed)
        rest = [e for e in pool if tuple(e["m"]) != ones]
        rounds = _stratified_rounds(rest, lambda e: e["pivots"], 24, rng)
        self.plan = [[tuple(e["m"]) for e in rnd] for rnd in rounds]
        self.plan[0].insert(0, ones)
        problems += self.check(ones, self.run(ones))
        return problems

    def run(self, m):
        return _call_cli(["waldschmidt", "--config", str(self.path),
                          "--m", ",".join(map(str, m)), "--json"])

    def check(self, m, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        payload = json.loads(text)
        cert = payload["certificate"]
        errs = [] if payload["verified"] is True else ["not verified"]
        value = Fraction(payload["alpha_hat"])
        if value != self.reference[m] or value != Fraction(cert["d"], cert["m"]):
            errs.append(f"alpha_hat {value} != reference {self.reference[m]}")
        if tuple(cert["multiplicities"]) != m:
            errs.append("certificate for other multiplicities")
        decomposition = [(checks.parse_class(item["generator"], 8), Fraction(item["coefficient"]))
                         for item in cert["decomposition"]]
        return errs + checks.certificate_errors(
            cert["d"], cert["m"], m, decomposition,
            checks.parse_class(cert["nef"], 8), self.generators)


class Dp4Catalog:
    """Library waldschmidt + verify_certificate over the 30 degree-4 models."""

    trace_queries = 240

    def setup(self, seed: int, data_dir: Path, tmp_dir: Path) -> list[str]:
        self.entries = {e.label: e for e in dp4.catalog()}
        self.generators = {label: frozenset(c.coeffs for c in e.classes())
                           for label, e in self.entries.items()}
        pool = _load(data_dir, "dp4-catalog")["entries"]
        self.reference = {(e["label"], tuple(e["m"])): Fraction(e["value"]) for e in pool}
        rng = random.Random(seed)
        ones = (1,) * dp4.R5
        plan = []
        for label in self.entries:
            others = [tuple(e["m"]) for e in pool if e["label"] == label and e["m"] != list(ones)]
            plan += [(label, m) for m in [ones] + rng.sample(others, 7)]
        self.plan = [rng.sample(plan, len(plan))]
        first = (next(iter(self.entries)), ones)
        return self.check(first, self.run(first))

    def run(self, query):
        label, m = query
        cfg = self.entries[label].config()
        value, cert = cone.waldschmidt(cfg, m)
        return value, cert, cone.verify_certificate(cert, cfg)

    def check(self, query, out) -> list[str]:
        value, cert, verified = out
        errs = [] if verified is True else ["verify_certificate returned False"]
        if value != self.reference[query] or value != Fraction(cert.d, cert.m):
            errs.append(f"alpha_hat {value} != reference {self.reference[query]}")
        if cert.multiplicities != query[1]:
            errs.append("certificate for other multiplicities")
        return errs + checks.certificate_errors(
            cert.d, cert.m, cert.multiplicities,
            [(g.coeffs, c) for g, c in cert.decomposition], cert.nef.coeffs,
            self.generators[query[0]])


class MonoidWindow:
    """Integer brute force: least d/k over d <= 20, k <= 12 in the monoid."""

    trace_queries = 60

    def setup(self, seed: int, data_dir: Path, tmp_dir: Path) -> list[str]:
        self.entries = {e.label: e for e in dp4.catalog()}
        self.generators = {label: frozenset(c.coeffs for c in e.classes())
                           for label, e in self.entries.items()}
        data = _load(data_dir, "monoid-window")
        self.d_max, self.m_max = data["window"]["d_max"], data["window"]["m_max"]
        pool = data["entries"]
        self.reference = {(e["label"], tuple(e["m"])): Fraction(e["value"]) for e in pool}
        rng = random.Random(seed)
        # Per model, 4 rounds that each visit its 8 cost strata once; a plan
        # round runs the models in turn through one such round (240 queries).
        per_model = [
            _stratified_rounds([e for e in pool if e["label"] == label],
                               lambda e: e["work"], 8, rng)
            for label in self.entries
        ]
        self.plan = [
            [(rounds[j][k]["label"], tuple(rounds[j][k]["m"]))
             for k in range(8) for rounds in per_model]
            for j in range(len(per_model[0]))
        ]
        first = (next(iter(self.entries)), (1,) * dp4.R5)
        return self.check(first, self.run(first))

    def run(self, query):
        label, m = query
        gens = config.effective_generators(self.entries[label].config())
        return window_minimum(gens, m, self.d_max, self.m_max)

    def check(self, query, out) -> list[str]:
        best, witness = out
        if best is None or best != self.reference[query]:
            return [f"window minimum {best} != reference {self.reference[query]}"]
        d, k, found = witness
        target = (d,) + tuple(-k * x for x in query[1])
        return checks.monoid_witness_errors(
            {g.coeffs: n for g, n in found.items()}, target, self.generators[query[0]])


class MonomialSymbolic:
    """CLI `monomial symbolic-power --ideal <I> --m <k>` in x, y, z."""

    trace_queries = 200

    def setup(self, seed: int, data_dir: Path, tmp_dir: Path) -> list[str]:
        data = _load(data_dir, "monomial-symbolic")
        self.variables = data["variables"]
        pool = data["entries"]
        self.reference = {(e["ideal"], e["m"]): frozenset(tuple(g) for g in e["result"])
                          for e in pool}
        rng = random.Random(seed)
        # One of each pair of entries adjacent in result size, so every seed
        # draws the same mix of small and large symbolic powers.
        ranked = sorted(pool, key=lambda e: (len(e["result"]), e["m"]))
        chosen = [rng.choice(ranked[i:i + 2]) for i in range(0, len(ranked), 2)]
        self.plan = [[(e["ideal"], e["m"]) for e in rng.sample(chosen, len(chosen))]]
        first = (pool[0]["ideal"], pool[0]["m"])
        return self.check(first, self.run(first))

    def run(self, query):
        ideal, k = query
        return _call_cli(["monomial", "symbolic-power", "--ideal", ideal, "--m", str(k)])

    def check(self, query, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        if checks.parse_monomials(text, self.variables) != self.reference[query]:
            return [f"symbolic power of ({query[0]})^{query[1]} differs from reference"]
        return []


WORKLOADS = {
    "generic-r8": GenericR8,
    "dp4-catalog": Dp4Catalog,
    "monoid-window": MonoidWindow,
    "monomial-symbolic": MonomialSymbolic,
}


def expected_mismatch() -> tuple[list[str], list[str]]:
    """Catalog rows whose certified all-ones value differs from the recorded one.

    Returns (mismatch descriptions, certificate problems).
    """
    mismatches, problems = [], []
    ones = (1,) * dp4.R5
    for entry in dp4.catalog():
        value, cert = cone.waldschmidt(entry.config(), ones)
        problems += checks.certificate_errors(
            cert.d, cert.m, cert.multiplicities,
            [(g.coeffs, c) for g, c in cert.decomposition], cert.nef.coeffs,
            frozenset(c.coeffs for c in entry.classes()))
        if value != entry.expected_alpha_hat:
            mismatches.append(
                f"{entry.label} certified {value} vs recorded {entry.expected_alpha_hat}")
    return mismatches, problems
