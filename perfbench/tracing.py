"""Spans around calls into each layer, recorded from outside the package.

Each traced function is replaced, in every module that binds it, by a
wrapper that records (name, phase, parent span, start, end).  Spans stay
in memory until the run ends; `restore` puts every original back.
`lattice.pairing` stays unwrapped: it runs tens of thousands of times per
r=8 validation, so a wrapper would distort the numbers; its cost shows in
its callers' self time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from waldschmidt import classes, cli, cone, config, dp4, monomial

# Span name -> every (module, attribute) through which callers reach it.
TRACED = {
    "cli.main": [(cli, "main")],
    "config.load_config": [(cli, "load_config")],
    "lattice.parse_class": [(config, "parse_class")],
    "config.validate_config": [(config, "validate_config"), (cone, "validate_config"),
                               (cli, "validate_config")],
    "classes.candidate_members": [(config, "candidate_members")],
    "config.effective_generators": [(config, "effective_generators"),
                                    (cone, "effective_generators")],
    "simplex.solve_lp": [(cone, "solve_lp")],
    "cone.waldschmidt": [(cone, "waldschmidt"), (cli, "waldschmidt")],
    "cone.verify_certificate": [(cone, "verify_certificate"), (cli, "verify_certificate")],
    "cone.is_nef": [(cone, "is_nef")],
    "cone.monoid_membership": [(cone, "monoid_membership")],
    "monomial.parse_ideal": [(monomial, "parse_ideal")],
    "monomial.symbolic_power": [(monomial, "symbolic_power")],
    "monomial.power": [(monomial, "power")],
    "monomial.saturate_irrelevant": [(monomial, "saturate_irrelevant")],
    "classes.enumerate_exceptional": [(classes, "enumerate_exceptional")],
    "classes.weyl_orbit": [(classes, "weyl_orbit")],
    "dp4.catalog": [(dp4, "catalog")],
}

# Layers whose per-query call counts and self times are reported.
QUERY_LAYERS = {
    "simplex.solve_lp": ("calls", "self_ms"),
    "config.validate_config": ("calls", "self_ms"),
    "classes.candidate_members": ("calls", "self_ms"),
    "config.effective_generators": ("calls", "self_ms"),
    "config.load_config": ("self_ms",),
    "lattice.parse_class": ("calls",),
    "cone.waldschmidt": ("self_ms",),
    "cone.verify_certificate": ("calls", "self_ms"),
    "cone.is_nef": ("self_ms",),
    "cone.monoid_membership": ("calls", "self_ms"),
    "monomial.power": ("self_ms",),
    "monomial.saturate_irrelevant": ("self_ms",),
    "monomial.parse_ideal": ("self_ms",),
    "cli.main": ("self_ms",),
}
SETUP_LAYERS = ("classes.enumerate_exceptional", "classes.weyl_orbit", "dp4.catalog")


def _bits(values) -> int:
    return max(
        (max(q.numerator.bit_length(), q.denominator.bit_length())
         for q in values if isinstance(q, Fraction)),
        default=0,
    )


class Tracer:
    """Installs the wrappers, keeps the spans and counters, and sums them."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, int, float, float]] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        for name, bindings in TRACED.items():
            wrapper = self._wrap(name, getattr(*bindings[0]))
            for module, attr in bindings:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, self.phase, parent, start, end)
            if observe is not None and self.phase == "query":
                observe(args, result)
            return result

        return traced

    def _observe_simplex_solve_lp(self, args, result) -> None:
        c = self.counters
        c["solve_lp.max_cols"] = max(c["solve_lp.max_cols"], len(args[2]))
        bits = max(_bits(result.x or ()), _bits(result.dual or ()))
        c["solve_lp.max_result_bits"] = max(c["solve_lp.max_result_bits"], bits)

    def _observe_cone_monoid_membership(self, args, result) -> None:
        if result is not None:
            self.counters["monoid_membership.hits"] += 1

    def _observe_monomial_symbolic_power(self, args, result) -> None:
        self.counters["symbolic_power.generators"] += len(result.generators)

    def layer_metrics(self, queries: int, query_scale: float,
                      setup_scale: float) -> dict[str, tuple[float, str]]:
        """Per-query call counts and self times, and the set-up self times.

        Self times are multiplied by the host-speed factor of their phase,
        as the end-to-end times are.
        """
        calls: dict[tuple[str, str], int] = defaultdict(int)
        self_s: dict[tuple[str, str], float] = defaultdict(float)
        for name, phase, parent, start, end in self.spans:
            calls[name, phase] += 1
            self_s[name, phase] += end - start
            if parent >= 0:
                pname, pphase = self.spans[parent][:2]
                self_s[pname, pphase] -= end - start
        out: dict[str, tuple[float, str]] = {}
        for name, kinds in QUERY_LAYERS.items():
            if "calls" in kinds:
                out[name + ".calls"] = (calls[name, "query"] / queries, "calls/query")
            if "self_ms" in kinds:
                out[name + ".self_ms"] = (
                    self_s[name, "query"] * 1e3 * query_scale / queries, "ms/query")
        for name in SETUP_LAYERS:
            out[name + ".self_ms"] = (self_s[name, "setup"] * 1e3 * setup_scale, "ms")
        c = self.counters
        out["simplex.solve_lp.max_cols"] = (c["solve_lp.max_cols"], "count")
        out["simplex.solve_lp.max_result_bits"] = (c["solve_lp.max_result_bits"], "bits")
        monoid_calls = calls["cone.monoid_membership", "query"]
        out["cone.monoid_membership.hit_ratio"] = (
            c["monoid_membership.hits"] / monoid_calls if monoid_calls else 0.0, "ratio")
        out["monomial.result_generators"] = (
            c["symbolic_power.generators"] / queries, "count/query")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, phase, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "phase": phase, "parent": parent,
                                     "start": start, "end": end}) + "\n")
