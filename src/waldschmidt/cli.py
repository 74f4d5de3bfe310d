"""Command-line front end.

Subcommands: candidates, waldschmidt, dp4, monomial.  Results go to
stdout (tables by default, JSON with --json); diagnostics go to stderr.
Exit codes: 0 success, 2 bad arguments or parse errors, 3 configuration
validation failure, 4 proximity violation, 5 infeasible cone.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dp4, monomial
from .classes import FAMILY_TAGS, candidate_sets
from .cone import Certificate, certificate_failures, frac_str, verify_certificate, waldschmidt
from .config import SurfaceConfig, load_config, validate_config
from .errors import (
    ClassParseError,
    ConfigurationError,
    InfeasibleConeError,
    MonomialError,
    ProximityViolationError,
    UnsupportedRankError,
    WaldschmidtError,
)
from .lattice import format_class

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID_CONFIG = 3
EXIT_PROXIMITY = 4
EXIT_INFEASIBLE = 5


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _verify(cert: Certificate, cfg: SurfaceConfig) -> bool:
    """verify_certificate, printing each failed condition on stderr."""
    if verify_certificate(cert, cfg):
        return True
    for reason in certificate_failures(cert, cfg):
        print(f"certificate check failed: {reason}", file=sys.stderr)
    return False


def _cmd_candidates(args: argparse.Namespace) -> int:
    fams = candidate_sets(args.r)
    if args.family:
        fams = [f for f in fams if f.tag == args.family]
        if not fams:
            return _fail(EXIT_USAGE, f"family {args.family} is empty at r={args.r}")
    if args.json:
        payload = {
            "r": args.r,
            "families": [
                {"family": f.tag, "members": [format_class(c) for c in f.members]}
                for f in fams
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for f in fams:
            for c in f.members:
                print(f"{f.tag}\t{format_class(c)}")
    return EXIT_OK


def _cmd_waldschmidt(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    report = validate_config(cfg)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not report.ok:
        return _fail(
            EXIT_INVALID_CONFIG,
            "invalid configuration:\n" + "\n".join(f"  {e}" for e in report.errors),
        )
    if args.m:
        try:
            m = tuple(int(t) for t in args.m.split(","))
        except ValueError:
            return _fail(EXIT_USAGE, f"bad multiplicities {args.m!r}")
    else:
        m = (1,) * cfg.r
    value, cert = waldschmidt(cfg, m)
    verified = _verify(cert, cfg)
    if args.json:
        payload = {
            "alpha_hat": frac_str(value),
            "certificate": cert.to_dict(),
            "verified": verified,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"alpha_hat = {frac_str(value)}")
        print(f"certificate: d={cert.d} m={cert.m} nef={format_class(cert.nef)}")
        for g, c in cert.decomposition:
            print(f"  {frac_str(c)} * {format_class(g)}")
        print(f"certificate {'verified' if verified else 'FAILED VERIFICATION'}")
    return EXIT_OK if verified else EXIT_INFEASIBLE


def _dp4_row(row: dp4.TableRow) -> dict:
    return {
        "label": row.label,
        "alpha_hat": frac_str(row.alpha_hat),
        "expected": frac_str(row.expected),
        "matches_expected": row.matches,
        "certificate_verified": row.verified,
        "certificate": row.certificate.to_dict(),
    }


def _cmd_dp4(args: argparse.Namespace) -> int:
    if args.type:
        try:
            entry = dp4.find_type(args.type)
        except KeyError as exc:
            return _fail(EXIT_USAGE, str(exc))
        cfg = entry.config()
        value, cert = waldschmidt(cfg, (1,) * dp4.R5)
        verified = _verify(cert, cfg)
        if args.json:
            print(json.dumps({
                "label": entry.label,
                "alpha_hat": frac_str(value),
                "expected": frac_str(entry.expected_alpha_hat),
                "roots": [format_class(c) for c in entry.roots],
                "lines": [format_class(c) for c in entry.lines],
                "certificate": cert.to_dict(),
                "certificate_verified": verified,
            }, indent=2))
        else:
            print(f"{entry.label}: alpha_hat = {frac_str(value)}")
            print(f"certificate: d={cert.d} m={cert.m} nef={format_class(cert.nef)}")
            print(f"certificate {'verified' if verified else 'FAILED VERIFICATION'}")
        return EXIT_OK if verified else EXIT_INFEASIBLE

    table = dp4.compute_table()
    if args.degenerations:
        report = dp4.check_degenerations(table)
        if args.json:
            print(json.dumps({
                "edges": [
                    {
                        "general": e.general,
                        "special": e.special,
                        "general_value": frac_str(e.general_value),
                        "special_value": frac_str(e.special_value),
                        "ok": e.ok,
                        "flagged": e.flagged,
                    }
                    for e in report.edges
                ],
                "ok": report.ok,
            }, indent=2))
        else:
            for e in report.edges:
                mark = "flagged" if e.flagged else ("ok" if e.ok else "VIOLATED")
                print(
                    f"{e.general} -> {e.special}: "
                    f"{frac_str(e.special_value)} <= {frac_str(e.general_value)} [{mark}]"
                )
            print(f"all unflagged edges pass: {report.ok}")
        return EXIT_OK if report.ok else EXIT_INFEASIBLE
    if args.bounds:
        report = dp4.check_bounds(table)
        values = sorted(report.value_set)
        if args.json:
            print(json.dumps({
                "lower": frac_str(report.lower),
                "upper": frac_str(report.upper),
                "within_bounds": report.within_bounds,
                "value_set": [frac_str(v) for v in values],
            }, indent=2))
        else:
            print(f"bounds: {frac_str(report.lower)} <= alpha_hat <= {frac_str(report.upper)}")
            print(f"within bounds: {report.within_bounds}")
            print("value set: " + ", ".join(frac_str(v) for v in values))
        return EXIT_OK if report.within_bounds else EXIT_INFEASIBLE

    if args.json:
        print(json.dumps({
            "rows": [_dp4_row(row) for row in table.rows],
            "all_verified": table.all_verified,
            "mismatches": [row.label for row in table.mismatches],
        }, indent=2))
    else:
        width = max(len(row.label) for row in table.rows)
        for row in table.rows:
            cert = "verified" if row.verified else "UNVERIFIED"
            match = "" if row.matches else f"  (expected {frac_str(row.expected)})"
            print(f"{row.label:<{width}}  {frac_str(row.alpha_hat):>4}  {cert}{match}")
        if table.mismatches:
            print(
                "mismatched expected values: "
                + ", ".join(row.label for row in table.mismatches),
                file=sys.stderr,
            )
    return EXIT_OK


def _cmd_monomial(args: argparse.Namespace) -> int:
    variables = args.vars.split(",") if args.vars else ["x", "y", "z"]
    ideal = monomial.parse_ideal(args.ideal, variables)
    op = args.operation
    if op in ("power", "symbolic-power") and args.m is None:
        return _fail(EXIT_USAGE, f"{op} requires --m")
    if op == "sat":
        out: object = monomial.format_ideal(monomial.saturate_irrelevant(ideal))
    elif op == "power":
        out = monomial.format_ideal(monomial.power(ideal, args.m))
    elif op == "symbolic-power":
        out = monomial.format_ideal(monomial.symbolic_power(ideal, args.m))
    elif op == "alpha":
        out = monomial.alpha(ideal)
    elif op == "estimate":
        out = f"<= {frac_str(monomial.waldschmidt_estimate(ideal, args.max_m))}"
    else:  # pragma: no cover - argparse restricts choices
        return _fail(EXIT_USAGE, f"unknown operation {op}")
    if args.json:
        print(json.dumps({"operation": op, "result": str(out)}))
    else:
        print(out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waldschmidt",
        description="Exact Waldschmidt constants on blowups of the plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("candidates", help="list candidate negative classes")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--family", choices=FAMILY_TAGS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_candidates)

    p = sub.add_parser("waldschmidt", help="compute alpha_hat for a configuration")
    p.add_argument("--config", required=True, help="path to a configuration JSON file")
    p.add_argument("--m", help="comma-separated multiplicities (default all ones)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_waldschmidt)

    p = sub.add_parser("dp4", help="degree-4 catalog operations")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--type", help='type label, e.g. "(3,2A1A2,4)"')
    group.add_argument("--degenerations", action="store_true")
    group.add_argument("--bounds", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dp4)

    p = sub.add_parser("monomial", help="monomial ideal operations")
    p.add_argument(
        "operation",
        choices=("sat", "power", "symbolic-power", "alpha", "estimate"),
    )
    p.add_argument("--ideal", required=True, help='e.g. "x^2, x*y, y^3"')
    p.add_argument("--m", type=int)
    p.add_argument("--max-m", type=int, default=6, dest="max_m")
    p.add_argument("--vars", help="comma-separated variables (default x,y,z)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_monomial)

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Spell "--m -1,2" as "--m=-1,2": argparse reads "-1,2" as a flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--m" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"--m={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ProximityViolationError as exc:
        return _fail(EXIT_PROXIMITY, f"proximity violation: {exc}")
    except InfeasibleConeError as exc:
        return _fail(EXIT_INFEASIBLE, f"infeasible: {exc}")
    except ConfigurationError as exc:
        return _fail(EXIT_INVALID_CONFIG, f"invalid configuration: {exc}")
    except (ClassParseError, UnsupportedRankError, MonomialError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    except FileNotFoundError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except json.JSONDecodeError as exc:
        return _fail(EXIT_USAGE, f"bad JSON: {exc}")
    except WaldschmidtError as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
