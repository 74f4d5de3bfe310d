"""Command-line front end.

Subcommands: candidates, waldschmidt, dp4, monomial.  Each prints one
JSON payload (--json) or text rendered from it; diagnostics go to stderr.
Exit codes: 0 success, 2 bad arguments or parse errors, 3 configuration
validation failure, 4 proximity violation, 5 infeasible cone, a
certificate that failed verification, or a failed dp4 --degenerations or
--bounds check.

One parser per call, for the command it runs.  COMMANDS defines every
subcommand's arguments once.  When argv[0] names a command, `main` builds
the top-level parser with only that subcommand in it; any other argv
(empty, -h, an unknown command) gets the parser of all four.  The output
is the same either way: a subcommand's parser and its messages do not
depend on its siblings, the one-command parser's usage line still lists
every command, and only the full parser ever reports a missing or unknown
command.  The dp4 and monomial modules are imported by their handlers.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

from .classes import FAMILY_TAGS, candidate_sets
from .cone import Certificate, certificate_failures, verify_certificate, waldschmidt
from .config import SurfaceConfig, load_config, validate_config
from .errors import (
    ConfigurationError,
    InfeasibleConeError,
    ProximityViolationError,
    WaldschmidtError,
)
from .lattice import format_class

if TYPE_CHECKING:
    from . import dp4

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


def _emit(args: argparse.Namespace, payload: dict, text: Callable, indent: int | None = 2):
    """Print a command's one result: the payload as JSON with --json, else the
    lines text(payload), which reads nothing but the payload."""
    print(json.dumps(payload, indent=indent) if args.json else "\n".join(text(payload)))


def _certificate_text(head: str, cert: dict, verified: bool, terms: Iterable[str] = ()):
    """`head`, the certificate line, any decomposition terms, the verdict line."""
    yield head
    yield f"certificate: d={cert['d']} m={cert['m']} nef={cert['nef']}"
    yield from terms
    yield f"certificate {'verified' if verified else 'FAILED VERIFICATION'}"


def _cmd_candidates(args: argparse.Namespace) -> int:
    fams = candidate_sets(args.r)
    if args.family:
        fams = [f for f in fams if f.tag == args.family]
        if not fams:
            return _fail(EXIT_USAGE, f"family {args.family} is empty at r={args.r}")
    _emit(args, {
        "r": args.r,
        "families": [
            {"family": f.tag, "members": [format_class(c) for c in f.members]}
            for f in fams
        ],
    }, lambda p: (f"{f['family']}\t{c}" for f in p["families"] for c in f["members"]))
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
    if args.m is not None:
        try:
            m = tuple(int(t) for t in args.m.split(","))
        except ValueError:
            return _fail(EXIT_USAGE, f"bad multiplicities {args.m!r}")
    else:
        m = (1,) * cfg.r
    value, cert = waldschmidt(cfg, m)
    verified = _verify(cert, cfg)
    _emit(args, {
        "alpha_hat": str(value),
        "certificate": cert.to_dict(),
        "verified": verified,
    }, lambda p: _certificate_text(
        f"alpha_hat = {p['alpha_hat']}", p["certificate"], p["verified"],
        (f"  {t['coefficient']} * {t['generator']}"
         for t in p["certificate"]["decomposition"]),
    ))
    return EXIT_OK if verified else EXIT_INFEASIBLE


def _dp4_row(row: dp4.TableRow) -> dict:
    return {
        "label": row.label,
        "alpha_hat": str(row.alpha_hat),
        "expected": str(row.expected),
        "matches_expected": row.matches,
        "certificate_verified": row.verified,
        "certificate": row.certificate.to_dict(),
    }


def _degenerations_text(p: dict) -> Iterable[str]:
    for e in p["edges"]:
        mark = "flagged" if e["flagged"] else ("ok" if e["ok"] else "VIOLATED")
        yield (
            f"{e['general']} -> {e['special']}: "
            f"{e['special_value']} <= {e['general_value']} [{mark}]"
        )
    yield f"all unflagged edges pass: {p['ok']}"


def _table_text(p: dict) -> Iterable[str]:
    width = max(len(row["label"]) for row in p["rows"])
    for row in p["rows"]:
        cert = "verified" if row["certificate_verified"] else "UNVERIFIED"
        match = "" if row["matches_expected"] else f"  (expected {row['expected']})"
        yield f"{row['label']:<{width}}  {row['alpha_hat']:>4}  {cert}{match}"


def _cmd_dp4(args: argparse.Namespace) -> int:
    from . import dp4

    if args.type is not None:
        try:
            entry = dp4.find_type(args.type)
        except KeyError as exc:
            return _fail(EXIT_USAGE, str(exc))
        cfg = entry.config()
        value, cert = waldschmidt(cfg, (1,) * dp4.R5)
        verified = _verify(cert, cfg)
        _emit(args, {
            "label": entry.label,
            "alpha_hat": str(value),
            "expected": str(entry.expected_alpha_hat),
            "roots": [format_class(c) for c in entry.roots],
            "lines": [format_class(c) for c in entry.lines],
            "certificate": cert.to_dict(),
            "certificate_verified": verified,
        }, lambda p: _certificate_text(
            f"{p['label']}: alpha_hat = {p['alpha_hat']}",
            p["certificate"], p["certificate_verified"],
        ))
        return EXIT_OK if verified else EXIT_INFEASIBLE

    table = dp4.compute_table()
    if args.degenerations:
        report = dp4.check_degenerations(table)
        _emit(args, {
            "edges": [
                {
                    "general": e.general,
                    "special": e.special,
                    "general_value": str(e.general_value),
                    "special_value": str(e.special_value),
                    "ok": e.ok,
                    "flagged": e.flagged,
                }
                for e in report.edges
            ],
            "ok": report.ok,
        }, _degenerations_text)
        return EXIT_OK if report.ok else EXIT_INFEASIBLE
    if args.bounds:
        report = dp4.check_bounds(table)
        _emit(args, {
            "lower": str(report.lower),
            "upper": str(report.upper),
            "within_bounds": report.within_bounds,
            "value_set": [str(v) for v in sorted(report.value_set)],
        }, lambda p: [
            f"bounds: {p['lower']} <= alpha_hat <= {p['upper']}",
            f"within bounds: {p['within_bounds']}",
            "value set: " + ", ".join(p["value_set"]),
        ])
        return EXIT_OK if report.within_bounds else EXIT_INFEASIBLE

    mismatches = [row.label for row in table.mismatches]
    if mismatches:
        print("mismatched expected values: " + ", ".join(mismatches), file=sys.stderr)
    _emit(args, {
        "rows": [_dp4_row(row) for row in table.rows],
        "all_verified": table.all_verified,
        "mismatches": mismatches,
    }, _table_text)
    return EXIT_OK


def _cmd_monomial(args: argparse.Namespace) -> int:
    from . import monomial

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
    else:  # "estimate"; argparse restricts the choices
        out = f"<= {monomial.waldschmidt_estimate(ideal, args.max_m)}"
    _emit(args, {"operation": op, "result": str(out)}, lambda p: [p["result"]], indent=None)
    return EXIT_OK


def _candidates_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--family", choices=FAMILY_TAGS)


def _waldschmidt_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a configuration JSON file")
    p.add_argument("--m", help="comma-separated multiplicities (default all ones)")


def _dp4_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--type", help='type label, e.g. "(3,2A1A2,4)"')
    group.add_argument("--degenerations", action="store_true")
    group.add_argument("--bounds", action="store_true")


def _monomial_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "operation",
        choices=("sat", "power", "symbolic-power", "alpha", "estimate"),
    )
    p.add_argument("--ideal", required=True, help='e.g. "x^2, x*y, y^3"')
    p.add_argument("--m", type=int)
    p.add_argument("--max-m", type=int, default=6, dest="max_m")
    p.add_argument("--vars", help="comma-separated variables (default x,y,z)")


# Every subcommand, in usage order: (name, help, argument adder, handler).
# Each also takes --json, added after its own arguments.
COMMANDS: tuple[tuple[str, str, Callable, Callable], ...] = (
    ("candidates", "list candidate negative classes", _candidates_args, _cmd_candidates),
    ("waldschmidt", "compute alpha_hat for a configuration", _waldschmidt_args,
     _cmd_waldschmidt),
    ("dp4", "degree-4 catalog operations", _dp4_args, _cmd_dp4),
    ("monomial", "monomial ideal operations", _monomial_args, _cmd_monomial),
)
_NAMES = tuple(name for name, _, _, _ in COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone.

    A one-command parser takes the full parser's subcommand list as its
    metavar, so its usage line is the same.  The full parser keeps none:
    its "invalid choice" and "required" messages name the argument
    "command", as a metavar would replace that name.
    """
    parser = argparse.ArgumentParser(
        prog="waldschmidt",
        description="Exact Waldschmidt constants on blowups of the plane.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_NAMES) + "}",
    )
    for name, help_text, add_arguments, handler in COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.add_argument("--json", action="store_true")
            p.set_defaults(func=handler)
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
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv and argv[0] in _NAMES else None).parse_args(argv)
    try:
        return args.func(args)
    except ProximityViolationError as exc:
        return _fail(EXIT_PROXIMITY, f"proximity violation: {exc}")
    except InfeasibleConeError as exc:
        return _fail(EXIT_INFEASIBLE, f"infeasible: {exc}")
    except ConfigurationError as exc:
        return _fail(EXIT_INVALID_CONFIG, f"invalid configuration: {exc}")
    except OSError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _fail(EXIT_USAGE, f"bad JSON: {exc}")
    except WaldschmidtError as exc:
        return _fail(EXIT_USAGE, str(exc))

