import json

import pytest

from helpers import replaced
from waldschmidt import cli, config
from waldschmidt.cli import main

D5_CONFIG = {
    "r": 5,
    "negative_curves": ["E_12", "E_23", "E_34", "E_45", "L_123", "E_5"],
}

CHAIN_CONFIG = {
    "r": 2,
    "proximity": [[2, 1]],
    "negative_curves": ["E_12", "E_2", "L_12"],
}


@pytest.fixture
def d5_path(tmp_path):
    p = tmp_path / "d5.json"
    p.write_text(json.dumps(D5_CONFIG))
    return str(p)


@pytest.fixture
def chain_path(tmp_path):
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(CHAIN_CONFIG))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_candidates_r2(capsys):
    code, out, _ = run(capsys, "candidates", "--r", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_candidates_family_filter(capsys):
    code, out, _ = run(capsys, "candidates", "--r", "5", "--family", "Q")
    assert code == 0
    assert out.strip().splitlines() == ["Q\tQ_12345"]


def test_candidates_bad_rank_exits_2(capsys):
    code, _, err = run(capsys, "candidates", "--r", "9")
    assert code == 2
    assert "2 <= r <= 8" in err


def test_waldschmidt_command(capsys, d5_path):
    code, out, _ = run(capsys, "waldschmidt", "--config", d5_path)
    assert code == 0
    assert "alpha_hat = 5/3" in out
    assert "certificate verified" in out


def test_waldschmidt_explicit_multiplicities(capsys, d5_path):
    code, out, _ = run(capsys, "waldschmidt", "--config", d5_path,
                       "--m", "2,2,2,2,2")
    assert code == 0
    assert "alpha_hat = 10/3" in out


def test_waldschmidt_json_parity(capsys, d5_path):
    _, out, _ = run(capsys, "waldschmidt", "--config", d5_path)
    _, jout, _ = run(capsys, "waldschmidt", "--config", d5_path, "--json")
    payload = json.loads(jout)
    assert payload["alpha_hat"] == "5/3"
    assert payload["verified"] is True
    assert f"alpha_hat = {payload['alpha_hat']}" in out
    d, m = payload["certificate"]["d"], payload["certificate"]["m"]
    assert f"d={d} m={m}" in out


def test_waldschmidt_invalid_config_exits_3(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"r": 2, "negative_curves": ["L", "E_1"]}))
    code, _, err = run(capsys, "waldschmidt", "--config", str(p))
    assert code == 3
    assert "invalid configuration" in err


@pytest.mark.parametrize("key, value", [
    ("proximity", [[1]]),
    ("proximity", [["a", 1]]),
    ("proximity", [[2, 1, 1]]),
    ("proximity", 5),
    ("negative_curves", [5]),
    ("negative_curves", [[0, "x", 1]]),
    ("negative_curves", [[1, -1, True]]),
    ("r", 5.7),
    ("r", True),
    ("r", "2"),
])
def test_waldschmidt_malformed_config_exits_3(capsys, tmp_path, key, value):
    data = dict(CHAIN_CONFIG, **{key: value})
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, "waldschmidt", "--config", str(p))
    assert code == 3
    assert out == ""
    assert err.startswith("invalid configuration:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("r", [9, -1])
def test_waldschmidt_unsupported_rank_exits_2(capsys, tmp_path, r):
    p = tmp_path / "rank.json"
    p.write_text(json.dumps({"r": r, "negative_curves": []}))
    code, out, err = run(capsys, "waldschmidt", "--config", str(p))
    assert code == 2 and out == ""
    assert err == f"rank {r} outside supported range 0..8\n"


def test_waldschmidt_validates_the_config_once(capsys, d5_path, monkeypatch):
    calls = []
    real = config.candidate_members
    monkeypatch.setattr(config, "candidate_members", lambda r: calls.append(r) or real(r))
    code, _, _ = run(capsys, "waldschmidt", "--config", d5_path, "--json")
    assert code == 0
    assert calls == [5]


def test_waldschmidt_proximity_violation_exits_4(capsys, chain_path):
    code, out, _ = run(capsys, "waldschmidt", "--config", chain_path,
                       "--m", "1,1")
    assert code == 0 and "alpha_hat = 1" in out
    code, _, err = run(capsys, "waldschmidt", "--config", chain_path,
                       "--m", "1,2")
    assert code == 4
    assert "proximity" in err


def test_waldschmidt_infeasible_exits_5(capsys, tmp_path):
    p = tmp_path / "infeasible.json"
    p.write_text(json.dumps({"r": 2, "negative_curves": ["E_1", "E_2"]}))
    code, _, err = run(capsys, "waldschmidt", "--config", str(p))
    assert code == 5
    assert "infeasible" in err


@pytest.mark.parametrize("data", [{"r": 2}, {"r": 3, "negative_curves": []}])
def test_waldschmidt_without_generators_exits_5(capsys, tmp_path, data):
    # No generator: at r = 2 the record's LP is too small to halve, at r = 3
    # the one block of the empty set halves it, so the quotient LP has only
    # the column -e0.  Both are infeasible.
    p = tmp_path / "empty.json"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, "waldschmidt", "--config", str(p))
    assert (code, out) == (5, "")
    assert err == ("infeasible: no multiple of the line class dominates E_Z "
                   "over these generators\n")


@pytest.mark.parametrize("data, m, lines", [
    ({"r": 0}, [], ["alpha_hat = 0", "certificate: d=0 m=1 nef=L"]),
    ({"r": 1}, [], ["alpha_hat = 1", "certificate: d=1 m=1 nef=L_1", "  1 * L_1"]),
    ({"r": 3, "negative_curves": ["E_1", "E_2", "E_3", "L_12", "L_13", "L_23"]},
     ["--m", "0,0,0"], ["alpha_hat = 0", "certificate: d=0 m=1 nef=L"]),
])
def test_waldschmidt_answers_rank_0_rank_1_and_zero_multiplicities(capsys, tmp_path,
                                                                    data, m, lines):
    # r = 0 and all-zero m never reach an LP; r = 1 takes the record's.
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, "waldschmidt", "--config", str(p), *m)
    assert (code, err) == (0, "")
    assert out.splitlines() == lines + ["certificate verified"]


def test_waldschmidt_bad_multiplicities_exit_2(capsys, d5_path):
    code, _, _ = run(capsys, "waldschmidt", "--config", d5_path, "--m", "a,b")
    assert code == 2


@pytest.mark.parametrize("argv", [["--m", "-1,2,1,1,1"], ["--m=-1,2,1,1,1"]])
def test_waldschmidt_negative_multiplicity_exits_3(capsys, d5_path, argv):
    code, out, err = run(capsys, "waldschmidt", "--config", d5_path, *argv)
    assert code == 3
    assert out == ""
    assert err == "invalid configuration: multiplicities must be nonnegative\n"


def test_waldschmidt_failed_certificate_names_the_condition(capsys, d5_path, monkeypatch):
    real = cli.waldschmidt

    def wrong_degree(cfg, m):
        value, cert = real(cfg, m)
        return value, replaced(cert, d=cert.d + 1)

    monkeypatch.setattr(cli, "waldschmidt", wrong_degree)
    code, out, err = run(capsys, "waldschmidt", "--config", d5_path)
    assert code == 5
    assert out.splitlines()[-1] == "certificate FAILED VERIFICATION"
    reasons = err.splitlines()
    assert reasons and all(line.startswith("certificate check failed: ") for line in reasons)
    assert any("decomposition sums to" in line for line in reasons)
    assert any("(d*L - m*E_Z).F = 3, not 0" in line for line in reasons)


def test_dp4_all(capsys):
    code, out, err = run(capsys, "dp4", "--all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 30
    assert sum("verified" in line for line in lines) == 30
    values = {line.split()[1] for line in lines}
    assert values == {"5/3", "7/4", "9/5", "2"}
    assert "(expected" not in out
    assert "mismatched expected values" not in err


def test_dp4_single_type(capsys):
    code, out, _ = run(capsys, "dp4", "--type", "(3,2A1A2,4)")
    assert code == 0
    assert "alpha_hat = 9/5" in out


def test_dp4_unknown_type_exits_2(capsys):
    code, _, err = run(capsys, "dp4", "--type", "(7,X,1)")
    assert code == 2
    assert "unknown type" in err


def test_dp4_empty_type_label_is_unknown(capsys):
    # An empty label is still a --type: it must not fall through to --all.
    code, out, err = run(capsys, "dp4", "--type", "")
    assert code == 2 and out == ""
    assert "unknown type label ''" in err


def test_dp4_degenerations(capsys):
    code, out, _ = run(capsys, "dp4", "--degenerations")
    assert code == 0
    assert "all unflagged edges pass: True" in out
    assert "flagged" in out


def test_dp4_bounds(capsys):
    code, out, _ = run(capsys, "dp4", "--bounds")
    assert code == 0
    assert "5/3 <= alpha_hat <= 2" in out
    assert "value set: 5/3, 7/4, 9/5, 2" in out


def test_monomial_commands(capsys):
    code, out, _ = run(capsys, "monomial", "symbolic-power",
                       "--ideal", "x^2,x*y,y^3", "--m", "2")
    assert code == 0
    assert out.strip() == "x^4, x^3*y, x^2*y^2, x*y^4, y^6"
    code, out, _ = run(capsys, "monomial", "alpha", "--ideal", "x,y^2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "monomial", "estimate",
                       "--ideal", "x,y^2", "--max-m", "6")
    assert code == 0 and out.strip() == "<= 1"
    code, out, _ = run(capsys, "monomial", "sat",
                       "--ideal", "x*z, y*z, z^2", "--vars", "x,y,z")
    assert code == 0 and out.strip() == "z"
    code, out, _ = run(capsys, "monomial", "power",
                       "--ideal", "x,y^2", "--m", "3")
    assert code == 0 and out.strip() == "x^3, x^2*y^2, x*y^4, y^6"


def test_monomial_symbolic_power_saturates_before_powering(capsys):
    ideal = "x^2, x*y, y^3, z"
    code, out, _ = run(capsys, "monomial", "symbolic-power", "--ideal", ideal, "--m", "60")
    assert code == 0 and out == "1\n"
    code, out, err = run(capsys, "monomial", "power", "--ideal", ideal, "--m", "60")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "budget" in err and "Traceback" not in err


def test_monomial_repeated_variable_exits_2(capsys):
    for op in ("symbolic-power", "sat"):
        code, out, err = run(capsys, "monomial", op, "--ideal", "x*y, y^2",
                             "--vars", "x,y,y", "--m", "2")
        assert code == 2 and out == ""
        assert "repeated variable name" in err and "Traceback" not in err


def test_monomial_symbolic_power_past_the_intersection_budget_exits_2(capsys):
    code, out, err = run(capsys, "monomial", "symbolic-power",
                         "--ideal", "x^2*y, z", "--m", "63")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "intersection budget" in err
    assert "Traceback" not in err


def test_monomial_parse_error_exits_2(capsys):
    code, _, _ = run(capsys, "monomial", "alpha", "--ideal", "x^^2")
    assert code == 2
    code, _, _ = run(capsys, "monomial", "power", "--ideal", "x")
    assert code == 2  # missing --m


def test_stdout_carries_results_stderr_diagnostics(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, out, err = run(capsys, "waldschmidt", "--config", str(p))
    assert code == 2
    assert out == ""
    assert err


def test_waldschmidt_missing_config_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "waldschmidt", "--config", str(tmp_path / "missing.json"))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "missing.json" in err and "Traceback" not in err


@pytest.mark.parametrize("contents", [None, b"\xff\xfe{}"], ids=["directory", "not-utf-8"])
def test_waldschmidt_unreadable_config_exits_2(capsys, tmp_path, contents):
    p = tmp_path
    if contents is not None:
        p = tmp_path / "config.json"
        p.write_bytes(contents)
    code, out, err = run(capsys, "waldschmidt", "--config", str(p))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--m", ""], ["--m="]])
def test_waldschmidt_empty_multiplicities_exit_2(capsys, d5_path, argv):
    code, out, err = run(capsys, "waldschmidt", "--config", d5_path, *argv)
    assert code == 2 and out == ""
    assert err == "bad multiplicities ''\n"


def test_waldschmidt_wrong_multiplicity_count_exits_3(capsys, d5_path):
    code, out, err = run(capsys, "waldschmidt", "--config", d5_path, "--m", "1,1")
    assert code == 3 and out == ""
    assert err == "invalid configuration: expected 5 multiplicities, got 2\n"


def test_candidates_empty_family_exits_2(capsys):
    code, out, err = run(capsys, "candidates", "--r", "5", "--family", "C")
    assert code == 2 and out == ""
    assert err == "family C is empty at r=5\n"


def test_waldschmidt_warns_on_a_point_proximate_to_three(capsys, tmp_path):
    p = tmp_path / "three.json"
    p.write_text(json.dumps({
        "r": 4,
        "proximity": [[4, 1], [4, 2], [4, 3]],
        "negative_curves": ["E_1", "E_2", "E_3", "E_4",
                            "L_12", "L_13", "L_14", "L_23", "L_24", "L_34"],
    }))
    code, out, err = run(capsys, "waldschmidt", "--config", str(p))
    assert code == 0 and "certificate verified" in out
    assert err == (
        "warning: point p_4 proximate to 3 points; "
        "a planar point can be proximate to at most 2\n"
    )


COMMANDS = ("candidates", "waldschmidt", "dp4", "monomial")


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "monomial"], *([c, "--help"] for c in COMMANDS), ["bogus"],
    ["monomial", "sat", "--ideal", "x", "--bogus"], ["monomial", "cube", "--ideal", "x"],
    ["dp4"], ["dp4", "--all", "--type", "x"],
    ["candidates", "--r", "3", "--family", "ZZ"], ["waldschmidt"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_like_the_full_parser(capsys, monkeypatch, argv):
    """main builds a parser for the named command only; what argparse prints
    and the exit code must match the parser that knows every command."""
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(call):
        with pytest.raises(SystemExit) as exc:
            call(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    expected = outcome(lambda a: cli.build_parser().parse_args(a))
    assert expected[1] or expected[2]
    assert outcome(main) == expected


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
])
def test_missing_or_unknown_command_names_the_command_argument(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: waldschmidt [-h] {candidates,waldschmidt,dp4,monomial} ...")
    assert message in err
