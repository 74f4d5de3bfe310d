import dataclasses
import json

import pytest

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


def test_candidates_json_parity(capsys):
    code, table_out, _ = run(capsys, "candidates", "--r", "2")
    code2, json_out, _ = run(capsys, "candidates", "--r", "2", "--json")
    assert code == code2 == 0
    rows = {tuple(line.split("\t")) for line in table_out.strip().splitlines()}
    payload = json.loads(json_out)
    json_rows = {
        (fam["family"], member)
        for fam in payload["families"]
        for member in fam["members"]
    }
    assert rows == json_rows


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
        return value, dataclasses.replace(cert, d=cert.d + 1)

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


def test_dp4_all_json_parity(capsys):
    _, out, _ = run(capsys, "dp4", "--all")
    _, jout, _ = run(capsys, "dp4", "--all", "--json")
    payload = json.loads(jout)
    assert payload["all_verified"] is True
    assert payload["mismatches"] == []
    assert len(payload["rows"]) == 30
    table_values = [line.split()[1] for line in out.strip().splitlines()]
    assert table_values == [row["alpha_hat"] for row in payload["rows"]]


def test_dp4_single_type(capsys):
    code, out, _ = run(capsys, "dp4", "--type", "(3,2A1A2,4)")
    assert code == 0
    assert "alpha_hat = 9/5" in out


def test_dp4_unknown_type_exits_2(capsys):
    code, _, err = run(capsys, "dp4", "--type", "(7,X,1)")
    assert code == 2
    assert "unknown type" in err


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
