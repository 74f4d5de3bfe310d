"""CLI stdout compared byte for byte with outputs recorded in tests/golden.

The files were recorded before the validation and solver-path refactor
(the r=8 case before the integer-pivoting simplex); any change to a
value, a certificate or the JSON layout shows here.  generic-r6.json,
generic-r7.json and generic-r8.json list every exceptional class at that
rank (classes.enumerate_exceptional), i.e. r general points.
"""

from pathlib import Path

import pytest

from waldschmidt.cli import main

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recorded_output(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
