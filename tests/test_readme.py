"""Every `python -m waldschmidt ...` example in README.md runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from waldschmidt.cli import main

ROOT = Path(__file__).resolve().parent.parent
FENCED = re.compile(r"^```sh\n(.*?)^```", re.S | re.M)
EXAMPLES = [
    line
    for block in FENCED.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    for line in block.splitlines()
    if line.startswith("python -m waldschmidt ")
]


def test_readme_has_an_example_per_subcommand():
    assert {shlex.split(line)[3] for line in EXAMPLES} == {
        "waldschmidt", "dp4", "candidates", "monomial",
    }


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_example_exits_0(capsys, monkeypatch, line):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(line)[3:]) == 0
    assert capsys.readouterr().out
