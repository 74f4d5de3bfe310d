"""dp4 and monomial load on first use, and every public name still resolves."""

import os
import subprocess
import sys
from pathlib import Path

import waldschmidt

ROOT = Path(__file__).resolve().parent.parent


def test_waldschmidt_command_never_imports_dp4_or_monomial():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "waldschmidt",
         "waldschmidt", "--config", "tests/golden/generic-r6.json"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines()[-1] == "certificate verified"
    # -X importtime writes "import time: self | cumulative | name" per import.
    imported = {line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert {"waldschmidt", "waldschmidt.cli", "waldschmidt.cone"} <= imported
    assert not imported & {"waldschmidt.dp4", "waldschmidt.monomial"}


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from waldschmidt import *", namespace)
    assert set(waldschmidt.__all__) <= set(namespace)
    assert namespace["MonomialIdeal"] is waldschmidt.monomial.MonomialIdeal
    assert namespace["compute_table"] is waldschmidt.dp4.compute_table
    assert not hasattr(waldschmidt, "no_such_name")
