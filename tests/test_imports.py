"""Public names load their module on first use, and every one resolves."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_bare_import_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, waldschmidt; "
         "print(sorted(m for m in sys.modules if m.startswith('waldschmidt')))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "['waldschmidt']\n"


def test_no_package_module_loads_dataclasses_or_inspect():
    # The records derive from a plain base: dataclasses, with the inspect,
    # ast and dis it imports, cost every process that loads the package.
    names = sorted(p.stem for p in (ROOT / "src" / "waldschmidt").glob("*.py")
                   if p.stem not in ("__init__", "__main__"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", "import importlib, sys\n"
         "from waldschmidt import *\n"
         f"for name in {names!r}: importlib.import_module('waldschmidt.' + name)\n"
         "print(len([m for m in sys.modules if m.startswith('waldschmidt.')]), "
         "sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == f"{len(names)} []\n"


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from waldschmidt import *", namespace)
    assert set(waldschmidt.__all__) <= set(namespace)
    assert len(set(waldschmidt.__all__)) == len(waldschmidt.__all__) == 42
    for name in waldschmidt.__all__:
        obj = namespace[name]
        home = obj.__module__
        assert home.startswith("waldschmidt."), name
        assert obj is getattr(importlib.import_module(home), name) is getattr(waldschmidt, name)
    assert not hasattr(waldschmidt, "no_such_name")


def test_dir_lists_every_public_name():
    assert set(waldschmidt.__all__) <= set(dir(waldschmidt))
    assert "__version__" in dir(waldschmidt)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        waldschmidt.no_such_name
    with pytest.raises(ImportError):
        exec("from waldschmidt import no_such_name", {})
