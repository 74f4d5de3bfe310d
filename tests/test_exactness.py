"""Source guard: no float enters the package and no invariant rests on assert.

Every module under src/waldschmidt is parsed, not imported, so the check
covers code that no test happens to run.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "waldschmidt").glob("*.py"))


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: use of the name float")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: true division")
    return found


def test_the_package_has_sources():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_has_no_float_and_no_assert(path):
    assert _violations(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("snippet", [
    "assert x", "y = 0.5", "y = float(x)", "y = x / 2", "x /= 2", "y = 1e3",
])
def test_the_guard_catches_each_pattern(snippet):
    assert len(_violations(ast.parse(snippet))) == 1
