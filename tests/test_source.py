"""Source-level guards over the library modules."""

import ast
from pathlib import Path

import matroidlab

PACKAGE = Path(matroidlab.__file__).parent


def test_no_assert_in_the_library():
    # `python -O` strips assert statements, so no invariant may live in one
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
