"""Rules on the package source itself."""

import ast
from pathlib import Path

import cyclomat

SOURCES = sorted(Path(cyclomat.__file__).parent.glob("*.py"))


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so no invariant may rest on one
    found = [(path.name, node.lineno) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(SOURCES) > 5
    assert found == []
