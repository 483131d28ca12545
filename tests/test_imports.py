"""Package structure: every module imports at its top level."""

import ast
from pathlib import Path

import tulink

SOURCES = sorted(Path(tulink.__file__).parent.glob("*.py"))


def test_no_import_inside_a_function():
    """An import inside a function body hides a dependency, and is the usual
    way round an import cycle between two modules. Modules import at top
    level, so a cycle fails at import time instead."""
    assert len(SOURCES) > 5
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not found, found
