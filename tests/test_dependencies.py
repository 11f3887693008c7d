"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import peerpressure

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "peerpressure"}


def _imported_top_level(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(peerpressure.__file__).parent.glob("*.py"))
    assert sources
    found = {(path.name, name)
             for path in sources
             for name in _imported_top_level(ast.parse(path.read_text(encoding="utf-8")))
             if name not in ALLOWED}
    assert not found, f"imports outside stdlib and numpy: {sorted(found)}"
