"""The package grows no new knobs: defaulted parameters are counted."""

import ast
from pathlib import Path

import peerpressure

# Function parameters with a default value, across the whole package.
MAX_DEFAULTED_PARAMETERS = 7


def _defaulted(tree: ast.AST):
    """``(function name, parameters with a default)`` for each function that has any."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            if count:
                yield getattr(node, "name", "<lambda>"), count


def test_defaulted_parameters_do_not_grow():
    sources = sorted(Path(peerpressure.__file__).parent.glob("*.py"))
    assert sources
    found = [(path.name, name, count)
             for path in sources
             for name, count in _defaulted(ast.parse(path.read_text(encoding="utf-8")))]
    total = sum(count for _, _, count in found)
    assert total <= MAX_DEFAULTED_PARAMETERS, f"{total} defaulted parameters: {found}"
    # the count sees the knobs that exist today, so it cannot pass vacuously
    assert ("dynamics.py", "run", 2) in found
