"""The package grows no new knobs and no hidden module state: defaulted
parameters and cached functions are counted."""

import ast
from pathlib import Path

import pytest

import peerpressure

# Function parameters with a default value, across the whole package.
MAX_DEFAULTED_PARAMETERS = 7

# The only functions that keep results between calls, as "module.function".
CACHED_FUNCTIONS = {"dynamics.decision_table", "suites._reduction_outcomes"}


def _defaulted(tree: ast.AST):
    """``(function name, parameters with a default)`` for each function that has any."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            if count:
                yield getattr(node, "name", "<lambda>"), count


@pytest.fixture(scope="module")
def sources():
    """Each module of the package by name, parsed once for both counts."""
    paths = sorted(Path(peerpressure.__file__).parent.glob("*.py"))
    assert paths
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _cached(tree: ast.AST):
    """Names of the functions under a functools cache decorator
    (``lru_cache``, ``cache`` or ``cached_property``, however imported)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if ast.unparse(target).split(".")[-1] in ("lru_cache", "cache", "cached_property"):
                    yield node.name


def test_defaulted_parameters_do_not_grow(sources):
    found = [(f"{module}.py", name, count)
             for module, tree in sources.items()
             for name, count in _defaulted(tree)]
    total = sum(count for _, _, count in found)
    assert total <= MAX_DEFAULTED_PARAMETERS, f"{total} defaulted parameters: {found}"
    # the count sees the knobs that exist today, so it cannot pass vacuously
    assert ("dynamics.py", "run", 2) in found


def test_no_module_cache_but_the_known_ones(sources):
    # a cache is module state that outlives a call: a new one must be named here
    found = {f"{module}.{name}" for module, tree in sources.items()
             for name in _cached(tree)}
    assert found == CACHED_FUNCTIONS
