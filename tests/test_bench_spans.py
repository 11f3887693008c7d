"""Every name the benchmark traces exists in the package.

``bench/tracer.py`` records a span it cannot find as absent, and the
per-layer metric built on it then reads 0 instead of failing. This test
resolves each span and suite name the way the tracer does, without
installing it, so renaming a traced function fails here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_spans_and_suites_resolve():
    tracer = _load_tracer()
    missing = []
    for name, (module_name, attribute) in tracer.SPANS.items():
        owner = importlib.import_module(f"peerpressure.{module_name}")
        owner_name, _, method = attribute.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or method not in vars(owner):
            missing.append(name)
    suites = importlib.import_module("peerpressure.suites").SUITES
    missing += [f"suites.{name}" for name in tracer.SUITE_NAMES if name not in suites]
    assert not missing, f"traced names absent from the package: {missing}"
    assert tracer.SPANS and tracer.SUITE_NAMES
