"""Spans around the package's public functions, installed from outside it.

The package binds names with ``from .x import y``, so one function is
reachable under several module attributes: ``dynamics.run`` is also
``experiments.run``, ``suites.run``, ``analysis.run`` and
``peerpressure.run``. Installing a span therefore replaces the function by
identity in every ``peerpressure.*`` namespace, so that every call site goes
through it. Methods are replaced once, on their class.

A span records its inclusive time, its self time (inclusive time minus the
time covered by the spans it called) and its call count. Spans are kept as
running totals in memory; nothing is written while the workload runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Span name -> (module, attribute). A dotted attribute names a method or
# classmethod on a class of that module.
SPANS = {
    "graphs.build_torus_grid": ("graphs", "build_torus_grid"),
    "graphs.sample_random_regular": ("graphs", "sample_random_regular"),
    "graphs.bfs_distances": ("graphs", "bfs_distances"),
    "graphs.compute_metrics": ("graphs", "compute_metrics"),
    "graphs.write_edge_list": ("graphs", "write_edge_list"),
    "graphs.read_edge_list": ("graphs", "read_edge_list"),
    "graphs.Network.__post_init__": ("graphs", "Network.__post_init__"),
    "graphs.Network.from_edges": ("graphs", "Network.from_edges"),
    "model.sample_initial_main": ("model", "sample_initial_main"),
    "model.sample_initial_two_order": ("model", "sample_initial_two_order"),
    "model.sample_initial_binary": ("model", "sample_initial_binary"),
    "dynamics.step": ("dynamics", "step"),
    "dynamics.punishing_counts": ("dynamics", "punishing_counts"),
    "dynamics.run": ("dynamics", "run"),
    "dynamics.format_trace_csv": ("dynamics", "format_trace_csv"),
    "dynamics.write_trace_csv": ("dynamics", "write_trace_csv"),
    "analysis.reference_step": ("analysis", "reference_step"),
    "analysis.check_contagion": ("analysis", "check_contagion"),
    "analysis.neighborhood": ("analysis", "neighborhood"),
    "analysis.check_reduction_equivalence": ("analysis", "check_reduction_equivalence"),
    "analysis.audit_convergence_bound": ("analysis", "audit_convergence_bound"),
    "analysis.convergence_round": ("analysis", "convergence_round"),
    "experiments.run_time_evolution": ("experiments", "run_time_evolution"),
    "cli.main": ("cli", "main"),
}

# The entries of ``suites.SUITES``, each traced as span ``suites.<name>``.
SUITE_NAMES = ("contagion", "reduction", "extinction", "oracle", "bounds",
               "oscillation", "odd-girth")


def _count_steps(counts, args, result):
    counts["player_steps"] += len(result)


def _count_instances(counts, args, result):
    counts["suite_instances"] += len(result)


COUNTERS = {
    "dynamics.step": _count_steps,
}


def package_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if name == "peerpressure" or name.startswith("peerpressure.")]


def _import(module_name: str):
    try:
        return importlib.import_module(f"peerpressure.{module_name}")
    except ModuleNotFoundError:
        return None


def replace_everywhere(original, replacement) -> None:
    """Rebind every ``peerpressure.*`` module attribute that is ``original``."""
    for module in package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Tracer:
    """Running totals of span time and calls, plus event counters."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        # Time covered by child spans, one entry per open span.
        self._open: list[float] = []

    def wrap(self, name: str, fn, count=None):
        clock = time.perf_counter
        open_spans = self._open
        self_s, total_s, calls, counts = self.self_s, self.total_s, self.calls, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = open_spans.pop()
                self_s[name] += elapsed - covered
                total_s[name] += elapsed
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every span that exists; record the others as absent."""
        for name, (module_name, attribute) in SPANS.items():
            module = _import(module_name)
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or method not in vars(owner):
                self.absent.append(name)
                continue
            original = vars(owner)[method]
            count = COUNTERS.get(name)
            if not owner_name:
                replace_everywhere(original, self.wrap(name, original, count))
            elif isinstance(original, classmethod):
                setattr(owner, method, classmethod(self.wrap(name, original.__func__, count)))
            else:
                setattr(owner, method, self.wrap(name, original, count))
        suites = _import("suites")
        registry = getattr(suites, "SUITES", {})
        for suite in SUITE_NAMES:
            name = f"suites.{suite}"
            if suite in registry:
                registry[suite] = self.wrap(name, registry[suite], _count_instances)
            else:
                self.absent.append(name)

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}


def difference(after: dict, before: dict) -> dict:
    """Per-span totals accumulated between two snapshots."""
    return {kind: {name: value - before[kind].get(name, 0)
                   for name, value in after[kind].items()}
            for kind in after}


# Per-layer metric -> (statistic, spans). Time metrics sum self time, so the
# per-layer times of one run never count the same interval twice.
LAYER_METRICS = {
    "graphs.metrics_s": ("self_s", ["graphs.compute_metrics"]),
    "graphs.metrics_calls": ("calls", ["graphs.compute_metrics"]),
    "graphs.bfs_s": ("self_s", ["graphs.bfs_distances"]),
    "graphs.bfs_calls": ("calls", ["graphs.bfs_distances"]),
    "graphs.sample_s": ("self_s", ["graphs.sample_random_regular"]),
    "graphs.build_s": ("self_s", ["graphs.build_torus_grid", "graphs.Network.__post_init__",
                                  "graphs.Network.from_edges"]),
    "graphs.networks_built": ("calls", ["graphs.Network.__post_init__"]),
    "graphs.io_s": ("self_s", ["graphs.write_edge_list", "graphs.read_edge_list"]),
    "model.init_s": ("self_s", ["model.sample_initial_main", "model.sample_initial_two_order",
                                "model.sample_initial_binary"]),
    "dynamics.step_s": ("self_s", ["dynamics.step"]),
    "dynamics.punishing_s": ("self_s", ["dynamics.punishing_counts"]),
    "dynamics.steps": ("calls", ["dynamics.step"]),
    "dynamics.run_self_s": ("self_s", ["dynamics.run"]),
    "dynamics.run_calls": ("calls", ["dynamics.run"]),
    "dynamics.format_s": ("self_s", ["dynamics.format_trace_csv", "dynamics.write_trace_csv"]),
    "analysis.reference_s": ("self_s", ["analysis.reference_step"]),
    "analysis.contagion_s": ("self_s", ["analysis.check_contagion", "analysis.neighborhood"]),
    "analysis.reduction_s": ("self_s", ["analysis.check_reduction_equivalence"]),
    "analysis.audit_s": ("self_s", ["analysis.audit_convergence_bound"]),
    "analysis.convergence_s": ("self_s", ["analysis.convergence_round"]),
    **{f"suites.{suite.replace('-', '_')}_self_s": ("self_s", [f"suites.{suite}"])
       for suite in SUITE_NAMES},
    "experiments.evolution_self_s": ("self_s", ["experiments.run_time_evolution"]),
    "cli.self_s": ("self_s", ["cli.main"]),
}


def layer_metrics(totals: dict) -> dict[str, float]:
    """Per-layer metrics from one snapshot, with derived ratios and counts."""
    out = {name: sum(totals[stat].get(span, 0) for span in spans)
           for name, (stat, spans) in LAYER_METRICS.items()}
    counts = totals["counts"]
    players = counts.get("player_steps", 0)
    step_total = totals["total_s"].get("dynamics.step", 0.0)
    out["dynamics.player_steps"] = players
    out["dynamics.step_ns_per_player"] = 1e9 * step_total / players if players else 0.0
    out["suites.instances"] = counts.get("suite_instances", 0)
    return out


def layer_shares(totals: dict, wall_s: float) -> dict[str, float]:
    """Each module's summed span self time as a share of ``wall_s``."""
    shares: dict[str, float] = defaultdict(float)
    for span, seconds in totals["self_s"].items():
        shares[span.split(".")[0]] += seconds / wall_s
    shares["unattributed"] = 1.0 - sum(shares.values())
    return dict(shares)
