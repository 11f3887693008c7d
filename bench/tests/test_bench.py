"""Tests of the benchmark itself: traced counters, span coverage, checks.

Run from the root of a source checkout (about a minute)::

    python3 -m pytest bench/tests -q

Each workload runs twice, traced, on one second's worth of jobs at the
default seed, so the pinned output digests are checked as well.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
sys.path.insert(0, str(ROOT / "bench"))

import run as bench_run  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("torus-evolve", "verify-all")

DETERMINISTIC = ("dynamics.steps", "dynamics.run_calls", "graphs.bfs_calls",
                 "graphs.metrics_calls", "graphs.networks_built",
                 "dynamics.player_steps", "suites.instances")

# Per-layer metrics that must be non-zero, from the layer table in README.md.
MUST_FIRE = {
    "torus-evolve": ("graphs.build_s", "graphs.networks_built", "graphs.io_s", "model.init_s",
                     "dynamics.step_s", "dynamics.punishing_s", "dynamics.steps",
                     "dynamics.step_ns_per_player", "dynamics.run_self_s",
                     "dynamics.run_calls", "dynamics.format_s",
                     "experiments.evolution_self_s"),
    "verify-all": ("graphs.metrics_s", "graphs.metrics_calls", "graphs.bfs_s",
                   "graphs.bfs_calls", "graphs.sample_s", "graphs.build_s",
                   "graphs.networks_built", "model.init_s", "dynamics.step_s",
                   "dynamics.steps", "dynamics.run_calls", "analysis.reference_s",
                   "analysis.contagion_s", "analysis.reduction_s", "analysis.audit_s",
                   "analysis.convergence_s", "suites.contagion_self_s",
                   "suites.reduction_self_s", "suites.extinction_self_s",
                   "suites.oracle_self_s", "suites.bounds_self_s",
                   "suites.oscillation_self_s", "suites.odd_girth_self_s",
                   "suites.instances", "cli.self_s"),
}

# Layers that the table predicts do no work on a workload.
MUST_NOT_FIRE = {
    "torus-evolve": ("graphs.metrics_calls", "graphs.sample_s", "cli.self_s"),
}


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=300)


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for workload in WORKLOADS:
        pair = []
        for _ in range(2):
            proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", "1")
            assert proc.returncode == 0
            pair.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        runs[workload] = pair
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct(traced_runs, workload):
    for result in traced_runs[workload]:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(traced_runs, workload):
    first, second = (r["metrics"] for r in traced_runs[workload])
    for name in DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_fire_where_the_layer_works(traced_runs, workload):
    metrics = traced_runs[workload][0]["metrics"]
    for name in MUST_FIRE[workload]:
        assert metrics[name]["value"] > 0, name
    for name in MUST_NOT_FIRE.get(workload, ()):
        assert metrics[name]["value"] == 0, name


def test_every_per_layer_metric_is_declared(traced_runs):
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for pair in traced_runs.values():
        assert set(pair[0]["metrics"]) == declared


def test_missing_function_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    monkeypatch.setattr(tracer, "SPANS", {"graphs.gone": ("graphs", "gone"),
                                          "nowhere.f": ("nowhere", "f"),
                                          "graphs.Network.gone": ("graphs", "Network.gone")})
    monkeypatch.setattr(tracer, "SUITE_NAMES", ("no-such-suite",))
    spans = tracer.Tracer()
    spans.install()
    assert spans.absent == ["graphs.gone", "nowhere.f", "graphs.Network.gone",
                            "suites.no-such-suite"]
    assert all(value == 0 for value in tracer.layer_metrics(spans.snapshot()).values())


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    latencies = [float(i) for i in range(30)]
    assert bench_run.tail(latencies) == (100.0 * 20 / 30, 19.0)
    assert bench_run.tail(latencies[:19]) is None


def test_fails_without_package_source():
    bare = ROOT / ".bench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-all",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, stdout=subprocess.PIPE, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("extra", (["--seed", "7"], ["--seconds", "1"], ["--trace", "1"]))
def test_pin_digests_only_at_the_default_seed_and_length(extra):
    with pytest.raises(SystemExit):
        bench_run.parse_args(["--workload", "verify-all", "--pin-digests", *extra])
    assert bench_run.parse_args(["--workload", "verify-all", "--pin-digests"]).pin_digests
