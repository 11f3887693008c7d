"""Benchmark of the peerpressure package: end-to-end and per-layer metrics.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload torus-evolve --seed 0 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, taken from a traced pass over the first half of the jobs, and the
tracing overhead.
A ``run-record:`` line before it gives the machine, versions and details.

This process only coordinates. Each pass over the jobs, and each extra
set-up timing, runs in a fresh child process that imports the package from
``src/`` of the checkout; one child runs at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
SCRATCH = ROOT / ".bench_tmp"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

DEFAULT_SEED = 0  # digests in golden.json are pinned for this workload seed
# Set-ups timed per run; setup_s is their median. The verify-all set-up is
# little more than the import, about 0.15 s, so many are cheap; the torus
# set-up is 1.3 s.
SETUP_SAMPLES_DEFAULT = 21
SETUP_SAMPLES = {"torus-evolve": 7}
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # jobs slower than the reported tail
MIN_TAIL_JOBS = 2 * TAIL_BEYOND


def job_count(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.job_s))


def job_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# child: one fresh process, one pass over the jobs (or one set-up)
# ---------------------------------------------------------------------------


def child(args) -> dict:
    start = time.perf_counter()
    import peerpressure
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    workload = workloads.WORKLOADS[args.workload]()
    state = workload.setup(args.workdir)
    setup_s = time.perf_counter() - start
    if not Path(peerpressure.__file__).resolve().is_relative_to(SOURCE.resolve()):
        raise RuntimeError(f"imported {peerpressure.__file__}, not the checkout's source")
    if args.child == "setup":
        return {"setup_s": setup_s}
    return run_jobs(args, workload, state, setup_s, tracer)


def run_jobs(args, workload, state, setup_s: float, tracer) -> dict:
    golden = json.loads(GOLDEN.read_text()).get(args.workload, {})
    pinned = args.seed == DEFAULT_SEED and not args.pin_digests
    setup_spans = tracer.snapshot() if tracer else None
    latencies, failures, digests = [], [], []
    cpu_s = 0.0
    player_rounds = 0
    for index in range(job_count(workload, args.seconds)):
        seed = job_seed(args.seed, index)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            raw = workload.run(state, seed)
        except Exception:
            raw = None
            failures.append(f"job {index}: {traceback.format_exc(limit=3)}")
        latencies.append(time.perf_counter() - start)
        cpu_s += time.process_time() - cpu_start
        if raw is None:
            digests.append(None)
            continue
        try:
            output, rounds, problems = workload.inspect(state, seed, raw)
        except Exception:
            output, rounds, problems = b"", 0, [traceback.format_exc(limit=3)]
        digest = hashlib.sha256(output).hexdigest()
        digests.append(digest)
        player_rounds += rounds
        if pinned and str(index) in golden and golden[str(index)] != digest:
            problems.append(f"digest {digest} differs from the pinned {golden[str(index)]}")
        if problems:
            failures.append(f"job {index} (seed {seed}): " + "; ".join(problems))
    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "cpu_s": cpu_s,
        "failures": failures,
        "digests": digests,
        "digests_checked": pinned and bool(golden),
        "player_rounds": player_rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        from tracer import difference, layer_metrics, layer_shares
        spans = tracer.snapshot()
        wall_s = sum(latencies)
        result["layers"] = layer_metrics(spans)
        result["shares"] = layer_shares(difference(spans, setup_spans), wall_s)
        result["absent"] = tracer.absent
    return result


# ---------------------------------------------------------------------------
# parent: spawn children, aggregate, print the result
# ---------------------------------------------------------------------------


def spawn(args, mode: str, trace: int, deadline: float, seconds: float | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    # One compute thread: numpy's BLAS pool would otherwise start one per core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    command = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
               "--workdir", workdir, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds or args.seconds), "--trace", str(trace)]
    if args.pin_digests:
        command.append("--pin-digests")
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND jobs beyond it, and its value.

    With fewer than MIN_TAIL_JOBS jobs that percentile is at or below the
    median, so there is no tail to report and the result is None.
    """
    ordered = sorted(latencies)
    if len(ordered) < MIN_TAIL_JOBS:
        return None
    index = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def measure(args, deadline: float) -> tuple[list[dict], dict, dict]:
    # Extra set-ups are split around the pass, so the median spans the whole run.
    extra = SETUP_SAMPLES.get(args.workload, SETUP_SAMPLES_DEFAULT) - 1
    setups = [spawn(args, "setup", 0, deadline)["setup_s"] for _ in range(extra // 2)]
    run = spawn(args, "jobs", 0, deadline)
    setups.append(run["setup_s"])
    setups += [spawn(args, "setup", 0, deadline)["setup_s"] for _ in range(extra - extra // 2)]
    latencies = run["latencies"]
    wall_s = sum(latencies)
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "job_p50_ms": 1000.0 * statistics.median(latencies),
        "player_rounds_per_s": run["player_rounds"] / wall_s,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    record = {"setup_samples_s": setups, "job_cpu_s": run["cpu_s"]}
    # The tail is not a metric: BENCHMARK.json needs every metric on every
    # workload, and verify-all runs too few jobs to have one.
    if (job_tail := tail(latencies)) is not None:
        record["tail_percentile"], tail_s = job_tail
        record["job_tail_ms"] = 1000.0 * tail_s
    return [run], metrics, record


def measure_traced(args, deadline: float) -> tuple[list[dict], dict, dict]:
    # Two passes over half the jobs each keep a traced run as long as a plain one.
    plain = spawn(args, "jobs", 0, deadline, args.seconds / 2)
    traced = spawn(args, "jobs", 1, deadline, args.seconds / 2)
    plain_wall, traced_wall = sum(plain["latencies"]), sum(traced["latencies"])
    if plain["digests"] != traced["digests"]:
        traced["failures"].append("traced outputs differ from untraced outputs")
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    record = {"untraced_wall_s": plain_wall,
              "untraced_player_rounds_per_s": plain["player_rounds"] / plain_wall,
              "shares_of_wall_s": traced["shares"], "absent_spans": traced["absent"]}
    return [plain, traced], metrics, record


def parent(args) -> int:
    from importlib.metadata import version  # parent only: it adds memory to a child

    # A terminated run stops its child too: subprocess.run kills it on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SOURCE / "peerpressure" / "__init__.py").is_file():
        print(f"error: no package source at {SOURCE / 'peerpressure'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            passes, metrics, record = measure_traced(args, deadline)
        else:
            passes, metrics, record = measure(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run = passes[-1]
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [failure for p in passes for failure in p["failures"]]
    failed = len(failures)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.pin_digests:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        golden[args.workload] = {str(i): d for i, d in enumerate(run["digests"]) if d}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": len(run["latencies"]),
        "failed_frac": failed / attempted, "digests_checked": run["digests_checked"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": version("numpy"),
        "platform": platform.platform(), "commit": git_commit(),
    })
    print("run-record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true",
                        help="write this run's output digests to golden.json")
    parser.add_argument("--child", choices=("setup", "jobs"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.pin_digests and (args.seed, args.seconds, args.trace) != (
            DEFAULT_SEED, SPEC["run_seconds"], 0):
        parser.error(f"--pin-digests needs the default --seed {DEFAULT_SEED}, "
                     f"--seconds {SPEC['run_seconds']} and --trace 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        print(json.dumps(child(args)))
        return 0
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
