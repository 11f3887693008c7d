"""Run-to-run spread of the end-to-end metrics over several workload seeds.

Usage, from the root of a source checkout::

    python3 bench/spread.py --workload sweep-phase --seeds 1 2 3 4 5

Runs ``bench/run.py`` once per seed, one run at a time, with the run length
from BENCHMARK.json, and prints for each metric its median and the distance
between the first and third quartiles as a share of the median, next to the
metric's bound. A spread above a third of its bound is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output, {result['failed']} failed jobs")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        mark = "  <-- above a third of the bound" if spread > bounds[name] / 3 else ""
        print(f"{name:22s} median {median:<12.6g} spread {spread:6.3f} "
              f"bound {bounds[name]}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
