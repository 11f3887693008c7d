"""The benchmark workloads: set-up, one job, and the check of its output.

``run`` is the timed part of a job and calls only the package; ``inspect``
is untimed and checks the job's output without the package's help. Every
workload's job takes its seed as an argument, so a run is reproducible from
the workload seed alone.

See README.md in this directory for why each workload exists and which layer
it exercises.
"""

from __future__ import annotations

import contextlib
import io
import os

import peerpressure as pp
from peerpressure import cli, dynamics, experiments, graphs

from tracer import replace_everywhere

README_PARAMS = {"e_h": 0.1, "rho_h": 0.23, "rho_d": 0.45}

# Report lines that ``verify all`` writes: contagion 200, reduction 100,
# extinction 100, oracle 1000, bounds 50, oscillation 2, odd-girth 100.
VERIFY_REPORT_LINES = 1552


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


class TorusEvolve:
    """README ``simulate`` on a 300x300 torus read back from an edge list."""

    name = "torus-evolve"
    job_s = 0.19  # nominal seconds per job, fixes the job count per run

    def setup(self, workdir: str):
        torus = graphs.build_torus_grid(300, 300)
        path = os.path.join(workdir, "torus.edges")
        graphs.write_edge_list(torus, path)
        return graphs.read_edge_list(path)

    def run(self, network, seed: int):
        _, trace = experiments.run_time_evolution(
            network, pp.MainParams(**README_PARAMS), 0.01, pp.UpdateRule.main_greedy(),
            seed, 151, early_stop=True)
        return trace, dynamics.format_trace_csv(trace)

    def inspect(self, network, seed: int, raw):
        trace, text = raw
        n = network.vertex_count
        problems = []
        if n != 90000 or not bool((network.degrees == 4).all()):
            problems.append("edge-list round trip did not give the 4-regular 300x300 torus")
        rows = _csv_rows(text)
        if [[int(x) for x in row[1:]] for row in rows] != trace.counts.tolist():
            problems.append("trace CSV disagrees with the trace counts")
        if trace.counts[-1].tolist() != [0, 0, n] or trace.termination.value != "fixed-point":
            problems.append(f"did not converge: final {trace.counts[-1].tolist()}, "
                            f"{trace.termination.value}")
        return text.encode(), n * trace.rounds, problems


class VerifyAll:
    """``verify all`` through the CLI in-process, report written to a file.

    The CLI returns no traces, so player-rounds are counted by a wrapper that
    adds ``n * rounds`` for every trace ``dynamics.run`` returns; it costs one
    Python call per run, about 850 per job.
    """

    name = "verify-all"
    job_s = 4.8

    def setup(self, workdir: str):
        counter = {"player_rounds": 0}
        original = dynamics.run

        def counted_run(*args, **kwargs):
            trace = original(*args, **kwargs)
            counter["player_rounds"] += trace.n * trace.rounds
            return trace

        replace_everywhere(original, counted_run)
        return workdir, counter

    def run(self, state, seed: int):
        workdir, counter = state
        before = counter["player_rounds"]
        report = os.path.join(workdir, f"verify-{seed}.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "all", "--seed", str(seed), "--out", report])
        return code, report, counter["player_rounds"] - before

    def inspect(self, state, seed: int, raw):
        code, report, player_rounds = raw
        with open(report, "rb") as fh:
            data = fh.read()
        os.remove(report)
        lines = data.decode().splitlines()
        problems = [] if code == 0 else [f"verify exited with {code}"]
        if len(lines) != VERIFY_REPORT_LINES:
            problems.append(f"report has {len(lines)} lines, expected {VERIFY_REPORT_LINES}")
        failing = [line for line in lines if line.split(",")[2] != "pass"]
        if failing:
            problems.append(f"{len(failing)} instances failed, first: {failing[0]}")
        return data, player_rounds, problems


WORKLOADS = {cls.name: cls for cls in (TorusEvolve, VerifyAll)}
