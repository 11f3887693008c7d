"""Command-line interface: wiring, outputs, and exit codes."""

import json

import pytest

from peerpressure import read_edge_list
from peerpressure.cli import main
from peerpressure.suites import InstanceOutcome


def run_cli(*argv):
    return main(list(argv))


def test_generate_torus(tmp_path, capsys):
    out = tmp_path / "torus.edges"
    assert run_cli("generate", "--torus", "6", "6", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("effective-config: {")
    assert json.loads(stdout.splitlines()[0].split(": ", 1)[1])["network"] == "torus:6x6"
    assert ("generated torus:6x6: n=36 m=72 min_degree=4 diameter=6 "
            "bipartite=true odd_girth=-") in stdout
    g = read_edge_list(str(out))
    assert g.vertex_count == 36


def test_generate_torus_summary_without_bfs(tmp_path, capsys, monkeypatch):
    # the summary comes from the torus's closed form: neither the
    # single-source search nor the all-sources one (minutes at 300x300) runs
    import numpy as np
    import peerpressure.graphs as graphs

    class NoReduceat:
        def reduceat(self, *args):
            raise AssertionError("all-sources search run on a torus")

    def no_bfs(network, source):
        raise AssertionError("bfs_distances called on a torus")

    monkeypatch.setattr(graphs, "bfs_distances", no_bfs)
    monkeypatch.setattr(np, "bitwise_or", NoReduceat())
    out = tmp_path / "torus.edges"
    assert run_cli("generate", "--torus", "7", "4", "--out", str(out)) == 0
    assert run_cli("generate", "--torus", "300", "300", "--out", str(out)) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("generated")]
    assert lines == [
        "generated torus:7x4: n=28 m=56 min_degree=4 diameter=5 "
        "bipartite=false odd_girth=7",
        "generated torus:300x300: n=90000 m=180000 min_degree=4 diameter=300 "
        "bipartite=true odd_girth=-",
    ]


def test_generate_regular_requires_seed(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert run_cli("generate", "--regular", "20", "3", "--out", str(out)) == 2
    assert "--seed is required" in capsys.readouterr().err


def test_generate_regular(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert run_cli("generate", "--regular", "20", "3", "--seed", "4",
                   "--out", str(out)) == 0
    g = read_edge_list(str(out))
    assert set(g.degrees.tolist()) == {3}
    assert "odd_girth=" in capsys.readouterr().out


def _assert_generation_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: no connected 1-regular graph"), err
    assert "Traceback" not in err


def test_generate_impossible_regular_exits_one(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert run_cli("generate", "--regular", "4", "1", "--seed", "0",
                   "--out", str(out)) == 1
    _assert_generation_error(capsys)


def test_simulate_impossible_regular_exits_one(capsys):
    # sampling gives up inside the run, after the effective config
    assert run_cli("simulate", "--regular", "6", "1", "--e-h", "0.1", "--rho-h", "0.23",
                   "--rho-d", "0.45", "--seed", "0") == 1
    _assert_generation_error(capsys)


def test_sweep_impossible_regular_exits_one(tmp_path, capsys):
    # one cell, so the network is sampled in this process, without a pool
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"network": "regular", "n": 6, "degree": 1,
                               "e_h_count": 1, "rho_h_count": 1, "rho_d": 0.5,
                               "epsilon": 0.2, "rounds": 2, "repetitions": 1,
                               "master_seed": 9}))
    assert run_cli("sweep", str(cfg), "--out-prefix", str(tmp_path / "p")) == 1
    _assert_generation_error(capsys)


def test_simulate_torus_with_flags(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code = run_cli("simulate", "--torus", "10", "10", "--e-h", "0.1",
                   "--rho-h", "0.23", "--rho-d", "0.45", "--epsilon", "0.05",
                   "--rounds", "40", "--early-stop", "--seed", "0",
                   "--out", str(trace_path))
    assert code == 0
    stdout = capsys.readouterr().out
    assert "effective-config:" in stdout
    summary = stdout.splitlines()[-1]
    assert summary.startswith("rounds=")
    assert "conditions=satisfied" in summary
    header = trace_path.read_text().splitlines()[0]
    assert header == "round,defectors,hypocritical,cooperators"


def test_simulate_missing_params_is_usage_error(capsys):
    assert run_cli("simulate", "--torus", "5", "5", "--seed", "0",
                   "--e-h", "0.1", "--rho-h", "0.2") == 2
    assert "missing parameter" in capsys.readouterr().err


def test_simulate_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"e_h": 0.5, "rho_h": 0.23, "rho_d": 0.45}))
    code = run_cli("simulate", "--torus", "5", "5", "--config", str(cfg),
                   "--e-h", "0.1", "--rounds", "3", "--seed", "1")
    assert code == 0
    effective = capsys.readouterr().out.splitlines()[0]
    record = json.loads(effective.split(": ", 1)[1])
    assert record["e_h"] == 0.1
    assert record["rho_h"] == 0.23


MAIN_FLAGS = ("--e-h", "0.1", "--rho-h", "0.23", "--rho-d", "0.45")
TWO_ORDER_FLAGS = ("--alpha1", "0.9", "--alpha2", "0.1", "--beta1", "0.23", "--beta2", "0.22")


@pytest.mark.parametrize("argv, config, message", [
    (MAIN_FLAGS + ("--alpha1", "1"), None, "mixed with two-order keys"),
    (TWO_ORDER_FLAGS, {"e_h": 0.1, "rho_h": 0.23, "rho_d": 0.45}, "mixed with two-order keys"),
    (MAIN_FLAGS + ("--two-order",), None, "requires TwoOrderParams"),
    (TWO_ORDER_FLAGS, None, "requires MainParams"),
    ((), [0.1, 0.23, 0.45], "expected a flat JSON object"),
    ((), {"e_h": None, "rho_h": 0.23, "rho_d": 0.45}, "'e_h' must be a number"),
    ((), {"e_h": [0.1], "rho_h": 0.23, "rho_d": 0.45}, "'e_h' must be a number"),
    ((), {"e_h": True, "rho_h": 0.23, "rho_d": 0.45}, "'e_h' must be a number"),
    ((), {"e_h": 0.1, "rho_h": "0.45", "rho_d": 0.45}, "'rho_h' must be a number"),
    ((), {"e_h": 0.1, "rho_h": 0.23, "rho_d": 0.45, "epsilon": 0.5, "seed": 1},
     "unknown parameter keys ['epsilon', 'seed']"),
], ids=["mixed-flags", "flags-over-config", "two-order-with-main-keys",
        "two-order-keys-without-flag", "config-not-object", "config-null-value",
        "config-list-value", "config-bool-value", "config-string-value",
        "config-non-parameter-keys"])
def test_simulate_rejects_mismatched_params(tmp_path, capsys, argv, config, message):
    # the mixed-flag case used to run and drop alpha1 silently
    if config is not None:
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps(config))
        argv += ("--config", str(cfg))
    assert run_cli("simulate", "--torus", "5", "5", "--seed", "0", *argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "effective-config" not in captured.out


@pytest.mark.parametrize("argv, config, message", [
    (("--e-h", "0.1", "--rho-h", "inf", "--rho-d", "inf"), None, "'rho_h' must be finite"),
    ((), {"e_h": 0.1, "rho_h": 0.23, "rho_d": float("nan")}, "'rho_d' must be finite"),
    (("--two-order", "--alpha1", "nan") + TWO_ORDER_FLAGS[2:], None,
     "'alpha1' must be finite"),
], ids=["flags", "config", "two-order"])
def test_simulate_rejects_non_finite_params(tmp_path, capsys, argv, config, message):
    # NaN fails every range comparison and used to run, printing NaN into
    # the effective config
    if config is not None:
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps(config))
        argv += ("--config", str(cfg))
    assert run_cli("simulate", "--torus", "5", "5", "--rounds", "3", "--seed", "1", *argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "effective-config" not in captured.out


def test_simulate_from_edge_list(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    assert run_cli("generate", "--torus", "5", "5", "--out", str(edges)) == 0
    code = run_cli("simulate", "--graph", str(edges), "--e-h", "0.1",
                   "--rho-h", "0.3", "--rho-d", "0.6", "--rounds", "15",
                   "--seed", "2")
    assert code == 0
    assert "final_counts=" in capsys.readouterr().out


def test_simulate_missing_graph_file_is_usage_error(capsys):
    assert run_cli("simulate", "--graph", "/nonexistent/g.edges", "--e-h", "0.1",
                   "--rho-h", "0.3", "--rho-d", "0.6", "--seed", "0") == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_impossible_vertex_count_is_usage_error(tmp_path, capsys):
    # the header asks for 728 TiB of row offsets, which fails at once
    edges = tmp_path / "huge.edges"
    edges.write_text("100000000000000 0\n")
    assert run_cli("simulate", "--graph", str(edges), *MAIN_FLAGS, "--seed", "0") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {edges}: header vertex count n=100000000000000")
    assert "rounds=" not in captured.out


HUGE = "268435456"


@pytest.mark.parametrize("argv", [
    ("generate", "--torus", HUGE, HUGE, "--out", "/dev/null"),
    ("simulate", "--torus", HUGE, HUGE, *MAIN_FLAGS, "--seed", "0"),
], ids=["generate", "simulate"])
def test_unallocatable_torus_is_usage_error(capsys, argv):
    # 2**56 vertices: the row offsets alone would take 512 PiB, which fails at once
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: torus:{HUGE}x{HUGE} is too large to allocate\n"


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unholdable_round_budget_is_usage_error(tmp_path, capsys, command):
    # the run settles within a few rounds; filling its settled tail would
    # take 10**15 rows, more than any address space, which fails at once;
    # 10**18 rows are past even the largest array numpy can describe
    for rounds in (10**15, 10**18):
        if command == "simulate":
            argv = ("simulate", "--torus", "10", "10", "--e-h", "0.1", "--rho-h", "0.23",
                    "--rho-d", "0.45", "--epsilon", "0.3", "--rounds", str(rounds),
                    "--seed", "3")
        else:
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps({"network": "torus", "width": 6, "height": 6,
                                       "e_h_count": 1, "rho_h_count": 1, "rho_d": 0.45,
                                       "epsilon": 0.2, "rounds": rounds,
                                       "repetitions": 1, "master_seed": 9}))
            argv = ("sweep", str(cfg), "--out-prefix", str(tmp_path / "p"))
        assert run_cli(*argv) == 2, rounds
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory"), (rounds, captured.err)
        assert "Traceback" not in captured.err
        assert "rounds=" not in captured.out and "wrote" not in captured.out


def test_simulate_empty_network_is_usage_error(tmp_path, capsys):
    edges = tmp_path / "empty.edges"
    edges.write_text("0 0\n")
    assert run_cli("simulate", "--graph", str(edges), *MAIN_FLAGS, "--seed", "0") == 2
    captured = capsys.readouterr()
    assert "simulation requires a non-empty network" in captured.err
    assert "rounds=" not in captured.out
    assert "effective-config" not in captured.out


@pytest.mark.parametrize("text, rule_flags", [
    ("1 0\n", MAIN_FLAGS),
    ("1 0\n", ("--two-order",) + TWO_ORDER_FLAGS),
    ("4 2\n0 1\n2 3\n", MAIN_FLAGS),
], ids=["single-vertex", "single-vertex-two-order", "disconnected"])
def test_simulate_unrunnable_graph_is_refused_before_output(tmp_path, capsys, text, rule_flags):
    # a single vertex used to print the effective config and write the
    # trace, then exit 2 from the conditions summary (min_degree 0)
    edges, out = tmp_path / "g.edges", tmp_path / "trace.csv"
    edges.write_text(text)
    assert run_cli("simulate", "--graph", str(edges), *rule_flags, "--rounds", "2",
                   "--seed", "0", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {edges}: simulation requires a connected network "
                            "of at least 2 vertices\n")
    assert "effective-config" not in captured.out
    assert not out.exists()


def test_simulate_two_order(capsys):
    code = run_cli("simulate", "--torus", "5", "5", "--two-order",
                   "--alpha1", "0.9", "--alpha2", "0.1", "--beta1", "0.23",
                   "--beta2", "0.22", "--rounds", "10", "--seed", "3")
    assert code == 0
    assert "conditions=satisfied" in capsys.readouterr().out


def test_simulate_noisy_reports_p_greedy(capsys):
    code = run_cli("simulate", "--torus", "5", "5", "--noisy", "0.9",
                   "--e-h", "0.1", "--rho-h", "0.23", "--rho-d", "0.45",
                   "--rounds", "5", "--seed", "4")
    assert code == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0].split(": ", 1)[1])
    assert record["p_greedy"] == 0.9
    assert record["rule"] == "main-noisy"


def test_simulate_noisy_early_stop_is_usage_error(tmp_path, capsys):
    # rejected before any work: a missing edge list is never opened
    for network in (["--torus", "5", "5"], ["--graph", str(tmp_path / "missing.edges")]):
        code = run_cli("simulate", *network, "--noisy", "0.9", "--early-stop",
                       *MAIN_FLAGS, "--rounds", "5", "--seed", "4")
        assert code == 2
        captured = capsys.readouterr()
        assert "error: the noisy rule never settles, so it cannot stop early" in captured.err
        assert "effective-config" not in captured.out
        assert "rounds=" not in captured.out


def test_simulate_regime_note_printed(capsys):
    code = run_cli("simulate", "--torus", "5", "5", "--e-h", "0.0",
                   "--rho-h", "0.23", "--rho-d", "0.45", "--rounds", "2",
                   "--seed", "5")
    assert code == 0
    assert "note: e_h=0.0 is on the regime boundary" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("content, message", [
    (b'{"e_h": 0.1\n"rho_h": 0.23}', "Expecting ',' delimiter: line 2 column 1 (char 12)"),
    (b'{"e_h": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
], ids=["syntax", "not-utf-8"])
def test_json_error_names_the_file(tmp_path, capsys, command, content, message):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    if command == "simulate":
        argv, prefix = ("simulate", "--torus", "5", "5", "--config", str(cfg), "--seed", "0"), ""
    else:
        argv, prefix = ("sweep", str(cfg), "--out-prefix", str(tmp_path / "p")), "invalid sweep config: "
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {prefix}{cfg}: {message}\n"
    assert "effective-config" not in captured.out


def test_sweep_round_trip(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "network": "torus", "width": 5, "height": 5,
        "e_h_count": 2, "rho_h_count": 2, "rho_d": 0.5, "epsilon": 0.2,
        "rounds": 4, "repetitions": 2, "master_seed": 9,
    }))
    prefix = str(tmp_path / "phase")
    assert run_cli("sweep", str(cfg), "--out-prefix", prefix) == 0
    stdout = capsys.readouterr().out
    assert f"wrote {prefix}.csv and {prefix}.ppm" in stdout
    csv_lines = (tmp_path / "phase.csv").read_text().splitlines()
    assert csv_lines[0] == "e_h,rho_h,frac_defector,frac_hypocritical,frac_cooperator"
    assert len(csv_lines) == 5
    assert (tmp_path / "phase.ppm").read_text().startswith("P3\n")


def test_sweep_invalid_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"network": "torus", "width": 5, "height": 5,
                               "e_h_count": 2, "rho_h_count": 2, "rho_d": 0.5,
                               "epsilon": 0.2, "rounds": 4, "repetitions": 2,
                               "master_seed": 9, "bogus_key": 1}))
    assert run_cli("sweep", str(cfg), "--out-prefix", str(tmp_path / "p")) == 2
    assert "invalid sweep config" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("fresh_network_per_repetition", "false"),
    ("fresh_network_per_repetition", 0),
    ("e_h_count", 2.9),
    ("rounds", True),
    ("master_seed", "9"),
    ("n", 12.0),
    ("epsilon", "0.2"),
    ("epsilon", True),
    ("epsilon", 0),
    ("p_greedy", "0.5"),
    ("rho_d", float("inf")),
], ids=["fresh-string", "fresh-int", "count-float", "rounds-bool", "seed-string", "n-float",
        "epsilon-string", "epsilon-bool", "epsilon-zero", "p-greedy-string", "rho-d-infinity"])
def test_sweep_rejects_coerced_values(tmp_path, capsys, key, value):
    # int(), bool() and float() used to coerce these silently: "false"
    # sampled a fresh network per repetition, 2.9 ran a 2-column grid,
    # true ran epsilon 1.0, and Infinity wrote nan and inf rho_h values
    record = {"network": "regular", "n": 12, "degree": 3,
              "e_h_count": 2, "rho_h_count": 2, "rho_d": 0.5,
              "epsilon": 0.2, "rounds": 4, "repetitions": 2, "master_seed": 9,
              "fresh_network_per_repetition": False}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({**record, key: value}))
    assert run_cli("sweep", str(cfg), "--out-prefix", str(tmp_path / "p")) == 2
    captured = capsys.readouterr()
    assert "invalid sweep config" in captured.err
    assert repr(key) in captured.err
    assert "effective-config" not in captured.out


def test_sweep_rejects_p_greedy_for_greedy_rule(tmp_path, capsys):
    # p_greedy belongs to the noisy rule only; it must not vanish silently
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"network": "torus", "width": 5, "height": 5,
                               "e_h_count": 2, "rho_h_count": 2, "rho_d": 0.5,
                               "epsilon": 0.2, "rounds": 4, "repetitions": 2,
                               "master_seed": 9, "rule": "main-greedy", "p_greedy": 0.3}))
    assert run_cli("sweep", str(cfg), "--out-prefix", str(tmp_path / "p")) == 2
    captured = capsys.readouterr()
    assert "p_greedy is only meaningful for the noisy rule" in captured.err
    assert "effective-config" not in captured.out


@pytest.mark.parametrize("workers", ["-3", "0"])
def test_sweep_rejects_non_positive_workers(tmp_path, capsys, workers):
    # -3 used to run serially and record "workers": -3
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"network": "torus", "width": 5, "height": 5,
                               "e_h_count": 2, "rho_h_count": 2, "rho_d": 0.5,
                               "epsilon": 0.2, "rounds": 4, "repetitions": 2,
                               "master_seed": 9}))
    assert run_cli("sweep", str(cfg), "--out-prefix", str(tmp_path / "p"),
                   "--workers", workers) == 2
    captured = capsys.readouterr()
    assert "--workers must be positive" in captured.err
    assert "effective-config" not in captured.out


SIMULATE = ("simulate", "--torus", "5", "5", *MAIN_FLAGS, "--rounds", "3")
SWEEP_CONFIG = {"network": "torus", "width": 5, "height": 5, "e_h_count": 2, "rho_h_count": 2,
                "rho_d": 0.5, "epsilon": 0.2, "rounds": 4, "repetitions": 2, "master_seed": 9}


@pytest.mark.parametrize("argv, sweep, message", [
    (SIMULATE + ("--seed", "1", "--epsilon", "0"), None, "'epsilon' must lie strictly between"),
    (SIMULATE + ("--seed", "1", "--epsilon", "1.5"), None, "'epsilon' must lie strictly between"),
    (SIMULATE + ("--seed", "1", "--rounds", "-1"), None, "--rounds must be non-negative, got -1"),
    (SIMULATE + ("--seed", "-1"), None, "--seed must be non-negative, got -1"),
    (("generate", "--regular", "20", "3", "--seed", "-1", "--out", "/dev/null"), None,
     "--seed must be non-negative, got -1"),
    (("verify", "oracle", "--seed", "-1", "--instances", "2"), None,
     "--seed must be non-negative, got -1"),
    (("--out-prefix", "{tmp}/p"), {"rho_d": 0}, "rho_d must be positive, got 0.0"),
    (("--out-prefix", "{tmp}/p"), {"master_seed": -1},
     "'master_seed' must be non-negative, got -1"),
    (SIMULATE + ("--seed", "1", "--out", "{tmp}/missing/t.csv"), None,
     "cannot write {tmp}/missing/t.csv: no directory {tmp}/missing"),
    (("--out-prefix", "{tmp}/missing/p"), {}, "cannot write {tmp}/missing/p: no directory"),
    (("verify", "oracle", "--seed", "1", "--instances", "2", "--out", "{tmp}/missing/r.csv"),
     None, "cannot write {tmp}/missing/r.csv: no directory {tmp}/missing"),
    (("generate", "--torus", "5", "5", "--out", "{tmp}/missing/g.edges"), None,
     "cannot write {tmp}/missing/g.edges: no directory {tmp}/missing"),
    (("verify", "oscillation", "--seed", "1", "--instances", "7"), None,
     "--instances does not apply to oscillation, which always runs its two instances "
     "K(3, 7) and K(5, 11)"),
], ids=["simulate-epsilon-zero", "simulate-epsilon-above-one", "simulate-negative-rounds",
        "simulate-negative-seed", "generate-negative-seed", "verify-negative-seed",
        "sweep-rho-d-zero", "sweep-negative-master-seed", "simulate-missing-out-dir",
        "sweep-missing-out-dir", "verify-missing-out-dir", "generate-missing-out-dir",
        "verify-oscillation-instances"])
def test_rejects_input_before_effective_config(tmp_path, capsys, argv, sweep, message):
    # each of these used to print effective-config and fail only inside the run
    if sweep is not None:
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({**SWEEP_CONFIG, **sweep}))
        argv = ("sweep", str(cfg)) + argv
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 2
    captured = capsys.readouterr()
    assert message.format(tmp=tmp_path) in captured.err
    assert "effective-config" not in captured.out


def test_verify_single_suite(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = run_cli("verify", "oracle", "--seed", "23", "--instances", "40",
                   "--out", str(report))
    assert code == 0
    assert "suite oracle: 40/40 passed" in capsys.readouterr().out
    lines = report.read_text().splitlines()
    assert len(lines) == 40
    assert lines[0].startswith("oracle,0,pass,")


def test_verify_failure_exits_one(monkeypatch, capsys):
    import peerpressure.cli as cli

    fake = {"oracle": lambda seed, instances: [InstanceOutcome(0, False, "rigged")]}
    monkeypatch.setattr(cli, "SUITES", fake)
    assert run_cli("verify", "oracle", "--seed", "0") == 1
    captured = capsys.readouterr()
    assert "suite oracle: 0/1 passed" in captured.out
    assert "verification FAILED" in captured.err


@pytest.mark.parametrize("instances", ["-3", "0"])
def test_verify_rejects_non_positive_instances(instances, capsys):
    # a negative count used to print "0/0 passed" and exit 0; zero fell
    # back to the suite default
    assert run_cli("verify", "oracle", "--seed", "1", "--instances", instances) == 2
    captured = capsys.readouterr()
    assert "--instances must be positive" in captured.err
    assert "passed" not in captured.out


def test_verify_all_runs_the_reduction_suite_once(monkeypatch, tmp_path, capsys):
    import peerpressure.suites as suites

    suites._reduction_outcomes.cache_clear()
    calls = []
    original = suites.reduction_suite

    def counted(seed, instances):
        calls.append((seed, instances))
        return original(seed, instances)

    monkeypatch.setattr(suites, "reduction_suite", counted)
    report = tmp_path / "report.txt"
    assert run_cli("verify", "all", "--seed", "3", "--instances", "4",
                   "--out", str(report)) == 0
    assert calls == [(3, 4)]
    stdout = capsys.readouterr().out
    assert "suite reduction: 4/4 passed" in stdout
    assert "suite extinction: 4/4 passed" in stdout
    assert "suite oscillation: 2/2 passed" in stdout


def test_verify_reduction_runs_each_trajectory_once(monkeypatch, capsys):
    # one two-order run and one collapsed main run per instance
    import peerpressure.analysis as analysis
    import peerpressure.suites as suites

    suites._reduction_outcomes.cache_clear()
    calls = []
    original = suites.run

    def counted(*args, **kwargs):
        calls.append(args[3].kind.value)
        return original(*args, **kwargs)

    monkeypatch.setattr(suites, "run", counted)
    monkeypatch.setattr(analysis, "run", counted)
    assert run_cli("verify", "reduction", "--seed", "3", "--instances", "4") == 0
    assert "suite reduction: 4/4 passed" in capsys.readouterr().out
    assert len(calls) == 8
    assert calls.count("two-order-greedy") == 4


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        run_cli("verify", "nonsense", "--seed", "0")


def test_effective_config_is_sorted_json(capsys):
    run_cli("generate", "--torus", "3", "3", "--out", "/dev/null")
    line = capsys.readouterr().out.splitlines()[0]
    payload = line.split(": ", 1)[1]
    record = json.loads(payload)
    assert json.dumps(record, sort_keys=True) == payload
