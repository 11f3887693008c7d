"""Seed derivation, single runs, sweeps, and output formats."""

from dataclasses import fields

import numpy as np
import pytest

from peerpressure import (
    MainParams,
    NetworkSpec,
    PhaseDiagram,
    RuleKind,
    SweepSpec,
    UpdateRule,
    derived_seed,
    format_sweep_csv,
    render_ppm,
    run_sweep,
    run_time_evolution,
)


class TestNetworkSpec:
    def test_torus_spec(self):
        spec = NetworkSpec(kind="torus", width=4, height=5)
        g = spec.build()
        assert g.vertex_count == 20
        assert spec.label() == "torus:4x5"

    def test_regular_spec_needs_seed(self):
        spec = NetworkSpec(kind="regular", n=20, degree=3)
        with pytest.raises(ValueError, match="seed"):
            spec.build()
        g = spec.build(5)
        assert set(g.degrees.tolist()) == {3}
        assert spec.label() == "regular:n=20,d=3"

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(kind="torus", width=2, height=5)
        with pytest.raises(ValueError):
            NetworkSpec(kind="regular", n=3, degree=3)
        with pytest.raises(ValueError):
            NetworkSpec(kind="ring")

    @pytest.mark.parametrize("kwargs,key", [
        ({"kind": "torus", "width": 4, "height": 5, "n": 7}, "n"),
        ({"kind": "torus", "width": 4, "height": 5, "degree": 3}, "degree"),
        ({"kind": "regular", "n": 20, "degree": 3, "width": 4}, "width"),
        ({"kind": "regular", "n": 20, "degree": 3, "height": -1}, "height"),
    ])
    def test_rejects_keys_the_kind_ignores(self, kwargs, key):
        # a torus with "n": 7 used to run the torus and echo the 7
        with pytest.raises(ValueError, match=f"does not use '{key}'"):
            NetworkSpec(**kwargs)

    @pytest.mark.parametrize("network,key", [
        ({"network": "torus", "width": 5, "height": 5, "n": 7, "degree": 3}, "n"),
        ({"network": "regular", "n": 12, "degree": 3, "width": 4, "height": 4}, "width"),
    ])
    def test_sweep_rejects_keys_the_kind_ignores(self, network, key, tmp_path, capsys):
        import json

        from peerpressure.cli import main

        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({**network, "e_h_count": 1, "rho_h_count": 1,
                                   "rho_d": 0.5, "epsilon": 0.2, "rounds": 2,
                                   "repetitions": 1, "master_seed": 9}))
        assert main(["sweep", str(cfg), "--out-prefix", str(tmp_path / "p")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid sweep config: ")
        assert f"does not use {key!r}" in captured.err
        assert "effective-config" not in captured.out


def test_rule_from_name():
    # rule names are the RuleKind values, in code and in sweep records
    assert UpdateRule(RuleKind("main-no-hypocrisy")) == UpdateRule.main_no_hypocrisy()
    assert UpdateRule(RuleKind("two-order-greedy")) == UpdateRule.two_order_greedy()

    def from_record(**fields):
        return SweepSpec.from_dict({**_tiny_spec().to_dict(), **fields}).rule

    assert from_record(rule="main-greedy") == UpdateRule.main_greedy()
    assert from_record(rule="main-noisy") == UpdateRule.main_noisy(0.95)
    assert from_record(rule="main-noisy", p_greedy=0.8) == UpdateRule.main_noisy(0.8)
    with pytest.raises(ValueError, match="bogus"):
        from_record(rule="bogus")
    with pytest.raises(ValueError, match="main-model"):
        from_record(rule="two-order-greedy")
    with pytest.raises(ValueError, match="p_greedy is only meaningful"):
        from_record(rule="main-greedy", p_greedy=0.3)


def test_derived_seed_paths_are_distinct_and_stable():
    a = np.random.default_rng(derived_seed(5, 1)).random(3)
    b = np.random.default_rng(derived_seed(5, 1)).random(3)
    c = np.random.default_rng(derived_seed(5, 2)).random(3)
    d = np.random.default_rng(derived_seed(6, 1)).random(3)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    assert a.tolist() != d.tolist()


class TestRunTimeEvolution:
    def test_deterministic_per_seed(self, grid_params):
        spec = NetworkSpec(kind="torus", width=6, height=6)
        _, t1 = run_time_evolution(spec, grid_params, 0.1,
                                   UpdateRule.main_greedy(), 3, 10)
        _, t2 = run_time_evolution(spec, grid_params, 0.1,
                                   UpdateRule.main_greedy(), 3, 10)
        assert np.array_equal(t1.counts, t2.counts)

    def test_fresh_graph_per_seed(self, grid_params):
        spec = NetworkSpec(kind="regular", n=24, degree=3)
        g1, _ = run_time_evolution(spec, grid_params, 0.1,
                                   UpdateRule.main_greedy(), 0, 1)
        g2, _ = run_time_evolution(spec, grid_params, 0.1,
                                   UpdateRule.main_greedy(), 1, 1)
        assert g1.edges() != g2.edges()

    def test_prebuilt_network_is_reused(self, torus5, grid_params):
        net, trace = run_time_evolution(torus5, grid_params, 0.1,
                                        UpdateRule.main_greedy(), 2, 5)
        assert net is torus5
        assert trace.rounds == 5

    def test_rule_selects_initial_mix(self, torus5, grid_params):
        _, trace = run_time_evolution(torus5, grid_params, 0.3,
                                      UpdateRule.main_no_hypocrisy(), 4, 3)
        assert trace.counts[0, 1] == 0  # no hypocrites in a binary start

    def test_noisy_smoke(self, grid_params):
        # relaxed revision keeps running and conserves players
        spec = NetworkSpec(kind="torus", width=8, height=8)
        _, trace = run_time_evolution(spec, grid_params, 0.05,
                                      UpdateRule.main_noisy(0.95), 11, 30)
        assert (trace.counts.sum(axis=1) == 64).all()
        assert trace.rounds == 30


def _tiny_spec(**overrides):
    base = dict(network=NetworkSpec(kind="torus", width=5, height=5),
                e_h_count=3, rho_h_count=3, rho_d=0.5, epsilon=0.2, rounds=5,
                repetitions=2, rule=UpdateRule.main_greedy(), master_seed=7)
    base.update(overrides)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_axes_are_inclusive_linspaces(self):
        spec = _tiny_spec(e_h_min=0.2, e_h_max=0.8, rho_h_min=0.1, rho_h_max=0.4)
        assert np.allclose(spec.e_h_values(), [0.2, 0.5, 0.8])
        assert spec.e_h_values()[0] == 0.2 and spec.e_h_values()[-1] == 0.8
        assert np.allclose(spec.rho_h_values(), [0.1, 0.25, 0.4])

    def test_rho_h_axis_defaults_to_rho_d(self):
        assert _tiny_spec().rho_h_values().tolist() == [0.0, 0.25, 0.5]

    def test_validation(self):
        with pytest.raises(ValueError, match="axis counts"):
            _tiny_spec(e_h_count=0)
        with pytest.raises(ValueError, match="rounds and repetitions"):
            _tiny_spec(rounds=0)
        with pytest.raises(ValueError, match="main-model"):
            _tiny_spec(rule=UpdateRule.two_order_greedy())
        with pytest.raises(ValueError, match="e_h range"):
            _tiny_spec(e_h_min=0.9, e_h_max=0.2)
        with pytest.raises(ValueError, match="rho_h range"):
            _tiny_spec(rho_h_max=0.9)  # beyond rho_d
        with pytest.raises(ValueError, match="sampled"):
            _tiny_spec(fresh_network_per_repetition=True)

    def test_dict_round_trip(self):
        # to_dict resolves the implicit rho_h_max to rho_d, so the round
        # trip is canonical rather than field-identical
        spec = _tiny_spec(e_h_min=0.1, e_h_max=0.9)
        back = SweepSpec.from_dict(spec.to_dict())
        assert back.to_dict() == spec.to_dict()
        assert back.e_h_values().tolist() == spec.e_h_values().tolist()
        assert back.rho_h_values().tolist() == spec.rho_h_values().tolist()

    def test_dict_round_trip_explicit_max(self):
        spec = _tiny_spec(rho_h_max=0.4)
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_dict_round_trip_noisy_rule(self):
        spec = _tiny_spec(rule=UpdateRule.main_noisy(0.9), rho_h_max=0.5)
        record = spec.to_dict()
        assert record["p_greedy"] == 0.9
        assert SweepSpec.from_dict(record) == spec

    def test_dict_round_trip_every_field(self):
        # a field that to_dict or from_dict drops comes back as its default
        spec = SweepSpec(network=NetworkSpec(kind="regular", n=12, degree=3),
                         e_h_count=4, rho_h_count=2, rho_d=0.6, epsilon=0.3, rounds=6,
                         repetitions=3, rule=UpdateRule.main_noisy(0.8), master_seed=11,
                         e_h_min=0.1, e_h_max=0.9, rho_h_min=0.05, rho_h_max=0.4,
                         fresh_network_per_repetition=True)
        assert all(getattr(spec, f.name) != f.default for f in fields(SweepSpec))
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        record = _tiny_spec().to_dict()
        record["typo"] = 1
        with pytest.raises(ValueError, match="unknown sweep keys"):
            SweepSpec.from_dict(record)

    @pytest.mark.parametrize("dropped", [("network",), ("rounds",),
                                         ("rho_d", "master_seed", "network")],
                             ids=["network", "rounds", "three"])
    def test_missing_keys_are_named(self, dropped, tmp_path, capsys):
        import json

        from peerpressure.cli import main

        record = {key: value for key, value in _tiny_spec().to_dict().items()
                  if key not in dropped}
        want = f"missing sweep keys {[f.name for f in fields(SweepSpec) if f.name in dropped]}"
        with pytest.raises(ValueError) as raised:
            SweepSpec.from_dict(record)
        assert str(raised.value) == want
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(record))
        assert main(["sweep", str(cfg), "--out-prefix", str(tmp_path / "p")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid sweep config: {want}\n"
        assert "effective-config" not in captured.out


class TestPhaseDiagram:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            PhaseDiagram(np.zeros(2), np.zeros(2), np.zeros((2, 3, 3)))

    def test_fraction_sum_validation(self):
        bad = np.full((1, 1, 3), 0.5)
        with pytest.raises(ValueError, match="sum to 1"):
            PhaseDiagram(np.zeros(1), np.zeros(1), bad)


class TestRunSweep:
    def test_fractions_are_normalised(self):
        diagram = run_sweep(_tiny_spec(), workers=1)
        assert diagram.fractions.shape == (3, 3, 3)
        assert np.allclose(diagram.fractions.sum(axis=2), 1.0)

    def test_reruns_are_byte_identical(self):
        a = format_sweep_csv(run_sweep(_tiny_spec(), workers=1))
        b = format_sweep_csv(run_sweep(_tiny_spec(), workers=1))
        assert a == b

    def test_fresh_networks_per_repetition(self):
        spec = _tiny_spec(network=NetworkSpec(kind="regular", n=16, degree=3),
                          e_h_count=1, rho_h_count=1, repetitions=2,
                          fresh_network_per_repetition=True)
        diagram = run_sweep(spec, workers=1)
        assert np.allclose(diagram.fractions.sum(axis=2), 1.0)


    def test_failing_cell_leaves_no_worker_behind(self):
        # no connected 1-regular graph on 4 vertices exists, so every
        # worker's first cell raises while building the shared network
        import multiprocessing

        from peerpressure import GenerationError

        spec = _tiny_spec(network=NetworkSpec(kind="regular", n=4, degree=1),
                          e_h_count=2, rho_h_count=2, rounds=1, repetitions=1)
        with pytest.raises(GenerationError):
            run_sweep(spec, workers=2)
        assert multiprocessing.active_children() == []

    def test_pool_gets_at_most_one_worker_per_cell(self, monkeypatch, tmp_path, capsys):
        # a fork pool starts every worker at the first submit, so a small grid
        # must not ask for more workers than it has cells; the stub maps
        # in-process and records what the pool was asked for
        import concurrent.futures
        import json

        from peerpressure.cli import main

        requested = []

        class InProcessPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        spec = _tiny_spec(e_h_count=2, rho_h_count=2)
        want = format_sweep_csv(run_sweep(spec, workers=1))
        assert requested == []
        for workers, pool in [(2, 2), (3, 3), (4, 4), (64, 4)]:
            requested.clear()
            assert format_sweep_csv(run_sweep(spec, workers=workers)) == want
            assert requested == [pool], workers
        # a single cell runs in this process, without a pool
        requested.clear()
        run_sweep(_tiny_spec(e_h_count=1, rho_h_count=1), workers=8)
        assert requested == []
        # the effective config keeps the requested count
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(spec.to_dict()))
        requested.clear()
        assert main(["sweep", str(cfg), "--out-prefix", str(tmp_path / "p"),
                     "--workers", "9"]) == 0
        assert requested == [4]
        assert '"workers": 9' in capsys.readouterr().out


class TestOutputFormats:
    def test_csv_header_and_round_trip(self):
        diagram = run_sweep(_tiny_spec(), workers=1)
        text = format_sweep_csv(diagram)
        lines = text.strip().split("\n")
        assert lines[0] == "e_h,rho_h,frac_defector,frac_hypocritical,frac_cooperator"
        assert len(lines) == 1 + 9
        # repr floats parse back exactly
        row = lines[1].split(",")
        assert float(row[0]) == diagram.e_h_values[0]
        assert float(row[2]) == diagram.fractions[0, 0, 0]

    def test_ppm_single_cell(self):
        diagram = PhaseDiagram(np.array([0.0]), np.array([0.0]),
                               np.array([[[0.5, 0.25, 0.25]]]))
        assert render_ppm(diagram) == (
            "P3\n"
            "# rows: rho_h ascending top to bottom; columns: e_h ascending left to right\n"
            "# red=defector green=cooperator blue=hypocritical\n"
            "1 1\n"
            "255\n"
            "128 64 64\n")

    def test_ppm_dimensions(self):
        diagram = run_sweep(_tiny_spec(e_h_count=4, rho_h_count=2), workers=1)
        lines = render_ppm(diagram).strip().split("\n")
        assert lines[3] == "4 2"
        assert len(lines) == 5 + 2  # header plus one line per rho_h row
        assert all(len(line.split()) == 3 * 4 for line in lines[5:])
