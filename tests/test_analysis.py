"""Checkers, the bound audit, and the naive reference stepper."""

import numpy as np
import pytest

from peerpressure import (
    Behavior,
    CheckRefused,
    MainParams,
    Network,
    PresetDraws,
    TwoOrderParams,
    UpdateRule,
    audit_convergence_bound,
    build_torus_grid,
    check_contagion,
    check_reduction_equivalence,
    compute_metrics,
    convergence_round,
    neighborhood,
    reference_step,
    run,
    step,
)
from peerpressure.dynamics import Trace, Termination

from conftest import table_for

D, H, C, PC = 0, 1, 2, 3


def _trace_from_counts(rows, params=None, rule=None):
    return Trace(counts=np.array(rows, dtype=np.int64), termination=Termination.MAX_ROUNDS,
                 rule=rule or UpdateRule.main_greedy(),
                 params=params or MainParams(0.1, 0.23, 0.45))


class TestConvergenceRound:
    def test_none_when_final_round_not_all_cooperator(self):
        assert convergence_round(_trace_from_counts([[3, 0, 0], [0, 3, 0]])) is None

    def test_zero_when_initially_converged(self):
        assert convergence_round(_trace_from_counts([[0, 0, 3], [0, 0, 3]])) == 0

    def test_first_sustained_round(self):
        rows = [[3, 0, 0], [1, 1, 1], [0, 0, 3], [0, 0, 3]]
        assert convergence_round(_trace_from_counts(rows)) == 2

    def test_transient_visit_does_not_count(self):
        rows = [[3, 0, 0], [0, 0, 3], [1, 1, 1], [0, 0, 3]]
        assert convergence_round(_trace_from_counts(rows)) == 3


def test_neighborhood_is_union_of_neighbor_sets(path3):
    def grown(*chosen):
        result = neighborhood(path3, np.array(chosen))
        assert result.dtype == bool
        return result.tolist()

    assert grown(True, False, False) == [False, True, False]
    assert grown(False, True, False) == [True, False, True]
    assert grown(True, False, True) == [False, True, False]
    assert grown(False, False, False) == [False, False, False]

    # a (T, n) stack is judged row by row
    stack = np.random.default_rng(5).random((6, 3)) < 0.5
    assert neighborhood(path3, stack).tolist() == [
        [any(row[v] for v in path3.neighbors(u)) for u in range(3)] for row in stack]
    # an isolated last vertex has an empty neighbour row: never reached
    tail = Network.from_edges(4, [(0, 1), (1, 2)])
    assert neighborhood(tail, np.ones(4, dtype=bool)).tolist() == [True, True, True, False]
    assert neighborhood(tail, np.array([[False, True, False, True],
                                        [False, False, True, False]])).tolist() == [
        [True, False, True, False], [False, True, False, False]]


class TestContagionCheck:
    def setup_method(self):
        self.g = Network.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        self.params = MainParams(e_h=0.1, rho_h=0.3, rho_d=0.9)

    def test_refuses_outside_regime(self):
        with pytest.raises(CheckRefused, match="e_h \\+ rho_h < rho_d"):
            check_contagion(self.g, np.zeros(4, dtype=np.int8), np.zeros(4, dtype=np.int8),
                            MainParams(e_h=0.5, rho_h=0.5, rho_d=0.9))

    def test_refuses_free_hypocrisy(self):
        with pytest.raises(CheckRefused, match="e_h > 0"):
            check_contagion(self.g, np.zeros(4, dtype=np.int8), np.zeros(4, dtype=np.int8),
                            MainParams(e_h=0.0, rho_h=0.3, rho_d=0.9))

    def test_refuses_two_order_codes(self):
        before = np.array([PC, 0, 0, 0], dtype=np.int8)
        with pytest.raises(CheckRefused, match="main-model"):
            check_contagion(self.g, before, np.zeros(4, dtype=np.int8), self.params)

    @pytest.mark.parametrize("before, match", [
        ([258, D, D, D], "main-model"),  # int8 reads 2
        ([-255, D, D, D], "negative"),  # int8 reads 1
        ([1.7, D, D, D], "integers"),  # int8 reads 1
    ], ids=["int64-258", "int64-minus-255", "float-1.7"])
    def test_checks_codes_before_the_cast(self, before, match):
        # a cast first would read 258 as a cooperator at vertex 0, whose
        # neighbourhood [D, C, D, C] is, and pass the check
        after = np.array([D, C, D, C])
        with pytest.raises(ValueError, match=match):
            check_contagion(self.g, np.array(before), after, self.params)
        with pytest.raises(ValueError, match=match):
            check_contagion(self.g, after, np.array(before), self.params)

    @pytest.mark.parametrize("before, after, match", [
        ([H, D, D, D, D], [D, H, D, H], "do not match n=4"),
        ([H, D, D], [D, H, D, H], "do not match n=4"),
        ([H, D, D, D], [D, H, D, H, D], "do not match n=4"),
        ([[H, D, D, D], [D, H, D, H]], [[D, H, D, H]], "do not match n=4"),
        ([[H, D, D, D, D]], [[D, H, D, H, D]], "do not match n=4"),
        ([[H, D, D, D]], [D, H, D, H], "do not match n=4"),
        ([[[H, D, D, D]]], [[[D, H, D, H]]], "do not match n=4"),
        ([-1, D, D, D], [D, -5, D, H], "negative"),
        ([[H, D, D, D]], [[D, H, D, -1]], "negative"),
    ], ids=["long-before", "short-before", "long-after", "stack-rows", "stack-width",
            "stack-against-one", "stack-of-stacks", "negative-both", "negative-after"])
    def test_rejects_wrong_length(self, before, after, match):
        # these used to pass: the check compared vertex sets, not masks of
        # length n, and bounded behaviour codes only from above
        with pytest.raises(ValueError, match=match):
            check_contagion(self.g, np.array(before, dtype=np.int8),
                            np.array(after, dtype=np.int8), self.params)

    def test_accepts_exact_neighborhood_growth(self):
        before = np.array([H, D, D, D], dtype=np.int8)
        table = table_for(self.g, self.params, UpdateRule.main_greedy())
        after = step(self.g, before, table, np.random.default_rng(0))
        assert check_contagion(self.g, before, after, self.params)

    def test_rejects_tampered_step(self):
        before = np.array([H, D, D, D], dtype=np.int8)
        bad = np.array([H, H, H, H], dtype=np.int8)  # vertex 2 is not a neighbour of 0
        assert not check_contagion(self.g, before, bad, self.params)

    def test_judges_every_round_of_a_trace(self, torus5):
        params = MainParams(e_h=0.1, rho_h=0.23, rho_d=0.45)
        init = np.zeros(25, dtype=np.int8)
        init[0] = H
        trace = run(torus5, init, params, UpdateRule.main_greedy(),
                    np.random.default_rng(0), max_rounds=6, record_snapshots=True)
        snaps = trace.snapshots
        assert check_contagion(torus5, snaps[:-1], snaps[1:], params)
        # one player flipped in a middle row breaks the identity of two rounds
        tampered = snaps.copy()
        tampered[3, 12] = D if tampered[3, 12] != D else C
        assert not check_contagion(torus5, tampered[:-1], tampered[1:], params)

    def test_refuses_empty_stack(self):
        empty = np.zeros((0, 4), dtype=np.int8)
        with pytest.raises(CheckRefused, match="at least one round"):
            check_contagion(self.g, empty, empty, self.params)


class TestBoundAudit:
    def _window_params(self):
        # min_degree 2: (1-0.1)/2 = 0.45 < rho_h < rho_d - 0.1
        return MainParams(e_h=0.1, rho_h=0.6, rho_d=0.9)

    def test_refuses_wrong_rule(self, cycle6):
        metrics = compute_metrics(cycle6)
        init = np.zeros(6, dtype=np.int8)
        init[0] = H
        trace = run(cycle6, init, self._window_params(), UpdateRule.main_noisy(0.9),
                    np.random.default_rng(0), max_rounds=4)
        with pytest.raises(CheckRefused, match="greedy"):
            audit_convergence_bound(metrics, trace, init)

    def test_refuses_outside_window(self, cycle6):
        metrics = compute_metrics(cycle6)
        params = MainParams(e_h=0.1, rho_h=0.2, rho_d=0.9)
        init = np.zeros(6, dtype=np.int8)
        trace = run(cycle6, init, params, UpdateRule.main_greedy(),
                    np.random.default_rng(0), max_rounds=4)
        with pytest.raises(CheckRefused, match="window"):
            audit_convergence_bound(metrics, trace, init)

    def test_bipartite_needs_both_sides(self, cycle6):
        # a single seeded vertex leaves one class empty: bound inapplicable
        metrics = compute_metrics(cycle6)
        init = np.zeros(6, dtype=np.int8)
        init[0] = H
        trace = run(cycle6, init, self._window_params(), UpdateRule.main_greedy(),
                    np.random.default_rng(0), max_rounds=10)
        audit = audit_convergence_bound(metrics, trace, init)
        assert not audit.bound_applicable
        assert audit.bound == metrics.diameter + 1

    def test_bipartite_bound_holds_when_both_sides_seeded(self, cycle6):
        metrics = compute_metrics(cycle6)
        init = np.zeros(6, dtype=np.int8)
        init[0] = H
        init[1] = C
        trace = run(cycle6, init, self._window_params(), UpdateRule.main_greedy(),
                    np.random.default_rng(0), max_rounds=metrics.diameter + 1)
        audit = audit_convergence_bound(metrics, trace, init)
        assert audit.bound_applicable
        assert audit.satisfied
        assert audit.converged_round <= metrics.diameter + 1

    @pytest.mark.parametrize("code", [257, 256, 1.5])
    def test_reads_codes_before_the_cast(self, code):
        # an int8 cast read 257 at vertex 0 as a hypocrite, which seeded the
        # second side of the bipartite torus and made the bound apply, and
        # 256 as a defector
        torus = build_torus_grid(4, 4)
        metrics = compute_metrics(torus)
        init = np.zeros(16, dtype=np.int64)
        init[1] = H
        trace = run(torus, init, MainParams(0.1, 0.23, 0.45), UpdateRule.main_greedy(),
                    np.random.default_rng(0), max_rounds=4)
        assert not audit_convergence_bound(metrics, trace, init).bound_applicable
        tampered = init.astype(type(code))
        tampered[0] = code
        with pytest.raises(ValueError, match="round 0"):
            audit_convergence_bound(metrics, trace, tampered)
        with pytest.raises(ValueError, match="shape"):
            audit_convergence_bound(metrics, trace, init[:-1])

    def test_non_bipartite_bound(self, torus5):
        metrics = compute_metrics(torus5)
        params = MainParams(e_h=0.1, rho_h=0.3, rho_d=0.6)  # window for degree 4
        init = np.zeros(25, dtype=np.int8)
        init[7] = C
        bound = 3 * metrics.diameter + 1
        trace = run(torus5, init, params, UpdateRule.main_greedy(),
                    np.random.default_rng(0), max_rounds=bound)
        audit = audit_convergence_bound(metrics, trace, init)
        assert audit.bound == bound
        assert audit.bound_applicable and audit.satisfied

    def test_report_line_format(self, torus5):
        metrics = compute_metrics(torus5)
        params = MainParams(e_h=0.1, rho_h=0.3, rho_d=0.6)
        init = np.zeros(25, dtype=np.int8)
        trace = run(torus5, init, params, UpdateRule.main_greedy(),
                    np.random.default_rng(0), max_rounds=3)
        audit = audit_convergence_bound(metrics, trace, init)
        # all-defector start never moves: inapplicable, no convergence round
        assert audit.report_line(7) == "7,false,13,,false"


class TestReductionCheck:
    PARAMS = TwoOrderParams(alpha1=0.9, alpha2=0.1, beta1=0.23, beta2=0.22)

    def _two_order_trace(self, network, params, seed, rounds=12):
        init = np.random.default_rng(12).integers(0, 4, size=network.vertex_count)
        return run(network, init.astype(np.int8), params, UpdateRule.two_order_greedy(),
                   np.random.default_rng(seed), max_rounds=rounds, record_snapshots=True)

    def test_refuses_when_punishing_is_dear(self, triangle):
        params = TwoOrderParams(alpha1=1.0, alpha2=2.0, beta1=1.0, beta2=1.0)
        trace = self._two_order_trace(triangle, params, seed=0, rounds=5)
        with pytest.raises(CheckRefused, match="alpha2 < beta2"):
            check_reduction_equivalence(triangle, trace, seed=0)

    def test_refuses_trace_without_snapshots(self, torus5):
        trace = run(torus5, np.zeros(25, dtype=np.int8), self.PARAMS,
                    UpdateRule.two_order_greedy(), np.random.default_rng(8), max_rounds=3)
        with pytest.raises(CheckRefused, match="snapshots"):
            check_reduction_equivalence(torus5, trace, seed=8)

    def test_refuses_main_rule_trace(self, torus5):
        trace = run(torus5, np.zeros(25, dtype=np.int8), MainParams(0.1, 0.23, 0.45),
                    UpdateRule.main_greedy(), np.random.default_rng(8), max_rounds=3,
                    record_snapshots=True)
        with pytest.raises(CheckRefused, match="two-order greedy trace"):
            check_reduction_equivalence(torus5, trace, seed=8)

    def test_equivalence_on_mixed_start(self, torus5):
        trace = self._two_order_trace(torus5, self.PARAMS, seed=8)
        assert check_reduction_equivalence(torus5, trace, seed=8)

    def test_rejects_tampered_snapshot(self, torus5):
        # the check must be able to fail: flip one player after round 0
        trace = self._two_order_trace(torus5, self.PARAMS, seed=8)
        tampered = trace.snapshots[5]
        tampered[3] = D if tampered[3] != D else C
        assert not check_reduction_equivalence(torus5, trace, seed=8)

    def test_compares_collapsed_rows(self, torus5):
        # a private cooperator in place of a defector collapses onto the
        # same main-model row, so the equivalence still holds
        trace = self._two_order_trace(torus5, self.PARAMS, seed=8)
        later = trace.snapshots[1:]
        assert not (later == PC).any() and (later == D).any()
        later[later == D] = PC
        assert check_reduction_equivalence(torus5, trace, seed=8)


class TestPresetDraws:
    def test_values_are_positional(self):
        draws = PresetDraws([0.1, 0.5, 0.9])
        assert draws.random(2).tolist() == [0.1, 0.5]
        assert draws.random(1).tolist() == [0.9]
        with pytest.raises(ValueError, match="exhausted"):
            draws.random(1)


class TestReferenceStep:
    def test_validates_lengths(self, triangle, grid_params):
        with pytest.raises(ValueError, match="length"):
            reference_step(triangle, [0, 0], grid_params, [0.5, 0.5, 0.5],
                           UpdateRule.main_greedy())
        # e_h = 0 ties H and D at k = 0: all three players need a draw
        ties_at_zero = MainParams(e_h=0.0, rho_h=0.5, rho_d=1.0)
        with pytest.raises(ValueError, match="too few draws"):
            reference_step(triangle, [0, 0, 0], ties_at_zero, [0.5, 0.5],
                           UpdateRule.main_greedy())

    def test_noisy_rule_takes_noise_draws_first(self):
        # e_h = 0 ties H and D at k = 0. Noise 0.2 keeps player 0 greedy, and
        # its tie takes the draw after both noise draws: 0.25 gives H. Noise
        # 0.6 > 0.5 rescales to 0.2, the first third of (C, H, D)
        g = Network.from_edges(2, [(0, 1)])
        params = MainParams(e_h=0.0, rho_h=0.5, rho_d=1.0)
        config = np.zeros(2, dtype=np.int8)
        values = [0.2, 0.6, 0.25]
        rule = UpdateRule.main_noisy(0.5)
        slow = reference_step(g, config, params, values, rule)
        fast = step(g, config, table_for(g, params, rule), PresetDraws(values))
        assert fast.tolist() == slow == [H, C]
        with pytest.raises(ValueError, match="too few draws"):
            reference_step(g, config, params, values[:1], rule)

    def test_two_order_rule_takes_private_cooperators(self, triangle):
        out = reference_step(triangle, [D, H, PC], TwoOrderParams(1, 1, 1, 1),
                             [0.9] * 3, UpdateRule.two_order_greedy())
        assert len(out) == 3

    def test_agrees_with_step_on_documented_tie(self):
        # 2-way tie at r=0.5 goes to the first option in both steppers
        g = Network.from_edges(2, [(0, 1)])
        params = MainParams(e_h=0.0, rho_h=0.5, rho_d=1.0)
        config = np.zeros(2, dtype=np.int8)
        values = [0.5, 0.75]
        rule = UpdateRule.main_greedy()
        fast = step(g, config, table_for(g, params, rule), PresetDraws(values))
        slow = reference_step(g, config, params, values, rule)
        assert fast.tolist() == slow == [H, D]

    def test_detects_reversed_tie_draws(self):
        # non-vacuity: a source that hands each block of draws out in
        # reverse order must make step disagree with the reference stepper
        class ReversedBlocks(PresetDraws):
            def random(self, size):
                return super().random(size)[::-1]

        g = build_torus_grid(4, 4)
        params = MainParams(e_h=0.0, rho_h=0.5, rho_d=1.0)  # all 16 tie H and D at k=0
        config = np.zeros(16, dtype=np.int8)
        values = np.random.default_rng(3).random(16)
        rule = UpdateRule.main_greedy()
        slow = reference_step(g, config, params, values, rule)
        table = table_for(g, params, rule)
        assert step(g, config, table, PresetDraws(values)).tolist() == slow
        assert step(g, config, table, ReversedBlocks(values)).tolist() != slow


def test_bound_suite_smoke():
    from peerpressure.suites import bound_suite

    outcomes = bound_suite(24, instances=15)
    assert len(outcomes) == 15
    assert all(o.passed for o in outcomes)
    # non-vacuity: every instance meets the seeding hypothesis, so each
    # pass is a satisfied bound rather than an inapplicable one
    for o in outcomes:
        _, applicable, _, _, satisfied = o.detail.split(",")
        assert (applicable, satisfied) == ("true", "true")


def test_oscillation_suite_fails_a_tampered_snapshot(monkeypatch):
    from peerpressure import suites

    def tampered_run(*args, **kwargs):
        trace = run(*args, **kwargs)
        trace.snapshots[30, -1] = C if trace.snapshots[30, -1] != C else D
        return trace

    assert all(o.passed for o in suites.oscillation_suite(0))
    monkeypatch.setattr(suites, "run", tampered_run)
    assert [o.report_line("oscillation").split(",")[2]
            for o in suites.oscillation_suite(0)] == ["FAIL", "FAIL"]


def test_suite_report_lines():
    from peerpressure.suites import InstanceOutcome

    good = InstanceOutcome(3, True, "n=5")
    bad = InstanceOutcome(4, False, "n=6")
    assert good.report_line("oracle") == "oracle,3,pass,n=5"
    assert bad.report_line("oracle") == "oracle,4,FAIL,n=6"


def test_random_gnp_builds_only_the_accepted_draw(monkeypatch):
    from peerpressure.suites import _random_gnp

    # the former loop: build every draw, keep the first connected one
    old_rng = np.random.default_rng(1)
    draws = 0
    while True:
        draws += 1
        upper = np.triu(old_rng.random((10, 10)) < 0.25, k=1)
        expected = Network.from_edges(10, np.argwhere(upper))
        if expected.is_connected():
            break
    assert draws > 1  # the seed rejects at least one draw

    # the accepted draw alone is built, through the trusted door
    trusted, validated = [], []
    door = Network._trusted.__func__
    post_init = Network.__post_init__

    def counting_door(cls, *args):
        trusted.append(door(cls, *args))
        return trusted[-1]

    def counting_post_init(self):
        validated.append(self)
        post_init(self)

    monkeypatch.setattr(Network, "_trusted", classmethod(counting_door))
    monkeypatch.setattr(Network, "__post_init__", counting_post_init)
    rng = np.random.default_rng(1)
    g = _random_gnp(rng, 10, 0.25)
    assert trusted == [g]
    assert validated == []
    assert g.edges() == expected.edges()
    # the same number of uniforms was consumed
    assert rng.random() == old_rng.random()
