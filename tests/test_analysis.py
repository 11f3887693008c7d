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

D, H, C, PC = 0, 1, 2, 3


def _trace_from_counts(rows, params=None, rule=None):
    return Trace(counts=np.array(rows, dtype=np.int64), round_reached=len(rows) - 1,
                 termination=Termination.MAX_ROUNDS,
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

    @pytest.mark.parametrize("before, after", [
        ([H, D, D, D, D], [D, H, D, H]),
        ([H, D, D], [D, H, D, H]),
        ([H, D, D, D], [D, H, D, H, D]),
    ], ids=["long-before", "short-before", "long-after"])
    def test_rejects_wrong_length(self, before, after):
        # these used to pass: the check compared vertex sets, not masks of length n
        with pytest.raises(ValueError, match="do not match n=4"):
            check_contagion(self.g, np.array(before, dtype=np.int8),
                            np.array(after, dtype=np.int8), self.params)

    def test_accepts_exact_neighborhood_growth(self):
        before = np.array([H, D, D, D], dtype=np.int8)
        after = step(self.g, before, self.params, UpdateRule.main_greedy(),
                     np.random.default_rng(0))
        assert check_contagion(self.g, before, after, self.params)

    def test_rejects_tampered_step(self):
        before = np.array([H, D, D, D], dtype=np.int8)
        bad = np.array([H, H, H, H], dtype=np.int8)  # vertex 2 is not a neighbour of 0
        assert not check_contagion(self.g, before, bad, self.params)


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

    def test_rejects_noisy_rule(self, triangle, grid_params):
        with pytest.raises(ValueError, match="greedy"):
            reference_step(triangle, [0, 0, 0], grid_params, [0.5] * 3,
                           rule=UpdateRule.main_noisy(0.9))

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
        fast = step(g, config, params, rule, PresetDraws(values))
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
        assert step(g, config, params, rule, PresetDraws(values)).tolist() == slow
        assert step(g, config, params, rule, ReversedBlocks(values)).tolist() != slow


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


def test_suite_report_lines():
    from peerpressure.suites import InstanceOutcome

    good = InstanceOutcome(3, True, "n=5")
    bad = InstanceOutcome(4, False, "n=6")
    assert good.report_line("oracle") == "oracle,3,pass,n=5"
    assert bad.report_line("oracle") == "oracle,4,FAIL,n=6"
