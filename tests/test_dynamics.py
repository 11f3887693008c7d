"""The synchronous engine: draws, ties, stepping, running, traces."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from peerpressure import (
    Behavior,
    MainParams,
    Network,
    PresetDraws,
    Termination,
    TwoOrderParams,
    UpdateRule,
    build_torus_grid,
    compute_metrics,
    convergence_round,
    decision_table,
    format_trace_csv,
    punishing_counts,
    read_edge_list,
    reference_step,
    run,
    step,
    write_edge_list,
    write_trace_csv,
)

import peerpressure.graphs
from peerpressure import dynamics
from peerpressure.analysis import convergence_bound

from conftest import table_for

D, H, C, PC = 0, 1, 2, 3


def test_generator_block_equals_singles():
    # the randomness contract relies on a block request consuming exactly
    # as much generator state as that many single requests
    a = np.random.default_rng(7)
    b = np.random.default_rng(7)
    assert a.random(6).tolist() == [b.random() for _ in range(6)]
    assert a.random() == b.random()


def test_update_rule_validation():
    with pytest.raises(ValueError):
        UpdateRule(kind=UpdateRule.main_greedy().kind, p_greedy=0.5)
    with pytest.raises(ValueError):
        UpdateRule.main_noisy(1.5)
    assert UpdateRule.main_no_hypocrisy().available == (Behavior.DEFECTOR, Behavior.COOPERATOR)
    assert len(UpdateRule.two_order_greedy().available) == 4


def test_punishing_counts(triangle):
    config = np.array([D, H, C], dtype=np.int8)
    assert punishing_counts(triangle, config).tolist() == [2, 1, 1]
    # private cooperators do not punish
    assert punishing_counts(triangle, np.array([PC, H, PC], dtype=np.int8)).tolist() == [1, 0, 1]


class TestTieConventions:
    """Exact-equality ties resolved over equal sub-intervals of [0, 1]."""

    def setup_method(self):
        self.k2 = Network.from_edges(2, [(0, 1)])

    def three_way(self, r):
        # e_h + rho_h = 1 = rho_d at k=1: all three costs are exactly 1.0
        params = MainParams(e_h=0.5, rho_h=0.5, rho_d=1.0)
        config = np.array([H, C], dtype=np.int8)
        out = step(self.k2, config, table_for(self.k2, params, UpdateRule.main_greedy()),
                   PresetDraws([r, r]))
        assert out[0] == out[1]
        return int(out[0])

    def two_way(self, r):
        # e_h=0 at k=0 ties defector and hypocrite at cost 0
        params = MainParams(e_h=0.0, rho_h=0.5, rho_d=1.0)
        config = np.zeros(2, dtype=np.int8)
        out = step(self.k2, config, table_for(self.k2, params, UpdateRule.main_greedy()),
                   PresetDraws([r, r]))
        return int(out[0])

    def test_three_way_intervals(self):
        # preference order C, H, D over [0,1/3], (1/3,2/3], (2/3,1]
        assert self.three_way(0.0) == C
        assert self.three_way(0.2) == C
        assert self.three_way(1 / 3) == C
        assert self.three_way(0.34) == H
        assert self.three_way(0.5) == H
        assert self.three_way(2 / 3) == H
        assert self.three_way(0.67) == D
        assert self.three_way(1.0) == D

    def test_two_way_midpoint_takes_first(self):
        assert self.two_way(0.0) == H
        assert self.two_way(0.5) == H
        assert self.two_way(0.50000000000001) == D
        assert self.two_way(1.0) == D


class TestStepValidation:
    """``step`` trusts its input; ``run`` validates it once per run."""

    def test_config_shape(self, triangle, grid_params):
        with pytest.raises(ValueError, match="shape"):
            run(triangle, np.zeros(4, dtype=np.int8), grid_params,
                UpdateRule.main_greedy(), np.random.default_rng(0), max_rounds=1)

    def test_codes_out_of_range_for_rule(self, triangle, grid_params):
        config = np.array([D, H, PC], dtype=np.int8)
        with pytest.raises(ValueError, match="out of range"):
            run(triangle, config, grid_params, UpdateRule.main_greedy(),
                np.random.default_rng(0), max_rounds=1)

    def test_params_must_match_rule(self, triangle, grid_params):
        two = TwoOrderParams(1, 1, 1, 1)
        with pytest.raises(ValueError, match="MainParams"):
            run(triangle, np.zeros(3, dtype=np.int8), two,
                UpdateRule.main_greedy(), np.random.default_rng(0), max_rounds=1)
        with pytest.raises(ValueError, match="TwoOrderParams"):
            run(triangle, np.zeros(3, dtype=np.int8), grid_params,
                UpdateRule.two_order_greedy(), np.random.default_rng(0), max_rounds=1)

    @pytest.mark.parametrize("config,rule", [
        (np.array([258, D, D], dtype=np.int64), UpdateRule.main_greedy()),  # int8 reads 2
        (np.array([-255, D, D], dtype=np.int64), UpdateRule.main_greedy()),  # int8 reads 1
        (np.array([1.7, D, D]), UpdateRule.main_greedy()),  # int8 reads 1
        (np.array([D, H, C], dtype=np.int8), UpdateRule.main_no_hypocrisy()),
    ], ids=["int64-258", "int64-minus-255", "float-1.7", "hypocrite-without-hypocrisy"])
    def test_codes_checked_before_the_cast(self, triangle, grid_params, config, rule):
        with pytest.raises(ValueError, match="out of range"):
            run(triangle, config, grid_params, rule, np.random.default_rng(0), max_rounds=1)

    def test_exact_codes_of_any_dtype_run(self, triangle, grid_params):
        as_int8 = run(triangle, np.array([D, H, C], dtype=np.int8), grid_params,
                      UpdateRule.main_greedy(), np.random.default_rng(0), max_rounds=2)
        for config in ([D, H, C], np.array([D, H, C], dtype=float)):
            trace = run(triangle, config, grid_params, UpdateRule.main_greedy(),
                        np.random.default_rng(0), max_rounds=2)
            assert np.array_equal(trace.counts, as_int8.counts)


def test_golden_triangle_run(triangle, grid_params):
    # one hypocrite converts everyone: cheaper than cooperating at k<=2,
    # cheaper than defecting at k>=1; all-hypocrite is then a fixed point
    init = np.array([D, H, C], dtype=np.int8)
    trace = run(triangle, init, grid_params, UpdateRule.main_greedy(),
                np.random.default_rng(0), max_rounds=5, early_stop=True)
    assert trace.counts.tolist() == [[1, 1, 1], [0, 3, 0], [0, 3, 0]]
    assert trace.termination is Termination.FIXED_POINT
    assert trace.round_reached == 1
    assert trace.n == 3 and trace.rounds == 2


def test_golden_tied_run_consumes_draws_in_index_order(path3):
    # e_h=0 makes k=0 players tie defector/hypocrite; the three round-1
    # decisions consume the stream's first three draws in vertex order
    params = MainParams(e_h=0.0, rho_h=0.5, rho_d=1.0)
    trace = run(path3, np.zeros(3, dtype=np.int8), params, UpdateRule.main_greedy(),
                np.random.default_rng(123), max_rounds=3, record_snapshots=True)
    assert [s.tolist() for s in trace.snapshots] == [
        [0, 0, 0], [0, 1, 1], [1, 1, 1], [1, 2, 1]]
    draws = np.random.default_rng(123).random(4)
    # round 1: r<=0.5 picks the hypocrite branch of the 2-way tie
    assert [r <= 0.5 for r in draws[:3]] == [False, True, True]
    # round 3: only the middle vertex ties (cooperator/hypocrite), draw 4
    assert draws[3] <= 0.5  # first tied option is cooperator


def _assert_snapshot_stack(trace, n):
    # one C-contiguous int8 array, a row per entry of counts
    assert isinstance(trace.snapshots, np.ndarray)
    assert trace.snapshots.dtype == np.int8
    assert trace.snapshots.shape == (trace.rounds + 1, n)
    assert trace.snapshots.flags.c_contiguous


class TestRun:
    def test_exact_round_count_by_default(self, torus5, grid_params):
        init = np.zeros(25, dtype=np.int8)
        init[0] = C
        trace = run(torus5, init, grid_params, UpdateRule.main_greedy(),
                    np.random.default_rng(1), max_rounds=9)
        assert trace.rounds == 9
        assert trace.termination is Termination.MAX_ROUNDS
        assert trace.round_reached == 9

    def test_zero_rounds(self, triangle, grid_params):
        trace = run(triangle, np.zeros(3, dtype=np.int8), grid_params,
                    UpdateRule.main_greedy(), np.random.default_rng(0), max_rounds=0)
        assert trace.counts.shape == (1, 3)

    def test_negative_rounds_rejected(self, triangle, grid_params):
        with pytest.raises(ValueError):
            run(triangle, np.zeros(3, dtype=np.int8), grid_params,
                UpdateRule.main_greedy(), np.random.default_rng(0), max_rounds=-1)

    def test_rejects_empty_network(self, grid_params):
        with pytest.raises(ValueError, match="non-empty"):
            run(Network.from_edges(0, []), np.zeros(0, dtype=np.int8), grid_params,
                UpdateRule.main_greedy(), np.random.default_rng(0), max_rounds=2)

    def test_requires_connected_network(self, grid_params):
        g = Network.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            run(g, np.zeros(4, dtype=np.int8), grid_params,
                UpdateRule.main_greedy(), np.random.default_rng(0), max_rounds=2)

    def test_fixed_point_detected_at_start(self, triangle):
        # window for min_degree=2: all-cooperator is absorbing
        params = MainParams(e_h=0.1, rho_h=0.5, rho_d=0.7)
        trace = run(triangle, np.full(3, C, dtype=np.int8), params,
                    UpdateRule.main_greedy(), np.random.default_rng(0),
                    max_rounds=10, early_stop=True, record_snapshots=True)
        assert trace.termination is Termination.FIXED_POINT
        assert trace.round_reached == 0
        assert trace.rounds == 1
        _assert_snapshot_stack(trace, 3)
        assert (trace.snapshots == C).all()

    def test_huge_round_budget_with_early_stop(self, torus5, grid_params):
        # rows are collected as the run steps: a budget far beyond the
        # rounds reached must not be allocated up front, not even lazily
        init = np.zeros(25, dtype=np.int8)
        init[0] = C
        tracemalloc.start()
        try:
            trace = run(torus5, init, grid_params, UpdateRule.main_greedy(),
                        np.random.default_rng(1), max_rounds=10**9, early_stop=True,
                        record_snapshots=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**26  # a row per budgeted round would be gigabytes
        assert trace.termination is Termination.FIXED_POINT
        assert trace.rounds < 50
        assert trace.counts.shape[0] == trace.rounds + 1
        _assert_snapshot_stack(trace, 25)

    def test_settled_tail_peak_memory(self, torus5, grid_params):
        # the rows after a run settles are written into the one int64 array
        # it returns, 24 bytes a round, with no Python list of them first
        init = np.zeros(25, dtype=np.int8)
        init[0] = C
        rounds = 10**5
        tracemalloc.start()
        try:
            trace = run(torus5, init, grid_params, UpdateRule.main_greedy(),
                        np.random.default_rng(1), max_rounds=rounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.termination is Termination.MAX_ROUNDS
        assert trace.counts.shape == (rounds + 1, 3) and trace.counts.dtype == np.int64
        assert (trace.counts[-1000:] == trace.counts[-1]).all()
        assert peak < 32 * rounds, peak / rounds

    def test_early_stop_passes_a_repeat_with_a_tie_draw(self):
        # round 4 repeats round 2, but a tied player draws on the way and
        # the run leaves the repeat for full defection
        g = build_torus_grid(5, 6)
        init = np.array([int(c) for c in "200202000020020010000112000101"], dtype=np.int8)
        trace = run(g, init, MainParams(0.75, 0.5, 0.5), UpdateRule.main_greedy(),
                    np.random.default_rng(1_000_135), max_rounds=60, early_stop=True,
                    record_snapshots=True)
        assert np.array_equal(trace.snapshots[4], trace.snapshots[2])
        assert trace.counts[2].tolist() == [22, 0, 8]
        assert trace.termination is Termination.FIXED_POINT
        assert trace.rounds == 10 and trace.round_reached == 9
        assert trace.counts[-1].tolist() == [30, 0, 0]

    @pytest.mark.parametrize("p_greedy", [0.9, 1.0])
    def test_noisy_rule_cannot_stop_early(self, torus5, grid_params, p_greedy):
        # noise draws are taken every round, so no state of it is settled
        with pytest.raises(ValueError, match="never settles"):
            run(torus5, np.zeros(25, dtype=np.int8), grid_params,
                UpdateRule.main_noisy(p_greedy), np.random.default_rng(0), max_rounds=5,
                early_stop=True)

    def test_two_cycle_detected(self):
        # small side all-defector against a cooperating large side swaps
        # the two sides every round
        edges = [(u, v) for u in range(3) for v in range(3, 13)]
        g = Network.from_edges(13, edges)
        params = MainParams(0.1, 0.36, 0.598)
        init = np.zeros(13, dtype=np.int8)
        init[3:] = C
        trace = run(g, init, params, UpdateRule.main_greedy(), np.random.default_rng(0),
                    max_rounds=50, early_stop=True, record_snapshots=True)
        assert trace.termination is Termination.TWO_CYCLE
        assert trace.round_reached == 0
        assert trace.counts[0].tolist() == [3, 0, 10]
        assert trace.counts[1].tolist() == [10, 0, 3]
        _assert_snapshot_stack(trace, 13)
        assert np.array_equal(trace.snapshots[2], init)

    def test_counts_conserve_players(self, torus5, grid_params):
        rng = np.random.default_rng(4)
        init = rng.integers(0, 3, size=25).astype(np.int8)
        trace = run(torus5, init, grid_params, UpdateRule.main_greedy(),
                    np.random.default_rng(2), max_rounds=7, record_snapshots=True)
        assert (trace.counts.sum(axis=1) == 25).all()
        _assert_snapshot_stack(trace, 25)
        for t, snap in enumerate(trace.snapshots):
            assert np.bincount(snap, minlength=3).tolist() == trace.counts[t].tolist()

    def test_same_seed_bitwise_identical(self, torus5):
        params = MainParams(e_h=0.0, rho_h=0.5, rho_d=1.0)  # tie-rich
        init = np.zeros(25, dtype=np.int8)
        init[12] = H
        a = run(torus5, init, params, UpdateRule.main_greedy(), np.random.default_rng(9),
                max_rounds=8)
        b = run(torus5, init, params, UpdateRule.main_greedy(), np.random.default_rng(9),
                max_rounds=8)
        assert np.array_equal(a.counts, b.counts)
        c = run(torus5, init, params, UpdateRule.main_greedy(), np.random.default_rng(10),
                max_rounds=8)
        assert not np.array_equal(a.counts, c.counts)


class TestNoisyRule:
    def test_fully_greedy_noise_matches_greedy_rule(self, torus5, grid_params):
        # p_greedy=1 never randomises; with tie-free parameters the noise
        # draws are consumed but cannot influence any decision
        rng = np.random.default_rng(13)
        init = rng.integers(0, 3, size=25).astype(np.int8)
        greedy = run(torus5, init, grid_params, UpdateRule.main_greedy(),
                     np.random.default_rng(5), max_rounds=10)
        noisy = run(torus5, init, grid_params, UpdateRule.main_noisy(1.0),
                    np.random.default_rng(5), max_rounds=10)
        assert np.array_equal(greedy.counts, noisy.counts)

    def test_fully_random_is_roughly_uniform(self, grid_params):
        g = build_torus_grid(10, 10)
        rule = UpdateRule.main_noisy(0.0)
        out = step(g, np.zeros(100, dtype=np.int8), table_for(g, grid_params, rule),
                   np.random.default_rng(5))
        counts = np.bincount(out, minlength=3)
        assert counts.tolist() == [39, 30, 31]  # frozen; near-uniform thirds

    def test_noise_draw_accounting(self, grid_params):
        # one noise draw per player per round, before any tie draw
        g = Network.from_edges(2, [(0, 1)])
        params = MainParams(e_h=0.0, rho_h=0.5, rho_d=1.0)
        seed = 21
        raw = np.random.default_rng(seed).random(4)
        table = table_for(g, params, UpdateRule.main_noisy(0.5))
        out = step(g, np.zeros(2, dtype=np.int8), table, np.random.default_rng(seed))
        expected = []
        tie_cursor = 2
        for u in range(2):
            if raw[u] > 0.5:  # randomised: rescaled noise picks among C, H, D
                r = (raw[u] - 0.5) / 0.5
                expected.append([C, H, D][min(max(int(np.ceil(r * 3)) - 1, 0), 2)])
            else:  # greedy: k=0 ties H and D
                r = raw[tie_cursor]
                tie_cursor += 1
                expected.append(H if r <= 0.5 else D)
        assert out.tolist() == expected

    def test_noise_draws_precede_tie_draws(self):
        # both noise draws stay under p_greedy, so both players tie H and D
        # at k=0 and take the next two draws: 0.25 gives H, 0.75 gives D
        g = Network.from_edges(2, [(0, 1)])
        params = MainParams(e_h=0.0, rho_h=0.5, rho_d=1.0)
        draws = PresetDraws([0.1, 0.2, 0.25, 0.75])
        table = table_for(g, params, UpdateRule.main_noisy(0.5))
        out = step(g, np.zeros(2, dtype=np.int8), table, draws)
        assert out.tolist() == [H, D]
        with pytest.raises(ValueError, match="exhausted"):
            draws.random(1)


class TestTwoOrderDynamics:
    def test_private_cooperation_never_wins_under_cheap_punishment(self, torus5):
        # alpha2 < beta2: punishing is cheaper than getting punished for
        # not punishing, so private cooperation loses to open cooperation
        params = TwoOrderParams(alpha1=0.9, alpha2=0.1, beta1=0.23, beta2=0.22)
        rng = np.random.default_rng(6)
        init = rng.integers(0, 4, size=25).astype(np.int8)
        trace = run(torus5, init, params, UpdateRule.two_order_greedy(),
                    np.random.default_rng(3), max_rounds=10)
        assert trace.counts.shape[1] == 4
        assert trace.counts[1:, PC].sum() == 0

    def test_private_cooperation_can_win_when_punishing_is_dear(self):
        # alpha2 > beta2 flips the comparison: a cooperator surrounded by
        # punishers saves alpha2 - k*beta2 by not punishing
        g = Network.from_edges(2, [(0, 1)])
        params = TwoOrderParams(alpha1=0.1, alpha2=5.0, beta1=6.0, beta2=0.5)
        config = np.array([C, C], dtype=np.int8)
        out = step(g, config, table_for(g, params, UpdateRule.two_order_greedy()),
                   np.random.default_rng(0))
        assert out.tolist() == [PC, PC]


class TestTraceCsv:
    def test_main_model_frozen_string(self, triangle, grid_params):
        trace = run(triangle, np.array([D, H, C], dtype=np.int8), grid_params,
                    UpdateRule.main_greedy(), np.random.default_rng(0),
                    max_rounds=5, early_stop=True)
        assert format_trace_csv(trace) == (
            "round,defectors,hypocritical,cooperators\n"
            "0,1,1,1\n"
            "1,0,3,0\n"
            "2,0,3,0\n")

    def test_two_order_has_four_columns(self, triangle, tmp_path):
        params = TwoOrderParams(1, 1, 1, 1)
        trace = run(triangle, np.array([D, H, PC], dtype=np.int8), params,
                    UpdateRule.two_order_greedy(), np.random.default_rng(0), max_rounds=1)
        text = format_trace_csv(trace)
        assert text.startswith(
            "round,defectors,hypocritical,cooperators,private_cooperators\n")
        assert text.splitlines()[1] == "0,1,1,0,1"
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, str(out))
        assert out.read_text() == text


def test_step_permutation_equivariance():
    # relabelling players commutes with one revision round
    from conftest import random_connected_gnp

    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        g = random_connected_gnp(rng, n, 0.4)
        params = MainParams(e_h=float(rng.uniform(0, 1)),
                            rho_h=float(rng.choice([0.25, 0.5, 1.0])),
                            rho_d=float(rng.choice([0.5, 1.0, 2.0])))
        config = rng.integers(0, 3, size=n).astype(np.int8)
        # every tied player gets the same r, so relabelling cannot move draws
        r = float(rng.random())
        perm = rng.permutation(n)
        g_perm = Network.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        config_perm = np.empty(n, dtype=np.int8)
        config_perm[perm] = config
        table = table_for(g, params, UpdateRule.main_greedy())
        out = step(g, config, table, PresetDraws([r] * n))
        out_perm = step(g_perm, config_perm, table, PresetDraws([r] * n))
        assert np.array_equal(out_perm[perm], out)


# ---------------------------------------------------------------------------
# run against iterated step, and counts against a plain Python count
# ---------------------------------------------------------------------------

# Dyadic parameters tie exactly: C = H = D at k = 2 for LOW, and C = H = D
# (= PC for the two-order model) at k = 256 for HIGH, past the uint8 range.
LOW_TIES = (MainParams(e_h=0.5, rho_h=0.25, rho_d=0.5),
            TwoOrderParams(alpha1=1.0, alpha2=0.5, beta1=0.25, beta2=0.5))
HIGH_TIES = (MainParams(e_h=0.5, rho_h=2.0**-9, rho_d=2.0**-8),
             TwoOrderParams(alpha1=0.5, alpha2=0.5, beta1=2.0**-9, beta2=2.0**-9))

RULES = {
    "main-greedy": (UpdateRule.main_greedy(), (D, H, C)),
    "main-noisy": (UpdateRule.main_noisy(0.75), (D, H, C)),
    "main-no-hypocrisy": (UpdateRule.main_no_hypocrisy(), (D, C)),
    "two-order-greedy": (UpdateRule.two_order_greedy(), (D, H, C, PC)),
}


def _wheel(rim):
    """A hub joined to every vertex of a cycle: hub degree ``rim``, rim degree 3."""
    edges = ([(0, u) for u in range(1, rim + 1)]
             + [(u, u % rim + 1) for u in range(1, rim + 1)])
    return Network.from_edges(rim + 1, edges)


def _complete(n):
    return Network.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _hub_config(n):
    # 256 cooperators at 2..257: vertex 0 (and 1 in the complete graph)
    # sees exactly 256 punishing neighbours
    config = np.full(n, D, dtype=np.int8)
    config[2:258] = C
    return config


def _relabelled(g, seed):
    perm = np.random.default_rng(seed).permutation(g.vertex_count)
    return Network.from_edges(g.vertex_count, perm[np.array(g.edges())])


def _two_switched(width, height, a, c):
    """The torus with edges (a, a + 1) and (c, c + 1) swapped for (a, c) and
    (a + 1, c + 1): still 4-regular, and unchanged around vertex 0."""
    edges = set(build_torus_grid(width, height).edges())
    edges -= {(a, a + 1), (c, c + 1)}
    edges |= {(a, c), (a + 1, c + 1)}
    return Network.from_edges(width * height, sorted(edges))


@pytest.fixture(scope="module")
def graphs():
    from conftest import random_connected_gnp
    from peerpressure import sample_random_regular

    return {
        "torus": build_torus_grid(6, 6),
        "regular": sample_random_regular(30, 5, np.random.default_rng(4)),
        "gnp": random_connected_gnp(np.random.default_rng(5), 30, 0.15),
        "wheel": _wheel(300),
        "complete": _complete(258),
        # non-square, so the two grid directions wrap at different lengths
        "torus7x5": build_torus_grid(7, 5),
        "edge": Network.from_edges(2, [(0, 1)]),
        "single": Network.from_edges(1, []),  # d = 0, no arcs
        # larger tori, square-ish and thin both ways
        "torus60x50": build_torus_grid(60, 50),
        "torus3x1000": build_torus_grid(3, 1000),
        "torus4x1000": build_torus_grid(4, 1000),
        "torus1000x3": build_torus_grid(1000, 3),
        # near-tori, which must not be taken for the row-major torus
        "relabelled": _relabelled(build_torus_grid(60, 50), 11),
        "switched": _two_switched(60, 50, 30 + 25 * 60, 30 + 27 * 60),
        # large and 5-regular: counted by the bincount
        "regular3000": sample_random_regular(3000, 5, np.random.default_rng(13)),
    }


HIGH_DEGREE = ("wheel", "complete")
ALL_GRAPHS = ["torus", "regular", "gnp", "wheel", "complete", "torus7x5", "edge", "single",
              "torus60x50", "torus3x1000", "torus4x1000", "torus1000x3", "relabelled",
              "switched", "regular3000"]


def _case(graphs, rule_name, graph_name):
    g = graphs[graph_name]
    rule, codes = RULES[rule_name]
    main, two_order = HIGH_TIES if graph_name in HIGH_DEGREE else LOW_TIES
    params = two_order if rule.is_two_order else main
    if graph_name in HIGH_DEGREE:
        init = _hub_config(g.vertex_count)
    else:
        rng = np.random.default_rng([len(rule_name), len(graph_name)])
        init = rng.choice(np.array(codes, dtype=np.int8), size=g.vertex_count)
    return g, rule, params, init


def _python_counts(g, config):
    return [sum(1 for v in g.neighbors(u) if config[v] in (H, C))
            for u in range(g.vertex_count)]


def _assert_run_equals_iterated_step(monkeypatch, g, init, params, rule, seed, rounds):
    """Run against ``rounds`` iterated steps from the same draws: the same
    snapshots, counts and draw-source position. Returns the trace and the
    number of steps run took."""
    steps = []

    def counted_step(*args):
        steps.append(None)
        return step(*args)

    monkeypatch.setattr(dynamics, "step", counted_step)
    run_ties = np.random.default_rng(seed)
    trace = run(g, init, params, rule, run_ties, max_rounds=rounds, record_snapshots=True)
    monkeypatch.undo()
    assert trace.snapshots.shape == (rounds + 1, g.vertex_count)
    ties = np.random.default_rng(seed)
    table = table_for(g, params, rule)
    config = init
    for t, snapshot in enumerate(trace.snapshots[1:], start=1):
        config = step(g, config, table, ties)
        assert np.array_equal(config, snapshot), f"round {t}"
        counts = np.bincount(config, minlength=trace.counts.shape[1])
        assert trace.counts[t].tolist() == counts.tolist(), f"round {t}"
    # both consumed the same number of draws
    assert ties.random() == run_ties.random()
    return trace, len(steps)


@pytest.mark.parametrize("graph_name", ALL_GRAPHS)
@pytest.mark.parametrize("rule_name", sorted(RULES))
def test_run_equals_iterated_step(monkeypatch, graphs, rule_name, graph_name):
    g, rule, params, init = _case(graphs, rule_name, graph_name)
    _assert_run_equals_iterated_step(monkeypatch, g, init, params, rule, 3, rounds=8)


def _settling_case(name):
    """A run on a small network that repeats the configuration of two rounds
    back within ten rounds; the draws and the initial configuration come
    from one seed."""
    torus, k23 = build_torus_grid(6, 6), Network.from_edges(5, [(a, b) for a in (0, 1)
                                                                for b in (2, 3, 4)])
    greedy = UpdateRule.main_greedy()
    g, params, rule, seed = {
        # no tie draw at the repeat: a fixed point from round 5
        "fixed-point": (torus, LOW_TIES[0], greedy, 0),
        # no tie draw at the repeat: two configurations with equal counts
        "two-cycle": (torus, LOW_TIES[0], greedy, 2),
        # no tie draw at the repeat: counts [3, 2, 0] and [2, 3, 0]
        "two-cycle-counts": (k23, GENERIC[0], greedy, 3),
        # round 6 repeats round 4, but a tied player draws and leaves the cycle
        "tied-repeat": (torus, LOW_TIES[0], greedy, 14),
        # fully greedy noise: round 5 repeats round 3, but noise draws go on
        "noisy": (torus, LOW_TIES[0], UpdateRule.main_noisy(1.0), 0),
    }[name]
    rng = np.random.default_rng(seed)
    p = None if g is k23 else [0.5, 0.25, 0.25]
    init = rng.choice(np.array([D, H, C], dtype=np.int8), size=g.vertex_count, p=p)
    return g, init, params, rule, seed


@pytest.mark.parametrize("rounds", [20, 21])
@pytest.mark.parametrize("name", ["fixed-point", "two-cycle", "two-cycle-counts",
                                  "tied-repeat", "noisy"])
def test_run_equals_iterated_step_after_a_repeat(monkeypatch, name, rounds):
    g, init, params, rule, seed = _settling_case(name)
    trace, steps = _assert_run_equals_iterated_step(monkeypatch, g, init, params, rule, seed,
                                                    rounds)
    snapshots = trace.snapshots
    first_repeat = next(t for t in range(2, rounds + 1)
                        if np.array_equal(snapshots[t], snapshots[t - 2]))
    assert first_repeat <= 10
    if name in ("tied-repeat", "noisy"):
        # a fill from the first repeat would be wrong or skip draws
        assert steps > first_repeat
    elif name == "fixed-point":
        # run stops stepping once a round repeats the one before
        assert steps == first_repeat - 1
        assert np.array_equal(snapshots[steps], snapshots[steps - 1])
    else:
        # run stops stepping at the first repeat and fills the rest
        assert steps == first_repeat
    if name == "tied-repeat":
        assert not np.array_equal(snapshots[-1],
                                  snapshots[first_repeat - (rounds - first_repeat) % 2])
    if name.startswith("two-cycle"):
        assert not np.array_equal(snapshots[-1], snapshots[-2])
    if name == "two-cycle-counts":
        assert trace.counts[-1].tolist() != trace.counts[-2].tolist()


def test_is_settled(triangle, grid_params):
    # fixed points: all-hypocrite steps to itself without a draw, while a
    # round with a tie draw proves nothing even when it repeats
    config = np.full(3, H, dtype=np.int8)
    nxt = step(triangle, config, table_for(triangle, grid_params, UpdateRule.main_greedy()),
               np.random.default_rng(0))
    assert dynamics.is_settled(config, [0, 3, 0], nxt, [0, 3, 0], 0)
    assert not dynamics.is_settled(config, [0, 3, 0], nxt, [0, 3, 0], 1)
    # two-cycles, with the draws of the two steps that led there
    a = np.array([D, H, C, C], dtype=np.int8)
    b = np.array([C, H, C, D], dtype=np.int8)  # same counts as a
    counts = [1, 1, 2]
    assert dynamics.is_settled(a, counts, a.copy(), counts, 0)
    assert not dynamics.is_settled(a, counts, b, counts, 0)
    assert not dynamics.is_settled(a, counts, a.copy(), counts, 1)
    # counts are compared first: different counts never reach the arrays
    assert not dynamics.is_settled(config, [1, 2, 0], nxt, [0, 3, 0], 0)
    assert not dynamics.is_settled(a, counts, a.copy(), [0, 2, 2], 0)


# Irregular and disconnected, so counted and stepped only below: run refuses them.
ISOLATED = {
    "isolated-last": Network.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)]),
    "isolated-middle": Network.from_edges(6, [(0, 1), (1, 2), (0, 2), (4, 5)]),
}


@pytest.mark.parametrize("graph_name", ALL_GRAPHS + sorted(ISOLATED))
def test_punishing_counts_match_python_count(graphs, graph_name):
    g = ISOLATED[graph_name] if graph_name in ISOLATED else graphs[graph_name]
    regular = graph_name not in ("gnp", "wheel", *ISOLATED)
    assert bool((g.degrees == g.degrees[0]).all()) == regular
    stencil = graph_name.startswith("torus")
    rng = np.random.default_rng(9)
    configs = [rng.integers(0, 4, size=g.vertex_count).astype(np.int8),
               np.full(g.vertex_count, C, dtype=np.int8),
               _hub_config(g.vertex_count)]
    for config in configs:
        counts = punishing_counts(g, config)
        assert counts.tolist() == _python_counts(g, config)
        assert counts.dtype == (np.uint8 if stencil else np.int64)
    if graph_name in ISOLATED:
        for rule_name, (rule, _) in RULES.items():
            params = LOW_TIES[1] if rule.is_two_order else LOW_TIES[0]
            config = configs[0] if rule.is_two_order else configs[0] % 3
            values = rng.random(2 * g.vertex_count)
            fast = step(g, config, table_for(g, params, rule), PresetDraws(values))
            assert fast.tolist() == reference_step(g, config, params, values, rule), rule_name


@pytest.mark.parametrize("graph_name", HIGH_DEGREE)
@pytest.mark.parametrize("rule_name", ["main-greedy", "main-no-hypocrisy", "two-order-greedy"])
def test_step_matches_reference_at_high_degree(graphs, rule_name, graph_name):
    g, rule, params, config = _case(graphs, rule_name, graph_name)
    values = np.random.default_rng(2).random(g.vertex_count)
    fast = step(g, config, table_for(g, params, rule), PresetDraws(values))
    slow = reference_step(g, config, params, values, rule=rule)
    assert fast.tolist() == slow
    # vertex 0 decides a genuine tie at k = 256, where a uint8 count reads 0
    assert punishing_counts(g, config)[0] == 256
    assert decision_table(params, rule, 256).n_min[256] > 1


# Generic parameters tie nowhere. The two-order set chooses D, D, PC, PC, C,
# C for k = 0..5: codes go down from PC (3) to C (2) at k = 4.
GENERIC = (MainParams(e_h=0.1, rho_h=0.23, rho_d=0.45),
           TwoOrderParams(alpha1=0.3, alpha2=1.1, beta1=0.2, beta2=0.3))


@pytest.mark.parametrize("param_set", ["tie-rich", "generic"])
@pytest.mark.parametrize("graph_name", ["torus60x50", "regular3000"])
@pytest.mark.parametrize("rule_name", sorted(RULES))
def test_step_matches_reference_on_large_networks(graphs, rule_name, graph_name, param_set):
    g = graphs[graph_name]
    rule, codes = RULES[rule_name]
    main, two_order = LOW_TIES if param_set == "tie-rich" else GENERIC
    params = two_order if rule.is_two_order else main
    rng = np.random.default_rng([len(rule_name), len(graph_name), len(param_set)])
    config = rng.choice(np.array(codes, dtype=np.int8), size=g.vertex_count)
    values = rng.random(2 * g.vertex_count)
    fast = step(g, config, table_for(g, params, rule), PresetDraws(values))
    slow = reference_step(g, config, params, values, rule=rule)
    assert fast.tolist() == slow
    # the choice is summed from breakpoints, and ties are decided
    table = table_for(g, params, rule)
    assert table.breakpoints
    k = punishing_counts(g, config)
    assert table.is_tied.take(k).any() == (param_set == "tie-rich")


def _paper_torus(width, height, door, tmp_path):
    """The torus through one door, and each grid vertex's label in it."""
    torus = build_torus_grid(width, height)
    labels = np.arange(width * height)
    if door == "edge-list":
        write_edge_list(torus, str(tmp_path / "torus.edges"))
        torus = read_edge_list(str(tmp_path / "torus.edges"))
        assert torus.torus_shape() == (width, height)
    elif door == "relabelled":
        labels = np.random.default_rng(5).permutation(width * height)
        torus = Network.from_edges(width * height, labels[np.array(torus.edges())])
        assert torus.torus_shape() is None  # counted by the bincount
    return torus, labels


@pytest.mark.parametrize("door", ["built", "edge-list", "relabelled"])
@pytest.mark.parametrize("width, height", [(300, 300), (301, 300)])
def test_paper_scale_torus_laws(width, height, door, tmp_path, grid_params):
    # the greedy main rule in the contagion regime has closed-form counts on
    # a torus; seeding on the rim makes the front cross both wrap seams
    torus, labels = _paper_torus(width, height, door, tmp_path)
    n = width * height
    rule = UpdateRule.main_greedy()
    # one hypocrite: for 1 <= t < min(width, height) / 2, the non-defectors
    # of round t are the vertices within distance t at the parity of t
    rounds = (min(width, height) - 1) // 2
    t = np.arange(1, rounds + 1)
    law = np.stack([n - (t + 1) ** 2, 4 * t, (t - 1) ** 2], axis=1)
    for seed in (0, n - 1):
        init = np.full(n, D, dtype=np.int8)
        init[labels[seed]] = H
        trace = run(torus, init, grid_params, rule, np.random.default_rng(0), rounds)
        assert np.array_equal(trace.counts[1:], law), seed
    if width % 2 or height % 2:
        return
    # two adjacent hypocrites on an even torus: full cooperation at exactly
    # round diameter, one round inside the bipartite bound diameter + 1; the
    # built torus has its metrics in closed form, which every door shares
    bound = convergence_bound(compute_metrics(build_torus_grid(width, height)))
    assert bound == width // 2 + height // 2 + 1
    init = np.full(n, D, dtype=np.int8)
    init[labels[[0, 1]]] = H
    trace = run(torus, init, grid_params, rule, np.random.default_rng(0), bound)
    assert convergence_round(trace) == bound - 1


class TestPunishingPath:
    def test_stencil_on_every_exact_torus(self, graphs, tmp_path, grid_params, monkeypatch):
        stencil_counts = peerpressure.graphs._torus_counts
        calls = []

        def counted(mask, width, height):
            calls.append((width, height))
            return stencil_counts(mask, width, height)

        def read_back(g, name):
            write_edge_list(g, str(tmp_path / name))
            return read_edge_list(str(tmp_path / name))

        monkeypatch.setattr(peerpressure.graphs, "_torus_counts", counted)
        cases = {
            "torus60x50": (graphs["torus60x50"], (60, 50), True),
            "read back": (read_back(graphs["torus60x50"], "60x50.edges"), (60, 50), True),
            # built or read back, tiny or not, every exact torus takes it
            "50x50": (build_torus_grid(50, 50), (50, 50), True),
            "49x51": (build_torus_grid(49, 51), (49, 51), True),
            "7x5": (build_torus_grid(7, 5), (7, 5), True),
            "7x5 read back": (read_back(build_torus_grid(7, 5), "7x5.edges"), (7, 5), True),
            "3x3": (build_torus_grid(3, 3), (3, 3), True),
            "relabelled": (graphs["relabelled"], None, False),
            "switched": (graphs["switched"], None, False),
            # short rows and long rows alike
            "3x1000": (build_torus_grid(3, 1000), (3, 1000), True),
            "4x999": (build_torus_grid(4, 999), (4, 999), True),
            "4x1000": (build_torus_grid(4, 1000), (4, 1000), True),
            "5x500": (build_torus_grid(5, 500), (5, 500), True),
            "1000x3": (build_torus_grid(1000, 3), (1000, 3), True),
        }
        for name, (g, shape, stencil) in cases.items():
            assert set(g.degrees.tolist()) == {4}, name
            calls.clear()
            init = np.full(g.vertex_count, C, dtype=np.int8)
            run(g, init, grid_params, UpdateRule.main_greedy(), np.random.default_rng(0), 2)
            assert g.torus_shape() == shape, name
            assert set(calls) == ({shape} if stencil else set()), name

    def test_a_round_asks_a_built_torus_for_nothing_but_counts(self, grid_params, monkeypatch):
        # a shape-only torus answers degrees, and so vertex_count, through
        # __getattr__; a round is sized by its configuration, so a run reads
        # them a fixed number of times however many rounds it steps
        shape_only_read = Network.__getattr__
        reads = []

        def counted(self, name):
            reads.append(name)
            return shape_only_read(self, name)

        monkeypatch.setattr(Network, "__getattr__", counted)
        init = np.random.default_rng(3).integers(0, 3, 35).astype(np.int8)
        per_run = []
        for rounds in (5, 50):
            reads.clear()
            # the noisy rule never settles, so every round steps
            trace = run(build_torus_grid(7, 5), init, grid_params, UpdateRule.main_noisy(0.5),
                        np.random.default_rng(4), rounds)
            assert trace.rounds == rounds
            per_run.append(len(reads))
        assert per_run[0] == per_run[1], per_run

    @pytest.mark.parametrize("graph_name", ["regular", "torus", "torus60x50"])
    def test_no_per_arc_array_but_indices(self, graphs, graph_name, grid_params):
        g = graphs[graph_name]
        n = g.vertex_count
        run(g, np.full(n, C, dtype=np.int8), grid_params, UpdateRule.main_greedy(),
            np.random.default_rng(0), 2)
        arrays = {name: value for name, value in vars(g).items()
                  if isinstance(value, np.ndarray)}
        # the bound catches a per-arc array: indices itself exceeds it
        assert arrays["indices"].size > n + 1
        assert {name for name, value in arrays.items() if value.size > n + 1} == {"indices"}


class TestDecisionTable:
    def test_ties_are_listed_in_preference_order(self):
        table = decision_table(LOW_TIES[0], UpdateRule.main_greedy(), 4)
        # k=0: D (cost 0); k=2: C = H = D at cost 1
        assert table.tied[:3, 0].tolist() == [D, D, C]
        assert table.n_min.tolist() == [1, 1, 3, 1, 1]
        assert table.tied[2].tolist() == [C, H, D]

    def test_last_table_is_shared_and_read_only(self):
        rule = UpdateRule.main_greedy()
        table = decision_table(MainParams(0.5, 0.25, 0.5), rule, 4)
        assert decision_table(MainParams(0.5, 0.25, 0.5), rule, 4) is table
        assert decision_table(MainParams(0.5, 0.25, 0.5), rule, 5) is not table
        arrays = [getattr(table, f.name) for f in fields(table)
                  if isinstance(getattr(table, f.name), np.ndarray)]
        assert len(arrays) == 4  # codes, n_min, is_tied, tied
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_breakpoints_rebuild_choice(self):
        rng = np.random.default_rng(23)
        dyadic = [0.125, 0.25, 0.5, 1.0, 2.0]
        falls = tied_breaks = 0
        for rule_name, (rule, _) in sorted(RULES.items()):
            for _ in range(150):
                if rule.is_two_order:
                    params = TwoOrderParams(*(float(rng.choice(dyadic)) for _ in range(4)))
                else:
                    params = MainParams(e_h=float(rng.choice(dyadic[:4])),
                                        rho_h=float(rng.choice(dyadic)),
                                        rho_d=float(rng.choice(dyadic)))
                table = decision_table(params, rule, 12)
                choice = table.tied[:, 0].tolist()
                for k in range(13):
                    rebuilt = choice[0] + sum(delta for j, delta in table.breakpoints if k >= j)
                    assert rebuilt == choice[k], (rule_name, params, k)
                falls += any(delta < 0 for _, delta in table.breakpoints)
                tied_breaks += any(table.n_min[j] > 1 for j, _ in table.breakpoints)
        # the grid reaches codes that go down and ties at a breakpoint
        assert falls and tied_breaks

    def test_step_sums_breakpoints(self):
        # README parameters: choice D, H, H, H, C and no ties
        params, rule = GENERIC[0], UpdateRule.main_greedy()
        table = decision_table(params, rule, 4)
        assert table.breakpoints == ((1, 1), (4, 1))
        assert not table.is_tied.any()
        g = build_torus_grid(7, 5)
        config = np.random.default_rng(7).integers(0, 3, g.vertex_count).astype(np.int8)
        looked_up = table.tied[:, 0].take(punishing_counts(g, config))
        assert (looked_up != table.tied[0, 0]).any()
        assert np.array_equal(step(g, config, table, None), looked_up)
        # a table copied without breakpoints shows that step reads them
        blank = replace(table, breakpoints=())
        out = step(g, config, blank, None)
        assert np.array_equal(out, np.full(g.vertex_count, table.tied[0, 0]))
