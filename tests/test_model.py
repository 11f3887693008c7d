"""Behaviours, costs, parameter windows, initial mixes, serialization."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peerpressure import (
    Behavior,
    ConditionStatus,
    MAIN_BEHAVIORS,
    MainParams,
    TIE_PRIORITY,
    TwoOrderConditionStatus,
    TwoOrderParams,
    classify_main_conditions,
    classify_two_order_conditions,
    cost_coefficients,
    map_configuration,
    map_two_order_params,
    params_from_dict,
    sample_initial_binary,
    sample_initial_main,
    sample_initial_two_order,
)

positive = st.floats(0.01, 8.0, allow_nan=False, allow_infinity=False)


def test_behavior_codes_are_stable():
    assert [int(b) for b in (Behavior.DEFECTOR, Behavior.HYPOCRITICAL,
                             Behavior.COOPERATOR, Behavior.PRIVATE_COOPERATOR)] == [0, 1, 2, 3]


def test_tie_priority_prefers_cooperation():
    assert TIE_PRIORITY[0] is Behavior.COOPERATOR
    assert TIE_PRIORITY[1] is Behavior.HYPOCRITICAL


def cost(params, behavior, k):
    """Round cost with ``k`` punishing neighbours, from the coefficient table."""
    fixed, per_punisher = cost_coefficients(params)[behavior]
    return fixed + per_punisher * k


class TestMainCosts:
    def test_frozen_values(self, grid_params):
        assert cost_coefficients(grid_params) == {
            Behavior.COOPERATOR: (1.0, 0.0),
            Behavior.HYPOCRITICAL: (0.1, 0.23),
            Behavior.DEFECTOR: (0.0, 0.45),
        }
        assert cost(grid_params, Behavior.COOPERATOR, 0) == 1.0
        assert cost(grid_params, Behavior.COOPERATOR, 4) == 1.0
        assert cost(grid_params, Behavior.DEFECTOR, 2) == 0.9
        assert cost(grid_params, Behavior.HYPOCRITICAL, 3) == 0.79
        assert cost(grid_params, Behavior.DEFECTOR, 0) == 0.0

    def test_rejects_private_cooperator(self, grid_params):
        # the main model has no private cooperators, so no entry for them
        assert set(cost_coefficients(grid_params)) == set(MAIN_BEHAVIORS)
        with pytest.raises(KeyError):
            cost(grid_params, Behavior.PRIVATE_COOPERATOR, 1)

    @given(e_h=st.floats(0, 1), rho_h=positive, rho_d=positive)
    @settings(max_examples=60)
    def test_nonnegative_and_monotone_in_pressure(self, e_h, rho_h, rho_d):
        # a non-negative fixed part and fee make every cost non-negative and
        # non-decreasing in the punishing count
        p = MainParams(e_h=e_h, rho_h=rho_h, rho_d=rho_d)
        for fixed, per_punisher in cost_coefficients(p).values():
            assert fixed >= 0.0 and per_punisher >= 0.0


class TestTwoOrderCosts:
    def test_frozen_values(self):
        p = TwoOrderParams(alpha1=0.25, alpha2=0.5, beta1=0.75, beta2=1.5)
        assert set(cost_coefficients(p)) == set(Behavior)
        assert cost(p, Behavior.COOPERATOR, 2) == 0.75
        assert cost(p, Behavior.HYPOCRITICAL, 2) == 2.0
        assert cost(p, Behavior.DEFECTOR, 2) == 4.5
        assert cost(p, Behavior.PRIVATE_COOPERATOR, 2) == 3.25

    @given(alpha1=positive, alpha2=positive, beta1=positive, beta2=positive)
    @settings(max_examples=60)
    def test_coefficients_are_nonnegative(self, alpha1, alpha2, beta1, beta2):
        p = TwoOrderParams(alpha1, alpha2, beta1, beta2)
        for fixed, per_punisher in cost_coefficients(p).values():
            assert fixed >= 0.0 and per_punisher >= 0.0

    @given(alpha1=positive, alpha2=positive, beta1=positive, beta2=positive,
           k=st.integers(0, 12), j=st.integers(-3, 3))
    @settings(max_examples=60)
    def test_power_of_two_scale_invariance(self, alpha1, alpha2, beta1, beta2, k, j):
        # exact float identity: scaling by 2**j only shifts exponents
        lam = 2.0 ** j
        p = TwoOrderParams(alpha1, alpha2, beta1, beta2)
        q = TwoOrderParams(lam * alpha1, lam * alpha2, lam * beta1, lam * beta2)
        for b in Behavior:
            assert cost(q, b, k) == lam * cost(p, b, k)

    @given(alpha1=positive, alpha2=positive, beta1=positive, beta2=positive,
           k=st.integers(0, 12))
    @settings(max_examples=60)
    def test_rescaled_costs_match_main_model(self, alpha1, alpha2, beta1, beta2, k):
        p = TwoOrderParams(alpha1, alpha2, beta1, beta2)
        m = map_two_order_params(p)
        s = alpha1 + alpha2
        for b in MAIN_BEHAVIORS:
            assert math.isclose(cost(p, b, k) / s, cost(m, b, k),
                                rel_tol=1e-12, abs_tol=1e-12)


class TestParamValidation:
    def test_main_bounds(self):
        with pytest.raises(ValueError):
            MainParams(e_h=-0.1, rho_h=0.2, rho_d=0.4)
        with pytest.raises(ValueError):
            MainParams(e_h=1.1, rho_h=0.2, rho_d=0.4)
        with pytest.raises(ValueError):
            MainParams(e_h=0.1, rho_h=-0.2, rho_d=0.4)
        with pytest.raises(ValueError):
            MainParams(e_h=0.1, rho_h=0.2, rho_d=0.0)
        # NaN fails every range comparison, so only the finiteness check stops it
        for key in ("e_h", "rho_h", "rho_d"):
            for value in (math.nan, math.inf):
                kwargs = {"e_h": 0.1, "rho_h": 0.2, "rho_d": 0.4, key: value}
                with pytest.raises(ValueError, match=f"'{key}' must be finite"):
                    MainParams(**kwargs)

    def test_boundary_values_allowed_with_notes(self):
        notes = MainParams(e_h=0.0, rho_h=0.5, rho_d=0.4).regime_notes()
        assert any("boundary" in n for n in notes)
        assert any(">=" in n for n in notes)
        assert MainParams(e_h=0.1, rho_h=0.23, rho_d=0.45).regime_notes() == ()

    def test_two_order_requires_positive(self):
        for bad in ({"alpha1": 0.0}, {"alpha2": -1.0}, {"beta1": 0.0}, {"beta2": 0.0}):
            kwargs = {"alpha1": 1.0, "alpha2": 1.0, "beta1": 1.0, "beta2": 1.0, **bad}
            with pytest.raises(ValueError):
                TwoOrderParams(**kwargs)
        for key in ("alpha1", "alpha2", "beta1", "beta2"):
            for value in (math.nan, math.inf):
                kwargs = {"alpha1": 1.0, "alpha2": 1.0, "beta1": 1.0, "beta2": 1.0, key: value}
                with pytest.raises(ValueError, match=f"'{key}' must be finite"):
                    TwoOrderParams(**kwargs)


class TestParamMapping:
    def test_frozen_example_is_float_exact(self):
        m = map_two_order_params(TwoOrderParams(0.9, 0.1, 0.23, 0.22))
        assert m == MainParams(e_h=0.1, rho_h=0.23, rho_d=0.45)

    def test_all_ones(self):
        assert map_two_order_params(TwoOrderParams(1, 1, 1, 1)) == MainParams(0.5, 0.5, 1.0)

    def test_scaled_example_within_one_ulp(self):
        # scale factor 7 lands rho_d one ulp off 0.45; not an exact identity
        m = map_two_order_params(TwoOrderParams(0.9 * 7, 0.1 * 7, 0.23 * 7, 0.22 * 7))
        assert math.isclose(m.e_h, 0.1, rel_tol=1e-12)
        assert math.isclose(m.rho_h, 0.23, rel_tol=1e-12)
        assert math.isclose(m.rho_d, 0.45, rel_tol=1e-12)

    @given(alpha1=positive, alpha2=positive, beta1=positive, beta2=positive,
           j=st.integers(-2, 2))
    @settings(max_examples=60)
    def test_mapping_ignores_power_of_two_scale(self, alpha1, alpha2, beta1, beta2, j):
        lam = 2.0 ** j
        a = map_two_order_params(TwoOrderParams(alpha1, alpha2, beta1, beta2))
        b = map_two_order_params(TwoOrderParams(lam * alpha1, lam * alpha2,
                                                lam * beta1, lam * beta2))
        assert a == b


def test_map_configuration_collapses_private_cooperators():
    config = np.array([0, 1, 2, 3, 3, 2], dtype=np.int8)
    mapped = map_configuration(config)
    assert mapped.tolist() == [0, 1, 2, 0, 0, 2]
    assert mapped.dtype == np.int8
    assert np.array_equal(map_configuration(mapped), mapped)  # idempotent


class TestConditionWindows:
    def test_main_window_cases(self):
        # window for min_degree=4, e_h=0.1: 0.225 < rho_h < rho_d - 0.1
        p_in = MainParams(0.1, 0.23, 0.45)
        assert classify_main_conditions(p_in, 4) is ConditionStatus.SATISFIED
        p_low = MainParams(0.1, 0.20, 0.45)
        assert classify_main_conditions(p_low, 4) is ConditionStatus.PRESSURE_TOO_LOW
        p_high = MainParams(0.1, 0.40, 0.45)
        assert classify_main_conditions(p_high, 4) is ConditionStatus.PRESSURE_TOO_HIGH
        p_both = MainParams(0.5, 0.1, 0.2)
        assert classify_main_conditions(p_both, 4) is ConditionStatus.BOTH_VIOLATED

    def test_main_window_is_strict(self):
        # exactly on either boundary does not qualify
        on_lower = MainParams(e_h=0.5, rho_h=0.125, rho_d=1.0)  # (1-0.5)/4
        assert classify_main_conditions(on_lower, 4) is ConditionStatus.PRESSURE_TOO_LOW
        on_upper = MainParams(e_h=0.5, rho_h=0.5, rho_d=1.0)
        assert classify_main_conditions(on_upper, 4) is ConditionStatus.PRESSURE_TOO_HIGH

    def test_min_degree_validation(self):
        with pytest.raises(ValueError):
            classify_main_conditions(MainParams(0.1, 0.23, 0.45), 0)

    def test_two_order_cases(self):
        good = TwoOrderParams(alpha1=0.9, alpha2=0.1, beta1=0.23, beta2=0.22)
        assert classify_two_order_conditions(good, 10) is TwoOrderConditionStatus.SATISFIED
        pun = TwoOrderParams(alpha1=0.9, alpha2=0.5, beta1=0.23, beta2=0.22)
        assert classify_two_order_conditions(pun, 10) is TwoOrderConditionStatus.PUNISHING_TOO_COSTLY
        con = TwoOrderParams(alpha1=9.0, alpha2=0.1, beta1=0.23, beta2=0.22)
        assert classify_two_order_conditions(con, 10) is TwoOrderConditionStatus.CONTRIBUTING_TOO_COSTLY
        both = TwoOrderParams(alpha1=9.0, alpha2=0.5, beta1=0.23, beta2=0.22)
        assert classify_two_order_conditions(both, 10) is TwoOrderConditionStatus.BOTH_VIOLATED

    @given(alpha1=positive, alpha2=positive, beta1=positive, beta2=positive,
           degree=st.integers(1, 20))
    @settings(max_examples=60)
    def test_window_translation_under_reduction(self, alpha1, alpha2, beta1, beta2, degree):
        # the rescaled window agrees with the two-order window away from boundaries
        p = TwoOrderParams(alpha1, alpha2, beta1, beta2)
        m = map_two_order_params(p)
        s = alpha1 + alpha2
        margins = (abs(alpha2 - beta2) / s, abs(alpha1 - degree * beta1) / s)
        if min(margins) < 1e-9:
            return  # too close to a boundary for float agreement
        two = classify_two_order_conditions(p, degree)
        main = classify_main_conditions(m, degree)
        assert (two is TwoOrderConditionStatus.SATISFIED) == (main is ConditionStatus.SATISFIED)


class TestInitialMixes:
    def test_epsilon_validation(self):
        rng = np.random.default_rng(0)
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                sample_initial_main(10, eps, rng)

    def test_main_mix_statistics(self):
        rng = np.random.default_rng(99)
        config = sample_initial_main(200_000, 0.01, rng)
        counts = np.bincount(config, minlength=3)
        assert abs(counts[0] / 200_000 - 0.99) < 0.002
        assert abs(counts[1] / 200_000 - 0.005) < 0.002
        assert abs(counts[2] / 200_000 - 0.005) < 0.002

    def test_two_order_mix_statistics(self):
        rng = np.random.default_rng(100)
        config = sample_initial_two_order(90_000, 0.3, rng)
        counts = np.bincount(config, minlength=4)
        assert abs(counts[0] / 90_000 - 0.7) < 0.01
        for b in (1, 2, 3):
            assert abs(counts[b] / 90_000 - 0.1) < 0.01

    def test_binary_mix_has_no_hypocrites(self):
        rng = np.random.default_rng(101)
        config = sample_initial_binary(50_000, 0.25, rng)
        counts = np.bincount(config, minlength=3)
        assert counts[1] == 0
        assert abs(counts[2] / 50_000 - 0.25) < 0.01

    def test_same_seed_same_mix(self):
        a = sample_initial_main(1000, 0.05, np.random.default_rng(5))
        b = sample_initial_main(1000, 0.05, np.random.default_rng(5))
        assert np.array_equal(a, b)
        assert a.dtype == np.int8


class TestParamSerialization:
    def test_round_trip_main(self):
        p = MainParams(0.1, 0.23, 0.45)
        assert params_from_dict(asdict(p)) == p

    def test_round_trip_two_order(self):
        p = TwoOrderParams(0.9, 0.1, 0.23, 0.22)
        assert params_from_dict(asdict(p)) == p

    def test_key_set_picks_model(self):
        assert isinstance(params_from_dict({"e_h": 0.1, "rho_h": 0.2, "rho_d": 0.4}),
                          MainParams)
        assert isinstance(params_from_dict(
            {"alpha1": 1, "alpha2": 1, "beta1": 1, "beta2": 1}), TwoOrderParams)

    def test_extra_unrelated_keys_are_ignored(self):
        p = params_from_dict({"e_h": 0.1, "rho_h": 0.2, "rho_d": 0.4, "epsilon": 0.01})
        assert p == MainParams(0.1, 0.2, 0.4)

    def test_non_numeric_value_names_key(self):
        with pytest.raises(ValueError, match="'e_h' must be a number"):
            params_from_dict({"e_h": None, "rho_h": 0.2, "rho_d": 0.4})
        with pytest.raises(ValueError, match="'rho_d' must be a number"):
            params_from_dict({"e_h": 0.1, "rho_h": 0.2, "rho_d": [0.4]})

    def test_mixed_or_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="expected keys"):
            params_from_dict({"e_h": 0.1, "rho_h": 0.2, "rho_d": 0.4, "alpha1": 1.0})
        with pytest.raises(ValueError, match="expected keys"):
            params_from_dict({"e_h": 0.1, "rho_h": 0.2})
