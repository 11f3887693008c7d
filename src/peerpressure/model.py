"""Behaviours, per-round costs, parameter regimes and initial configurations.

Two cost models share one behaviour encoding. In the main model a player is
a defector, a hypocrite or a cooperator; cooperating costs 1 (the
normalised contribution), while not cooperating costs a per-neighbour
pressure fee for every neighbour who currently punishes. Hypocrites
punish without contributing: they pay a fixed image cost ``e_h`` plus a
reduced pressure fee ``rho_h`` per punishing neighbour, whereas open
defectors pay ``rho_d`` per punishing neighbour.

The two-order model splits a behaviour into two independent choices,
contributing and punishing. Contributing costs ``alpha1``; punishing costs
``alpha2``; every punishing neighbour charges ``beta1`` to players who do
not contribute and ``beta2`` to players who do not punish. The four
combinations are: cooperator (contributes, punishes), defector (neither),
hypocrite (punishes only) and private cooperator (contributes only).

Configurations are numpy int8 vectors of behaviour codes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum, IntEnum

import numpy as np


class Behavior(IntEnum):
    """Behaviour codes. Order matches trace-count columns."""

    DEFECTOR = 0
    HYPOCRITICAL = 1
    COOPERATOR = 2
    PRIVATE_COOPERATOR = 3


MAIN_BEHAVIORS = (Behavior.DEFECTOR, Behavior.HYPOCRITICAL, Behavior.COOPERATOR)
TWO_ORDER_BEHAVIORS = MAIN_BEHAVIORS + (Behavior.PRIVATE_COOPERATOR,)
BINARY_BEHAVIORS = (Behavior.DEFECTOR, Behavior.COOPERATOR)

# Fixed preference order used whenever several behaviours cost the same.
TIE_PRIORITY = (
    Behavior.COOPERATOR,
    Behavior.HYPOCRITICAL,
    Behavior.DEFECTOR,
    Behavior.PRIVATE_COOPERATOR,
)


def finite_number(key: str, value) -> float:
    """``value`` as a float; a bool, a non-number or a non-finite value
    raises ``ValueError`` naming ``key`` (NaN would pass any range check)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key!r} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{key!r} must be finite, got {value!r}")
    return float(value)


class ConditionStatus(Enum):
    """Outcome of the main-model convergence-regime check."""

    SATISFIED = "satisfied"
    PRESSURE_TOO_LOW = "pressure-too-low"
    PRESSURE_TOO_HIGH = "pressure-too-high"
    BOTH_VIOLATED = "both-violated"


class TwoOrderConditionStatus(Enum):
    """Outcome of the two-order convergence-regime check."""

    SATISFIED = "satisfied"
    PUNISHING_TOO_COSTLY = "punishing-too-costly"
    CONTRIBUTING_TOO_COSTLY = "contributing-too-costly"
    BOTH_VIOLATED = "both-violated"


@dataclass(frozen=True)
class MainParams:
    """Main-model parameters.

    The model regime is ``0 < e_h < 1`` with positive pressures, but
    boundary and degenerate values are accepted so that parameter sweeps
    can cover full axis ranges; :meth:`regime_notes` reports anything out
    of regime instead of rejecting it. Every value must be a finite number.
    """

    e_h: float
    rho_h: float
    rho_d: float

    def __post_init__(self) -> None:
        for name in MAIN_KEYS:
            finite_number(name, getattr(self, name))
        if not 0.0 <= self.e_h <= 1.0:
            raise ValueError(f"e_h must lie in [0, 1], got {self.e_h}")
        if self.rho_h < 0.0:
            raise ValueError(f"rho_h must be non-negative, got {self.rho_h}")
        if self.rho_d <= 0.0:
            raise ValueError(f"rho_d must be positive, got {self.rho_d}")

    def regime_notes(self) -> tuple[str, ...]:
        notes = []
        if self.e_h == 0.0 or self.e_h == 1.0:
            notes.append(f"e_h={self.e_h} is on the regime boundary (0 < e_h < 1)")
        if self.rho_h == 0.0:
            notes.append("rho_h=0 disables hypocrite pressure")
        if self.rho_h >= self.rho_d:
            notes.append(f"rho_h={self.rho_h} >= rho_d={self.rho_d}")
        return tuple(notes)


@dataclass(frozen=True)
class TwoOrderParams:
    """Two-order model parameters; all four costs must be positive and finite."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        for name in TWO_ORDER_KEYS:
            if finite_number(name, getattr(self, name)) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def cost_main(behavior: Behavior, punishing_neighbors, params: MainParams):
    """Round cost in the main model given the punishing-neighbour count.

    Cooperators pay the unit contribution and no pressure. Defectors and
    hypocrites pay their pressure rate per punishing neighbour; hypocrites
    additionally pay the flat image-keeping cost. ``punishing_neighbors``
    is an integer or an integer array; an array gives one cost per entry
    (the cooperator cost stays the scalar 1.0).
    """
    k = punishing_neighbors
    if np.min(k) < 0:
        raise ValueError("punishing_neighbors must be >= 0")
    if behavior is Behavior.COOPERATOR:
        return 1.0
    if behavior is Behavior.DEFECTOR:
        return params.rho_d * k
    if behavior is Behavior.HYPOCRITICAL:
        return params.e_h + params.rho_h * k
    raise ValueError(f"{behavior!r} is not a main-model behavior")


def cost_two_order(behavior: Behavior, punishing_neighbors, params: TwoOrderParams):
    """Round cost in the two-order model.

    A player pays ``alpha1`` if contributing and ``alpha2`` if punishing;
    each punishing neighbour charges ``beta1`` if the player does not
    contribute and ``beta2`` if the player does not punish.
    ``punishing_neighbors`` is an integer or an integer array, as in
    :func:`cost_main`.
    """
    k = punishing_neighbors
    if np.min(k) < 0:
        raise ValueError("punishing_neighbors must be >= 0")
    if behavior is Behavior.COOPERATOR:
        return params.alpha1 + params.alpha2
    if behavior is Behavior.DEFECTOR:
        return k * (params.beta1 + params.beta2)
    if behavior is Behavior.HYPOCRITICAL:
        return params.alpha2 + k * params.beta1
    if behavior is Behavior.PRIVATE_COOPERATOR:
        return params.alpha1 + k * params.beta2
    raise ValueError(f"unknown behavior {behavior!r}")


# ---------------------------------------------------------------------------
# initial configurations
# ---------------------------------------------------------------------------


def check_epsilon(epsilon: float) -> None:
    """Raise ``ValueError`` unless the initial non-defector share lies in (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"'epsilon' must lie strictly between 0 and 1, got {epsilon}")


def sample_initial_main(n: int, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """Defector w.p. 1-epsilon, else hypocrite or cooperator (epsilon/2 each).

    One uniform per vertex; the interval [1-eps, 1-eps/2) maps to
    hypocrite and [1-eps/2, 1) to cooperator.
    """
    check_epsilon(epsilon)
    u = rng.random(n)
    config = np.zeros(n, dtype=np.int8)
    config[u >= 1.0 - epsilon] = Behavior.HYPOCRITICAL
    config[u >= 1.0 - epsilon / 2.0] = Behavior.COOPERATOR
    return config


def sample_initial_two_order(n: int, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """Defector w.p. 1-epsilon, else one of the other three (epsilon/3 each).

    The residual interval maps to cooperator, hypocrite, private
    cooperator in that order.
    """
    check_epsilon(epsilon)
    u = rng.random(n)
    config = np.zeros(n, dtype=np.int8)
    config[u >= 1.0 - epsilon] = Behavior.COOPERATOR
    config[u >= 1.0 - 2.0 * epsilon / 3.0] = Behavior.HYPOCRITICAL
    config[u >= 1.0 - epsilon / 3.0] = Behavior.PRIVATE_COOPERATOR
    return config


def sample_initial_binary(n: int, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """Defector w.p. 1-epsilon, cooperator otherwise (no hypocrites)."""
    check_epsilon(epsilon)
    u = rng.random(n)
    config = np.zeros(n, dtype=np.int8)
    config[u >= 1.0 - epsilon] = Behavior.COOPERATOR
    return config


# ---------------------------------------------------------------------------
# reduction from the two-order model to the main model
# ---------------------------------------------------------------------------


def map_two_order_params(params: TwoOrderParams) -> MainParams:
    """Rescale two-order parameters into main-model parameters.

    Dividing every cost by the full contribution-plus-punishment price
    ``alpha1 + alpha2`` normalises the cooperator cost to 1 and yields
    ``e_h = alpha2 / s``, ``rho_h = beta1 / s``, ``rho_d = (beta1 + beta2) / s``.
    """
    s = params.alpha1 + params.alpha2
    return MainParams(e_h=params.alpha2 / s, rho_h=params.beta1 / s,
                      rho_d=(params.beta1 + params.beta2) / s)


def map_configuration(config: np.ndarray) -> np.ndarray:
    """Collapse private cooperators onto defectors, fixing everything else.

    Private cooperators do not punish, so to every neighbour they are
    indistinguishable from defectors; this is the configuration half of
    the two-order-to-main reduction.
    """
    config = np.asarray(config, dtype=np.int8)
    return np.where(config == Behavior.PRIVATE_COOPERATOR,
                    np.int8(Behavior.DEFECTOR), config)


# ---------------------------------------------------------------------------
# convergence-regime checks
# ---------------------------------------------------------------------------


def classify_main_conditions(params: MainParams, min_degree: int) -> ConditionStatus:
    """Check the strict window ``(1 - e_h)/min_degree < rho_h < rho_d - e_h``.

    Inside the window, hypocrite pressure is strong enough that a player
    whose neighbours all punish prefers contributing (lower bound) yet
    cheap enough that punishing beats open defection whenever at least one
    neighbour punishes (upper bound). Both comparisons are strict;
    boundary values do not qualify.
    """
    if min_degree < 1:
        raise ValueError(f"min_degree must be >= 1, got {min_degree}")
    lower_ok = params.rho_h > (1.0 - params.e_h) / min_degree
    upper_ok = params.rho_h < params.rho_d - params.e_h
    if lower_ok and upper_ok:
        return ConditionStatus.SATISFIED
    if not lower_ok and not upper_ok:
        return ConditionStatus.BOTH_VIOLATED
    return ConditionStatus.PRESSURE_TOO_LOW if not lower_ok else ConditionStatus.PRESSURE_TOO_HIGH


def classify_two_order_conditions(params: TwoOrderParams,
                                  min_degree: int) -> TwoOrderConditionStatus:
    """Check ``alpha2 < beta2`` and ``alpha1 < min_degree * beta1``, strictly.

    The first makes punishing cheaper than being punished for not
    punishing; the second makes contributing cheaper than being punished
    by a full neighbourhood for not contributing.
    """
    if min_degree < 1:
        raise ValueError(f"min_degree must be >= 1, got {min_degree}")
    punish_ok = params.alpha2 < params.beta2
    contribute_ok = params.alpha1 < min_degree * params.beta1
    if punish_ok and contribute_ok:
        return TwoOrderConditionStatus.SATISFIED
    if not punish_ok and not contribute_ok:
        return TwoOrderConditionStatus.BOTH_VIOLATED
    if not punish_ok:
        return TwoOrderConditionStatus.PUNISHING_TOO_COSTLY
    return TwoOrderConditionStatus.CONTRIBUTING_TOO_COSTLY


# ---------------------------------------------------------------------------
# flat key-value serialization
# ---------------------------------------------------------------------------

MAIN_KEYS = tuple(f.name for f in fields(MainParams))
TWO_ORDER_KEYS = tuple(f.name for f in fields(TwoOrderParams))


def params_from_dict(record: dict) -> MainParams | TwoOrderParams:
    """Build parameters from a flat mapping; the key set picks the model.

    A parameter set is either all of :data:`MAIN_KEYS` or all of
    :data:`TWO_ORDER_KEYS`; keys outside both are ignored. Each value
    passes :func:`finite_number`.
    """
    expected = f"expected keys {MAIN_KEYS} or {TWO_ORDER_KEYS}"
    main = [k for k in MAIN_KEYS if k in record]
    two_order = [k for k in TWO_ORDER_KEYS if k in record]
    if main and two_order:
        raise ValueError(f"main-model keys {main} mixed with two-order keys {two_order}; "
                         f"{expected}")
    keys = TWO_ORDER_KEYS if two_order else MAIN_KEYS
    missing = [k for k in keys if k not in record]
    if missing:
        raise ValueError(f"missing parameter {', '.join(map(repr, missing))}; {expected}")
    values = {k: finite_number(k, record[k]) for k in keys}
    return TwoOrderParams(**values) if two_order else MainParams(**values)
