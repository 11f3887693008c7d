"""Synchronous best-response dynamics.

Every round, every player simultaneously adopts the behaviour that would
have cost the least in the configuration just played, with costs from
:mod:`peerpressure.model`. Cost comparisons are exact float comparisons;
no tolerance is applied, so ties are genuine equalities.

Randomness contract
-------------------
All randomness flows through a single :class:`numpy.random.Generator`
per run, consumed in a fixed documented order so that equal seeds
reproduce runs bit for bit. A block request of ``size`` uniforms equals
that many single requests, so only the order of the draws matters:

* Greedy rules consume exactly one uniform draw per (player, round)
  decision, and only when that decision is tied. Draws are consumed in
  ascending player index within a round.
* When a decision over ``m`` tied behaviours consumes the uniform ``r``,
  the tied behaviours are laid out in the fixed preference order
  (cooperator, hypocrite, defector, private cooperator) over ``m`` equal
  consecutive sub-intervals of [0, 1], the first closed and the rest
  half-open on the left; the behaviour whose sub-interval contains ``r``
  is adopted. With two tied behaviours the first is chosen iff r <= 0.5.
* The noisy rule additionally consumes one noise draw per player per
  round, always, before any tie draw of that round: at the start of the
  round noise draws for players 0..n-1 are taken, then tie draws follow
  ascending player index. A player whose noise draw ``r`` exceeds the
  greedy probability skips cost minimisation (and consumes no tie draw);
  its behaviour is instead chosen uniformly over all available
  behaviours by rescaling the same noise draw onto (0, 1] and applying
  the sub-interval layout above.

Decision table
--------------
A player's costs depend only on its behaviour and on ``k``, the number of
its neighbours currently punishing, and ``k`` never exceeds the maximum
degree. :func:`decision_table` therefore evaluates the model's cost
functions (:func:`~peerpressure.model.cost_main`,
:func:`~peerpressure.model.cost_two_order`) once over the array of every
``k`` in ``0..max_degree`` and records the first-preference cheapest
behaviour, the number of tied cheapest behaviours and the tied behaviours
in preference order. A round counts ``k`` for every player, looks up the
choice, and resolves ties only for players whose ``k`` is tied. On
networks where every vertex has the same degree ``d`` the counts are sums
of ``d`` gathered columns in an integer type wide enough for ``d``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import Network
from .model import (
    Behavior,
    MainParams,
    TwoOrderParams,
    MAIN_BEHAVIORS,
    TWO_ORDER_BEHAVIORS,
    BINARY_BEHAVIORS,
    TIE_PRIORITY,
    cost_main,
    cost_two_order,
)


class RuleKind(Enum):
    MAIN_GREEDY = "main-greedy"
    MAIN_NOISY = "main-noisy"
    MAIN_NO_HYPOCRISY = "main-no-hypocrisy"
    TWO_ORDER_GREEDY = "two-order-greedy"


@dataclass(frozen=True)
class UpdateRule:
    """A behaviour-revision rule: which model, which options, how greedy."""

    kind: RuleKind
    p_greedy: float = 1.0

    def __post_init__(self) -> None:
        if self.kind is not RuleKind.MAIN_NOISY and self.p_greedy != 1.0:
            raise ValueError("p_greedy is only meaningful for the noisy rule")
        if not 0.0 <= self.p_greedy <= 1.0:
            raise ValueError(f"p_greedy must lie in [0, 1], got {self.p_greedy}")

    @classmethod
    def main_greedy(cls) -> "UpdateRule":
        return cls(RuleKind.MAIN_GREEDY)

    @classmethod
    def main_noisy(cls, p_greedy: float) -> "UpdateRule":
        return cls(RuleKind.MAIN_NOISY, p_greedy=p_greedy)

    @classmethod
    def main_no_hypocrisy(cls) -> "UpdateRule":
        return cls(RuleKind.MAIN_NO_HYPOCRISY)

    @classmethod
    def two_order_greedy(cls) -> "UpdateRule":
        return cls(RuleKind.TWO_ORDER_GREEDY)

    @property
    def available(self) -> tuple[Behavior, ...]:
        if self.kind is RuleKind.MAIN_NO_HYPOCRISY:
            return BINARY_BEHAVIORS
        if self.kind is RuleKind.TWO_ORDER_GREEDY:
            return TWO_ORDER_BEHAVIORS
        return MAIN_BEHAVIORS

    @property
    def is_two_order(self) -> bool:
        return self.kind is RuleKind.TWO_ORDER_GREEDY

    def check_params(self, params) -> None:
        """Raise ``ValueError`` unless ``params`` belong to this rule's model."""
        if self.is_two_order:
            if not isinstance(params, TwoOrderParams):
                raise ValueError("two-order rule requires TwoOrderParams")
        elif not isinstance(params, MainParams):
            raise ValueError(f"rule {self.kind.value} requires MainParams")


class Termination(Enum):
    MAX_ROUNDS = "max-rounds"
    FIXED_POINT = "fixed-point"
    TWO_CYCLE = "two-cycle"


@dataclass
class Trace:
    """Per-round behaviour counts of one run, plus how the run ended.

    ``counts[t]`` holds the number of players in each behaviour (column
    order: defector, hypocrite, cooperator, and private cooperator for
    two-order runs) after round ``t``; row 0 is the initial configuration.
    ``round_reached`` is the first round of the detected terminal pattern
    for early-stopped runs (the repeated round for a fixed point, the
    first provably periodic round for a two-cycle) and the last simulated
    round otherwise. ``snapshots``, when recorded, holds every
    configuration including the initial one.
    """

    counts: np.ndarray
    round_reached: int
    termination: Termination
    rule: UpdateRule
    params: MainParams | TwoOrderParams
    snapshots: list[np.ndarray] | None = None

    @property
    def n(self) -> int:
        return int(self.counts[0].sum())

    @property
    def rounds(self) -> int:
        """Number of simulated rounds (rows minus the initial one)."""
        return self.counts.shape[0] - 1


def punishing_counts(network: Network, config: np.ndarray) -> np.ndarray:
    """Per-vertex count of neighbours currently punishing.

    Hypocrites and cooperators punish, defectors and private cooperators
    do not; in the main model this is exactly the non-defector neighbour
    count. When every vertex has degree ``d`` the counts add the ``d``
    columns of the gathered ``(n, d)`` neighbour mask in the narrowest
    unsigned type that holds ``d``; otherwise they come from a weighted
    ``bincount`` as int64.
    """
    mask = (config == Behavior.HYPOCRITICAL) | (config == Behavior.COOPERATOR)
    n = network.vertex_count
    d = network.regular_degree
    if d is not None:
        counts = np.zeros(n, dtype=np.min_scalar_type(d))
        for column in mask[network.indices].reshape(n, d).T:
            counts += column
        return counts
    weights = mask[network.indices].astype(np.float64)
    return np.bincount(network.neighbor_src, weights=weights,
                       minlength=n).astype(np.int64)


def _validate_config(config: np.ndarray, n: int, rule: UpdateRule) -> np.ndarray:
    config = np.asarray(config, dtype=np.int8)
    if config.shape != (n,):
        raise ValueError(f"configuration shape {config.shape} does not match n={n}")
    limit = 4 if rule.is_two_order else 3
    if config.size and (config.min() < 0 or config.max() >= limit):
        raise ValueError(f"behaviour codes out of range for rule {rule.kind.value}")
    return config


@dataclass(frozen=True, eq=False)
class DecisionTable:
    """Best responses of one parameter set and rule, per punishing count k.

    Row ``k`` of ``tied`` lists the behaviour codes in preference order
    with the cheapest ones first, so ``tied[k, 0]`` is the first-preference
    choice and ``tied[k, :n_min[k]]`` are the behaviours tied at the
    minimum cost. ``codes`` holds the rule's behaviours in preference order.
    """

    params: MainParams | TwoOrderParams
    rule: UpdateRule
    codes: np.ndarray
    choice: np.ndarray
    n_min: np.ndarray
    is_tied: np.ndarray
    tied: np.ndarray


def decision_table(params, rule: UpdateRule, max_count: int) -> DecisionTable:
    """Tabulate the best responses for punishing counts ``0..max_count``.

    The cost rows are :func:`~peerpressure.model.cost_main` or
    :func:`~peerpressure.model.cost_two_order` evaluated over the array of
    counts, one row per available behaviour in preference order, so table
    lookups reproduce the model's exact float costs and ties.
    """
    rule.check_params(params)
    cost = cost_two_order if rule.is_two_order else cost_main
    behaviours = [b for b in TIE_PRIORITY if b in rule.available]
    k = np.arange(max_count + 1)
    costs = np.empty((len(behaviours), max_count + 1))
    for row, behaviour in zip(costs, behaviours):
        row[:] = cost(behaviour, k, params)
    codes = np.array(behaviours, dtype=np.int8)
    is_min = costs == costs.min(axis=0, keepdims=True)
    n_min = is_min.sum(axis=0)
    # a stable sort keeps preference order within the cheapest and the rest
    tied = codes[np.argsort(~is_min, axis=0, kind="stable")].T.copy()
    return DecisionTable(params=params, rule=rule, codes=codes, choice=tied[:, 0].copy(),
                         n_min=n_min, is_tied=n_min > 1, tied=tied)


def _interval_pick(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Index of the sub-interval of [0, 1] split into m equal parts hit by r.

    Intervals are [0, 1/m], (1/m, 2/m], ..., ((m-1)/m, 1], so r = 0.5 with
    m = 2 selects index 0.
    """
    return np.clip(np.ceil(r * m).astype(np.int64) - 1, 0, m - 1)


def step(network: Network, config: np.ndarray, params, rule: UpdateRule,
         ties, table: DecisionTable | None = None) -> np.ndarray:
    """One synchronous revision round; returns the next configuration.

    Every player looks up the cheapest behaviours available under
    ``rule`` for its punishing-neighbour count in ``config`` (see
    :func:`decision_table`) and adopts one, resolving exact-tie sets
    through ``ties``, a :class:`numpy.random.Generator` or any object whose
    ``random(size)`` returns the next ``size`` uniforms: the noisy rule
    first takes ``ties.random(n)`` noise draws, then one call takes a tie
    draw per tied player in ascending index.

    Without ``table`` the parameters and the configuration are validated
    and a table is built for the network's maximum degree. A caller that
    passes the ``table`` of ``params`` and ``rule`` vouches for a valid
    configuration, as :func:`run` does after checking the initial one.
    """
    noisy = rule.kind is RuleKind.MAIN_NOISY
    n = network.vertex_count
    if table is None:
        table = decision_table(params, rule, int(network.degrees.max(initial=0)))
        config = _validate_config(config, n, rule)
    elif table.params != params or table.rule != rule:
        raise ValueError("decision table was built for other parameters or another rule")

    k = punishing_counts(network, config)
    out = table.choice.take(k)

    if noisy:
        noise = ties.random(n)
        random_mask = noise > rule.p_greedy

    if table.is_tied.any():
        tied = np.flatnonzero(table.is_tied.take(k))
        if noisy and tied.size:
            tied = tied[~random_mask[tied]]
        if tied.size:
            k_tied = k[tied]
            picked = _interval_pick(ties.random(tied.size), table.n_min[k_tied])
            out[tied] = table.tied[k_tied, picked]

    if noisy and random_mask.any():
        codes = table.codes
        idx = np.flatnonzero(random_mask)
        rescaled = (noise[idx] - rule.p_greedy) / (1.0 - rule.p_greedy)
        out[idx] = codes[_interval_pick(rescaled, np.full(idx.shape, len(codes)))]
    return out


def _behaviour_counts(config: np.ndarray, width: int) -> list[int]:
    # count_nonzero per code avoids the int8 -> intp cast that bincount makes
    return [np.count_nonzero(config == code) for code in range(width)]


def run(network: Network, initial: np.ndarray, params, rule: UpdateRule, ties,
        max_rounds: int, early_stop: bool = False,
        record_snapshots: bool = False) -> Trace:
    """Iterate :func:`step` for up to ``max_rounds`` rounds.

    The parameters and the initial configuration are validated once and
    one decision table serves every round; later configurations are
    table outputs and valid by construction. With ``early_stop`` the run
    halts as soon as the latest configuration repeats the previous one
    (fixed point) or the one before that (two-cycle); otherwise exactly
    ``max_rounds`` rounds are simulated, which keeps round counts
    comparable across runs.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    if network.vertex_count == 0:
        raise ValueError("simulation requires a non-empty network")
    if not network.is_connected():
        raise ValueError("simulation requires a connected network")
    table = decision_table(params, rule, int(network.degrees.max(initial=0)))
    config = _validate_config(initial, network.vertex_count, rule).copy()

    width = 4 if rule.is_two_order else 3
    counts = [_behaviour_counts(config, width)]
    snapshots = [config] if record_snapshots else None
    prev = None
    termination = Termination.MAX_ROUNDS
    round_reached = max_rounds
    for t in range(1, max_rounds + 1):
        nxt = step(network, config, params, rule, ties, table=table)
        counts.append(_behaviour_counts(nxt, width))
        if record_snapshots:
            snapshots.append(nxt)
        if early_stop:
            if np.array_equal(nxt, config):
                termination = Termination.FIXED_POINT
                round_reached = t - 1
                break
            if prev is not None and np.array_equal(nxt, prev):
                termination = Termination.TWO_CYCLE
                round_reached = t - 2
                break
        prev = config
        config = nxt
    return Trace(counts=np.array(counts, dtype=np.int64), round_reached=round_reached,
                 termination=termination, rule=rule, params=params, snapshots=snapshots)


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

_COLUMNS = ("defectors", "hypocritical", "cooperators", "private_cooperators")


def format_trace_csv(trace: Trace) -> str:
    width = trace.counts.shape[1]
    buf = io.StringIO()
    buf.write("round," + ",".join(_COLUMNS[:width]) + "\n")
    for t, row in enumerate(trace.counts):
        buf.write(f"{t}," + ",".join(str(int(x)) for x in row) + "\n")
    return buf.getvalue()


def write_trace_csv(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_trace_csv(trace))
