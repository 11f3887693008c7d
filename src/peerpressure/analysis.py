"""Checks that tie simulated runs back to the model's provable guarantees.

Each check either passes judgement on a concrete run or refuses outright
when its hypotheses do not hold, so a vacuous pass can never be mistaken
for evidence. The module also carries a deliberately naive reference
stepper, written without any shared cost code, used to cross-examine the
vectorised implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphMetrics, Network
from .model import Behavior, MainParams, TwoOrderParams, map_configuration, map_two_order_params
from .dynamics import RuleKind, Trace, UpdateRule, run


class CheckRefused(ValueError):
    """A verification check declined to run because its hypotheses fail."""


def convergence_round(trace: Trace) -> int | None:
    """First round from which the run is all-cooperator through trace end.

    Returns None when the final recorded round is not all-cooperator (a
    transient visit to full cooperation does not count).
    """
    counts = trace.counts
    n = trace.n
    all_c = counts[:, Behavior.COOPERATOR] == n
    if not all_c[-1]:
        return None
    later_bad = np.flatnonzero(~all_c)
    return int(later_bad[-1]) + 1 if later_bad.size else 0


@dataclass(frozen=True)
class BoundAudit:
    """Outcome of comparing one run against the convergence-round bound.

    ``bound_applicable`` records whether the initial configuration met the
    guarantee's seeding hypothesis (some non-defector; for bipartite
    networks, one on each side). ``satisfied`` is the literal comparison
    ``converged_round is not None and converged_round <= bound`` and only
    carries weight when the bound applies.
    """

    bound_applicable: bool
    bound: int
    converged_round: int | None
    satisfied: bool

    def report_line(self, instance_id: int | str) -> str:
        converged = "" if self.converged_round is None else str(self.converged_round)
        return (f"{instance_id},{str(self.bound_applicable).lower()},{self.bound},"
                f"{converged},{str(self.satisfied).lower()}")


def convergence_bound(metrics: GraphMetrics) -> int:
    """Round by which greedy main-model runs inside the strict parameter
    window provably reach full cooperation: ``diameter + 1`` on bipartite
    networks seeded with a non-defector on each side, ``3 * diameter + 1``
    on other networks seeded with at least one non-defector."""
    return metrics.diameter + 1 if metrics.is_bipartite else 3 * metrics.diameter + 1


def audit_convergence_bound(metrics: GraphMetrics, trace: Trace, initial: np.ndarray) -> BoundAudit:
    """Compare a greedy main-model run against :func:`convergence_bound`.

    Reads only ``trace.counts``, so the run needs no snapshots. Refuses
    (raises :class:`CheckRefused`) for traces run under any other rule or
    with parameters outside the window, where the bound claims nothing.
    """
    from .model import ConditionStatus, classify_main_conditions

    if trace.rule.kind is not RuleKind.MAIN_GREEDY:
        raise CheckRefused(f"bound audit requires the greedy main rule, got {trace.rule.kind.value}")
    status = classify_main_conditions(trace.params, metrics.min_degree)
    if status is not ConditionStatus.SATISFIED:
        raise CheckRefused(f"parameters are outside the convergence window: {status.value}")

    initial = np.asarray(initial, dtype=np.int8)
    nondefector = initial != Behavior.DEFECTOR
    if metrics.bipartition is not None:
        side_a, side_b = metrics.bipartition
        applicable = bool(nondefector[list(side_a)].any() and nondefector[list(side_b)].any())
    else:
        applicable = bool(nondefector.any())
    bound = convergence_bound(metrics)
    converged = convergence_round(trace)
    satisfied = converged is not None and converged <= bound
    return BoundAudit(bound_applicable=applicable, bound=bound,
                      converged_round=converged, satisfied=satisfied)


def neighborhood(network: Network, chosen: np.ndarray) -> np.ndarray:
    """Mask of the vertices with a neighbour in the boolean mask ``chosen``."""
    grown = np.zeros(network.vertex_count, dtype=bool)
    grown[network.indices[chosen[network.neighbor_src]]] = True
    return grown


def check_contagion(network: Network, before: np.ndarray, after: np.ndarray,
                    params: MainParams) -> bool:
    """Is the non-defector set after one greedy round exactly the
    neighbourhood of the non-defector set before it?

    This set identity is guaranteed for the greedy main model whenever
    open defection is the most expensive escape (``e_h + rho_h < rho_d``)
    and keeping up appearances actually costs something (``e_h > 0``);
    outside that regime the check refuses rather than report noise.
    """
    if not params.e_h + params.rho_h < params.rho_d:
        raise CheckRefused("contagion requires e_h + rho_h < rho_d")
    if params.e_h <= 0.0:
        raise CheckRefused("contagion requires e_h > 0")
    before = np.asarray(before, dtype=np.int8)
    after = np.asarray(after, dtype=np.int8)
    n = network.vertex_count
    if before.shape != (n,) or after.shape != (n,):
        raise ValueError(f"configuration shapes {before.shape}, {after.shape} do not match n={n}")
    if before.max(initial=0) > Behavior.COOPERATOR or after.max(initial=0) > Behavior.COOPERATOR:
        raise CheckRefused("contagion is a main-model check")
    return np.array_equal(after != Behavior.DEFECTOR,
                          neighborhood(network, before != Behavior.DEFECTOR))


def check_reduction_equivalence(network: Network, trace: Trace, seed: int) -> bool:
    """Does a two-order run collapse onto its rescaled main-model run?

    ``trace`` is a two-order greedy run on ``network`` with snapshots,
    its draws taken from ``np.random.default_rng(seed)``. The check runs
    the main greedy dynamics from the collapsed ``trace.snapshots[0]``
    under the rescaled ``trace.params`` for ``trace.rounds`` rounds,
    against a fresh draw stream built from the same ``seed``, and demands
    identical configurations at every round from 1 on (round 0 may
    differ: collapsing erases private cooperators). Refuses for a trace
    under any other rule or without snapshots, and unless
    ``alpha2 < beta2``, the regime in which private cooperation is
    strictly dominated and the equivalence is provable.
    """
    if trace.rule.kind is not RuleKind.TWO_ORDER_GREEDY or trace.snapshots is None:
        raise CheckRefused("reduction equivalence needs a two-order greedy trace with snapshots")
    if not trace.params.alpha2 < trace.params.beta2:
        raise CheckRefused("reduction equivalence requires alpha2 < beta2")
    collapsed = run(network, map_configuration(trace.snapshots[0]),
                    map_two_order_params(trace.params), UpdateRule.main_greedy(),
                    np.random.default_rng(seed), max_rounds=trace.rounds, record_snapshots=True)
    return all(np.array_equal(map_configuration(two_order), main)
               for two_order, main in zip(trace.snapshots[1:], collapsed.snapshots[1:]))


# ---------------------------------------------------------------------------
# naive reference stepper
# ---------------------------------------------------------------------------


class PresetDraws:
    """Draw source for :func:`~peerpressure.dynamics.step` that hands out
    preset uniforms in request order and raises once they run out."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)
        self._used = 0

    def random(self, size: int) -> np.ndarray:
        end = self._used + size
        if end > self._values.size:
            raise ValueError(f"preset draws exhausted: {size} requested, "
                             f"{self._values.size - self._used} left")
        block = self._values[self._used:end]
        self._used = end
        return block


def reference_step(network: Network, config, params, draws, rule: UpdateRule) -> list[int]:
    """One revision round recomputed the slow, obvious way.

    Pure-Python loops, costs written out literally, behaviours compared
    one at a time; shares no cost or selection code with
    :func:`peerpressure.dynamics.step`, its only common ground being the
    documented tie sub-interval convention. The i-th tied player, in
    ascending index, decides with the uniform ``draws[i]``, as ``step``
    does when fed ``PresetDraws(draws)``.
    """
    if rule.kind is RuleKind.MAIN_NOISY:
        raise ValueError("reference stepper only covers greedy rules")

    n = network.vertex_count
    config = list(int(b) for b in config)
    if len(config) != n:
        raise ValueError("configuration length does not match the network")

    punishes = {int(Behavior.HYPOCRITICAL), int(Behavior.COOPERATOR)}
    result = []
    cursor = 0
    for u in range(n):
        k = 0
        for v in network.neighbors(u):
            if config[v] in punishes:
                k += 1
        options: list[tuple[int, float]] = []
        if isinstance(params, TwoOrderParams):
            options.append((int(Behavior.COOPERATOR), params.alpha1 + params.alpha2))
            options.append((int(Behavior.HYPOCRITICAL), params.alpha2 + k * params.beta1))
            options.append((int(Behavior.DEFECTOR), k * (params.beta1 + params.beta2)))
            options.append((int(Behavior.PRIVATE_COOPERATOR), params.alpha1 + k * params.beta2))
        else:
            options.append((int(Behavior.COOPERATOR), 1.0))
            options.append((int(Behavior.HYPOCRITICAL), params.e_h + k * params.rho_h))
            if rule.kind is RuleKind.MAIN_NO_HYPOCRISY:
                options = [opt for opt in options if opt[0] != int(Behavior.HYPOCRITICAL)]
            options.append((int(Behavior.DEFECTOR), k * params.rho_d))

        best = min(cost for _, cost in options)
        tied = [b for b, cost in options if cost == best]
        if len(tied) == 1:
            result.append(tied[0])
        else:
            if cursor == len(draws):
                raise ValueError(f"too few draws for the tied players: {len(draws)} given")
            r = float(draws[cursor])
            cursor += 1
            m = len(tied)
            idx = math.ceil(r * m) - 1
            idx = min(max(idx, 0), m - 1)
            result.append(tied[idx])
    return result
