"""Randomised verification suites for the model's provable guarantees.

Each suite draws a batch of random instances from a seeded generator,
checks one guarantee on each, and returns per-instance outcomes. The
suites are deliberately adversarial about instance diversity (mixed graph
families, parameter scales and initial densities) while staying inside
each guarantee's hypotheses, which every instance re-checks explicitly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graphs import Network, build_torus_grid, compute_metrics, sample_random_regular
from .model import (
    Behavior,
    ConditionStatus,
    MainParams,
    TwoOrderParams,
    classify_main_conditions,
    sample_initial_main,
    sample_initial_two_order,
)
from .dynamics import UpdateRule, decision_table, run, step
from .experiments import derived_seed
from .analysis import (
    PresetDraws,
    audit_convergence_bound,
    check_contagion,
    check_reduction_equivalence,
    convergence_bound,
    convergence_round,
    reference_step,
)


@dataclass(frozen=True)
class InstanceOutcome:
    instance_id: int
    passed: bool
    detail: str

    def report_line(self, suite: str) -> str:
        return f"{suite},{self.instance_id},{'pass' if self.passed else 'FAIL'},{self.detail}"


def _random_connected_network(rng: np.random.Generator, max_n: int) -> Network:
    """A connected graph from a rotating mix of families, capped at max_n."""
    family = rng.integers(0, 5)
    if family == 0:
        return build_torus_grid(int(rng.integers(3, 7)), int(rng.integers(3, 7)))
    if family == 1:
        d = int(rng.integers(3, 7))
        n = int(rng.integers(d + 2, max(d + 3, min(max_n, 40))))
        return sample_random_regular(n, d, rng)
    if family == 2:
        return _random_gnp(rng, int(rng.integers(5, max_n + 1)))
    if family == 3:
        return _cycle(int(rng.integers(3, min(max_n, 30) + 1)))
    return _complete(int(rng.integers(4, min(max_n, 12) + 1)))


# The suites build their own graphs from boolean adjacency matrices, which
# are symmetric with a false diagonal by construction, through the trusted
# door: no network in this module is validated.


def _cycle(n: int) -> Network:
    """The cycle 0 - 1 - ... - (n - 1) - 0, for n >= 3."""
    succ = np.eye(n, k=1, dtype=bool) | np.eye(n, k=1 - n, dtype=bool)
    return Network._from_adjacency(succ | succ.T)


def _complete(n: int) -> Network:
    """The complete graph on n >= 2 vertices."""
    return Network._from_adjacency(~np.eye(n, dtype=bool))


def _complete_bipartite(small: int, total: int) -> Network:
    """K(small, total - small): vertices below ``small`` form one side."""
    side = np.arange(total) < small
    return Network._from_adjacency(side[:, None] != side)


def _random_gnp(rng: np.random.Generator, n: int, p: float | None = None) -> Network:
    """Connected Erdos-Renyi draw; resamples until connected.

    Each draw keeps the strict upper triangle of an ``(n, n)`` uniform
    matrix and mirrors it. Connectivity is tested on that adjacency
    matrix, by growing the set reached from vertex 0 until its size stops
    growing, so a ``Network`` is built only for the accepted draw: from
    the matrix, through the trusted door, marked connected.
    """
    if p is None:
        p = min(1.0, (np.log(max(n, 2)) + 1.0) / max(n - 1, 1))
    # one mask per call, reused by the redraws: np.triu on each draw slowed verify all 7-19%
    strict_upper = np.arange(n)[:, None] < np.arange(n)
    while True:
        upper = (rng.random((n, n)) < p) & strict_upper
        adjacency = upper | upper.T
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        count, grown = 0, 1
        while grown > count:
            count = grown
            reached |= adjacency[reached].any(axis=0)
            grown = np.count_nonzero(reached)
        if count == n:
            return Network._from_adjacency(adjacency)


def _plant_nondefectors(config: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Guarantee at least one non-defector without changing the dtype."""
    if (config != Behavior.DEFECTOR).any():
        return config
    config = config.copy()
    pos = int(rng.integers(0, len(config)))
    config[pos] = rng.choice([Behavior.HYPOCRITICAL, Behavior.COOPERATOR])
    return config


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def contagion_suite(seed: int, instances: int) -> list[InstanceOutcome]:
    """Greedy main-model runs where open defection is the dearest escape:
    the non-defector set must evolve as the exact neighbourhood map,
    every round of every run. Each run is ``2 * diameter + 3`` rounds on a
    connected graph of at most 200 vertices from the mixed families."""
    rng = np.random.default_rng(derived_seed(seed, 101))
    outcomes = []
    for i in range(instances):
        g = _random_connected_network(rng, 200)
        e_h = float(rng.uniform(0.05, 0.9))
        rho_h = float(rng.uniform(0.01, 1.0))
        rho_d = (e_h + rho_h) * float(rng.uniform(1.05, 2.0))
        params = MainParams(e_h=e_h, rho_h=rho_h, rho_d=rho_d)
        init = _plant_nondefectors(
            sample_initial_main(g.vertex_count, float(rng.uniform(0.05, 0.5)), rng), rng)
        rounds = 2 * compute_metrics(g).diameter + 3
        trace = run(g, init, params, UpdateRule.main_greedy(),
                    np.random.default_rng(int(rng.integers(2**63))), max_rounds=rounds,
                    record_snapshots=True)
        ok = check_contagion(g, trace.snapshots[:-1], trace.snapshots[1:], params)
        outcomes.append(InstanceOutcome(i, ok, f"n={g.vertex_count},rounds={trace.rounds}"))
    return outcomes


def reduction_suite(seed: int,
                    instances: int) -> tuple[list[InstanceOutcome], list[InstanceOutcome]]:
    """Two-order runs against their rescaled main-model runs.

    Each instance runs 20 rounds on a connected G(n, p) graph of 3 to 12
    vertices. Returns two outcome lists over the same instances:
    trajectory equivalence at every round from 1, and extinction of
    private cooperation from round 1 on.
    """
    rng = np.random.default_rng(derived_seed(seed, 202))
    equivalence = []
    extinction = []
    for i in range(instances):
        g = _random_gnp(rng, int(rng.integers(3, 13)))
        beta2 = float(rng.uniform(0.1, 2.0))
        params = TwoOrderParams(
            alpha1=float(rng.uniform(0.1, 2.0)),
            alpha2=beta2 * float(rng.uniform(0.05, 0.95)),
            beta1=float(rng.uniform(0.1, 2.0)),
            beta2=beta2,
        )
        init = sample_initial_two_order(g.vertex_count, float(rng.uniform(0.2, 0.8)), rng)
        run_seed = int(rng.integers(2**63))
        trace = run(g, init, params, UpdateRule.two_order_greedy(),
                    np.random.default_rng(run_seed), max_rounds=20, record_snapshots=True)
        ok = check_reduction_equivalence(g, trace, run_seed)
        equivalence.append(InstanceOutcome(i, ok, f"n={g.vertex_count}"))
        stray = int(trace.counts[1:, Behavior.PRIVATE_COOPERATOR].sum())
        extinction.append(InstanceOutcome(i, stray == 0, f"stray_private={stray}"))
    return equivalence, extinction


def oracle_suite(seed: int, instances: int) -> list[InstanceOutcome]:
    """Vectorised stepper against the naive reference stepper.

    Each instance is one step on a connected G(n, p) graph of 2 to 12
    vertices. Instances mix both models, all three greedy rules, and wild
    and deliberately tie-rich parameter values; both steppers get the
    same preset draws, so exact agreement also pins the tie-draw order.
    """
    rng = np.random.default_rng(derived_seed(seed, 303))
    tie_rich = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    outcomes = []
    for i in range(instances):
        n = int(rng.integers(2, 13))
        g = _random_gnp(rng, n, p=float(rng.uniform(0.2, 0.9)))
        kind = int(rng.integers(0, 4))
        dyadic = bool(rng.integers(0, 2))

        def draw() -> float:
            return float(rng.choice(tie_rich)) if dyadic else float(rng.uniform(0.05, 3.0))

        if kind == 3:
            params = TwoOrderParams(alpha1=draw(), alpha2=draw(), beta1=draw(), beta2=draw())
            rule = UpdateRule.two_order_greedy()
            config = rng.integers(0, 4, size=n).astype(np.int8)
        else:
            e_h = min(draw(), 1.0) if dyadic else float(rng.uniform(0.0, 1.0))
            params = MainParams(e_h=e_h, rho_h=draw(), rho_d=draw())
            rule = UpdateRule.main_no_hypocrisy() if kind == 2 else UpdateRule.main_greedy()
            high = 3 if kind != 2 else 2
            config = rng.integers(0, high, size=n).astype(np.int8)
            if kind == 2:
                config[config == 1] = 2
        values = rng.random(n)
        table = decision_table(params, rule, int(g.degrees.max(initial=0)))
        fast = step(g, config, table, PresetDraws(values))
        slow = reference_step(g, config, params, values, rule=rule)
        ok = np.array_equal(fast, np.array(slow, dtype=np.int8))
        outcomes.append(InstanceOutcome(i, ok, f"n={n},rule={rule.kind.value}"))
    return outcomes


def bound_suite(seed: int, instances: int) -> list[InstanceOutcome]:
    """Seeded runs inside the convergence window against their round bound.

    Each instance is a connected graph of at most 60 vertices from the
    mixed families, run for three rounds past its bound. Initial
    densities are high enough that the seeding hypothesis holds in almost
    every instance; instances where it fails are recorded as inapplicable
    and pass vacuously, since the bound claims nothing there.
    """
    rng = np.random.default_rng(derived_seed(seed, 404))
    outcomes = []
    for i in range(instances):
        g = _random_connected_network(rng, 60)
        metrics = compute_metrics(g)
        e_h = float(rng.uniform(0.05, 0.6))
        lower = (1.0 - e_h) / metrics.min_degree
        rho_h = lower * float(rng.uniform(1.1, 2.0))
        rho_d = (e_h + rho_h) * float(rng.uniform(1.1, 2.0))
        params = MainParams(e_h=e_h, rho_h=rho_h, rho_d=rho_d)
        assert classify_main_conditions(params, metrics.min_degree) is ConditionStatus.SATISFIED
        init = _plant_nondefectors(
            sample_initial_main(g.vertex_count, 0.3, rng), rng)
        trace = run(g, init, params, UpdateRule.main_greedy(),
                    np.random.default_rng(int(rng.integers(2**63))),
                    max_rounds=convergence_bound(metrics) + 3)
        audit = audit_convergence_bound(metrics, trace, init)
        ok = audit.satisfied or not audit.bound_applicable
        outcomes.append(InstanceOutcome(i, ok, audit.report_line(i)))
    return outcomes


def oscillation_suite(seed: int) -> list[InstanceOutcome]:
    """The tightness construction for the bipartite seeding hypothesis.

    A small side of size equal to the minimum degree is wired to every
    vertex of the large side and starts all-defector; the guarantee's
    both-sides hypothesis fails and the configuration must alternate with
    period exactly 2 once the transient has cleared (round 2 on). The two
    instances are K(3, 7) and K(5, 11), run for 52 rounds each.
    """
    outcomes = []
    for idx, (small, total) in enumerate([(3, 10), (5, 16)]):
        g = _complete_bipartite(small, total)
        min_degree = int(g.degrees.min())
        e_h = 0.1
        rho_h = 1.2 * (1.0 - e_h) / min_degree
        params = MainParams(e_h=e_h, rho_h=rho_h, rho_d=1.3 * (e_h + rho_h))
        assert classify_main_conditions(params, min_degree) is ConditionStatus.SATISFIED
        init = np.zeros(total, dtype=np.int8)
        init[small] = Behavior.HYPOCRITICAL
        init[small + 1] = Behavior.COOPERATOR
        trace = run(g, init, params, UpdateRule.main_greedy(),
                    np.random.default_rng(derived_seed(seed, 505, idx)),
                    max_rounds=52, record_snapshots=True)
        snaps = trace.snapshots
        alternates = bool(np.array_equal(snaps[2:-2], snaps[4:])
                          and (snaps[2:-2] != snaps[3:-1]).any(axis=1).all())
        never_converges = convergence_round(trace) is None
        outcomes.append(InstanceOutcome(
            idx, alternates and never_converges,
            f"small_side={small},alternates={alternates}"))
    return outcomes


def odd_girth_suite(seed: int, instances: int) -> list[InstanceOutcome]:
    """Shortest odd cycle versus diameter on random non-bipartite graphs:
    the odd girth can never exceed twice the diameter plus one. Each
    instance is a connected non-bipartite G(n, p) graph of 5 to 60 vertices."""
    rng = np.random.default_rng(derived_seed(seed, 606))
    outcomes = []
    for i in range(instances):
        while True:
            g = _random_gnp(rng, int(rng.integers(5, 61)),
                            p=float(rng.uniform(0.08, 0.4)))
            metrics = compute_metrics(g)
            if not metrics.is_bipartite:
                break
        ok = metrics.odd_girth <= 2 * metrics.diameter + 1
        outcomes.append(InstanceOutcome(
            i, ok, f"odd_girth={metrics.odd_girth},diameter={metrics.diameter}"))
    return outcomes


@functools.lru_cache(maxsize=1)
def _reduction_outcomes(seed: int, instances: int):
    # reduction and extinction report on the same instances; the cache runs them once
    equivalence, extinction = reduction_suite(seed, instances)
    return tuple(equivalence), tuple(extinction)


# Name -> callable(seed, instances); ``instances`` None (the CLI refuses counts
# below 1) runs the count named here. Oscillation runs its two fixed instances.
SUITES = {
    "contagion": lambda seed, instances: contagion_suite(seed, instances or 200),
    "reduction": lambda seed, instances: _reduction_outcomes(seed, instances or 100)[0],
    "extinction": lambda seed, instances: _reduction_outcomes(seed, instances or 100)[1],
    "oracle": lambda seed, instances: oracle_suite(seed, instances or 1000),
    "bounds": lambda seed, instances: bound_suite(seed, instances or 50),
    "oscillation": lambda seed, instances: oscillation_suite(seed),
    "odd-girth": lambda seed, instances: odd_girth_suite(seed, instances or 100),
}
