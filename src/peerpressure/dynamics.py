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
degree. :func:`decision_table` therefore evaluates the model's costs,
``fixed + per_punisher * k`` from
:func:`~peerpressure.model.cost_coefficients`, once over the array of every
``k`` in ``0..max_degree`` and records the number of tied cheapest
behaviours and the behaviours in preference order, cheapest first.
:func:`run` alone validates its input and builds one table per run for the
network's maximum degree; :func:`step` reads the rule and the best
responses from that table and trusts its configuration. The costs are
affine in ``k``, so the choice is piecewise constant, changing by
``delta`` at a few breakpoints ``j``. A round counts ``k`` for every
player, builds the choice as the choice at ``k = 0`` plus ``delta``
wherever ``k >= j`` (one ``int8`` compare and add per breakpoint, with no
index conversion of ``k``), and resolves ties only for players whose ``k``
is tied. The model's one fact about ``k`` is who punishes (hypocrites
and cooperators). Counting them is the network's
:meth:`~peerpressure.graphs.Network.neighbour_counts`, which alone knows
how the network is stored and laid out: ``k`` has the same values on every
network, as ``uint8`` on a recognised torus and int64 otherwise.

Rounds of a run
---------------
:func:`run` counts the draws that :func:`step` takes from its draw source.
Under a greedy rule a step that takes none is a function of its
configuration alone. So once a run repeats the previous configuration
with no draw in the step that made it (a fixed point), or the
configuration of two rounds back with no draw in the two steps that led
there (a two-cycle), every later round is known (:func:`is_settled`).
This one test ends every run that settles: with early stop ``run`` stops
there, and without it ``run`` fills the remaining rows with the repeated
configurations, leaves the draw source untouched, and steps no further.
The noisy rule draws every round and never settles. Stepped rows are
counted with one whole-array pass for the non-defectors and one per code
from 2 up; repeat tests compare count rows before configurations.
"""

from __future__ import annotations

import functools
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
    cost_coefficients,
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

    def check_early_stop(self, early_stop: bool) -> None:
        """Raise ``ValueError`` if ``early_stop`` is asked of the noisy rule,
        which draws every round and so never settles."""
        if early_stop and self.kind is RuleKind.MAIN_NOISY:
            raise ValueError("the noisy rule never settles, so it cannot stop early")


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
    ``rounds`` and ``round_reached`` are read from ``counts`` and
    ``termination``. ``snapshots``, when recorded, is one C-contiguous int8
    ``(rounds + 1, n)`` array, row for row with ``counts``. Rows after a
    run settled (see :func:`run`) were filled, not stepped, and equal the
    rows stepping gives.
    """

    counts: np.ndarray
    termination: Termination
    rule: UpdateRule
    params: MainParams | TwoOrderParams
    snapshots: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(self.counts[0].sum())

    @property
    def rounds(self) -> int:
        """Number of simulated rounds (rows minus the initial one)."""
        return self.counts.shape[0] - 1

    @property
    def round_reached(self) -> int:
        """For an early-stopped run, the first round of the settled repeat:
        the run stays at that round's configuration (fixed point, one round
        before the last) or alternates between it and the next (two-cycle,
        two rounds before the last) for good. Otherwise the last simulated
        round."""
        lag = {Termination.FIXED_POINT: 1, Termination.TWO_CYCLE: 2}.get(self.termination, 0)
        return self.rounds - lag


def punishing_counts(network: Network, config: np.ndarray) -> np.ndarray:
    """Per-vertex count of neighbours currently punishing.

    Hypocrites and cooperators punish, defectors and private cooperators
    do not; in the main model this is exactly the non-defector neighbour
    count. The counts are the network's
    :meth:`~peerpressure.graphs.Network.neighbour_counts` of the punishers'
    mask: ``uint8`` on a recognised torus, int64 on every other network.
    """
    # hypocrites (1) and cooperators (2) are the codes that wrap to 0 and 1
    # when 1 is subtracted from their unsigned bytes
    mask = (np.asarray(config, dtype=np.int8).view(np.uint8) - 1) <= 1
    return network.neighbour_counts(mask)


@dataclass(frozen=True, eq=False)
class DecisionTable:
    """Best responses of one parameter set and rule, per punishing count k.

    Row ``k`` of ``tied`` lists the behaviour codes in preference order
    with the cheapest ones first, so ``tied[k, 0]`` is the first-preference
    choice and ``tied[k, :n_min[k]]`` are the behaviours tied at the
    minimum cost; ``is_tied``, ``n_min > 1``, is kept for :func:`step`'s
    per-player ``take``. ``codes`` holds the rule's behaviours in preference
    order. ``breakpoints`` lists ``(j, delta)`` for every ``k = j`` where
    the choice changes by ``delta`` (negative where codes go down), so the
    choice at ``k`` is ``tied[0, 0]`` plus the ``delta`` of every ``j <= k``.
    The arrays are read-only: runs with equal parameters, rule and maximum
    degree share one table.
    """

    rule: UpdateRule
    codes: np.ndarray
    n_min: np.ndarray
    is_tied: np.ndarray
    tied: np.ndarray
    breakpoints: tuple[tuple[int, int], ...]


@functools.lru_cache(maxsize=1)
def decision_table(params, rule: UpdateRule, max_count: int) -> DecisionTable:
    """Tabulate the best responses for punishing counts ``0..max_count``.

    One row of costs per available behaviour in preference order is its
    :func:`~peerpressure.model.cost_coefficients` pair evaluated over the
    array of counts, so table lookups reproduce the model's exact float
    costs and ties. The last table is kept: the repetitions of a sweep cell
    share their parameters.
    """
    rule.check_params(params)
    coefficients = cost_coefficients(params)
    behaviours = [b for b in TIE_PRIORITY if b in rule.available]
    fixed, per_punisher = np.array([coefficients[b] for b in behaviours]).T
    costs = fixed[:, None] + per_punisher[:, None] * np.arange(max_count + 1)
    codes = np.array(behaviours, dtype=np.int8)
    is_min = costs == costs.min(axis=0, keepdims=True)
    n_min = is_min.sum(axis=0)
    # a stable sort keeps preference order within the cheapest and the rest
    tied = codes[np.argsort(~is_min, axis=0, kind="stable")].T.copy()
    by_k = tied[:, 0].tolist()
    breakpoints = tuple((j, by_k[j] - by_k[j - 1])
                        for j in range(1, len(by_k)) if by_k[j] != by_k[j - 1])
    arrays = {"codes": codes, "n_min": n_min, "is_tied": n_min > 1, "tied": tied}
    for array in arrays.values():
        array.flags.writeable = False
    return DecisionTable(rule=rule, breakpoints=breakpoints, **arrays)


def _interval_pick(r: np.ndarray, m) -> np.ndarray:
    """Index of the sub-interval of [0, 1] split into m equal parts hit by r,
    for an array ``m`` per entry of ``r`` or one ``m`` for all of them.

    Intervals are [0, 1/m], (1/m, 2/m], ..., ((m-1)/m, 1], so r = 0.5 with
    m = 2 selects index 0.
    """
    return np.clip(np.ceil(r * m).astype(np.int64) - 1, 0, m - 1)


def step(network: Network, config: np.ndarray, table: DecisionTable, ties) -> np.ndarray:
    """One synchronous revision round; returns the next configuration.

    Every player looks up the cheapest behaviours available under
    ``table.rule`` for its punishing-neighbour count in ``config`` (see
    :func:`decision_table`) and adopts one, resolving
    exact-tie sets through ``ties``, a :class:`numpy.random.Generator` or
    any object whose ``random(size)`` returns the next ``size`` uniforms:
    the noisy rule first takes ``ties.random(config.size)`` noise draws,
    then one call takes a tie draw per tied player in ascending index. The
    choice is ``table.tied[0, 0]`` plus the jumps of ``table.breakpoints``.

    ``step`` takes uniforms from ``ties`` only through ``random`` calls,
    and under a greedy rule only when some player's count is tied, so the
    uniforms handed out are its tie draws: :func:`run` counts them to tell
    a round that drew from one that did not.

    ``step`` trusts its input and takes the round's size from ``config``,
    an int8 array of valid codes for the table's rule, one per vertex;
    ``table`` must cover the network's maximum degree.
    """
    rule = table.rule
    noisy = rule.kind is RuleKind.MAIN_NOISY
    k = punishing_counts(network, config)
    # the first breakpoint's jumps become the output, so no pass fills it
    out = None
    for j, delta in table.breakpoints:
        jumped = (k >= j).view(np.int8)
        if delta != 1:
            jumped *= delta
        if out is None:
            out = jumped
        else:
            out += jumped
    if out is None:
        out = np.zeros(config.size, dtype=np.int8)
    if table.tied[0, 0]:
        out += table.tied[0, 0]

    if noisy:
        noise = ties.random(config.size)
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
        out[idx] = codes[_interval_pick(rescaled, len(codes))]
    return out


def behaviour_counts(config: np.ndarray, width: int) -> list[int]:
    """Players of each code ``0..width - 1`` in ``config``, read as given:
    a code that is not exactly one of them (257, 1.5) goes uncounted."""
    # count_nonzero per code avoids casting the int8 codes to intp
    return [np.count_nonzero(config == code) for code in range(width)]


def _stepped_counts(config: np.ndarray, width: int) -> list[int]:
    """``behaviour_counts`` of a configuration that ``step`` made, so of
    valid codes only: one pass counts the non-defectors, one pass per code
    from 2 up, and the hypocrites are what is left."""
    nonzero = np.count_nonzero(config)
    higher = [np.count_nonzero(config == code) for code in range(2, width)]
    return [config.size - nonzero, nonzero - sum(higher), *higher]


def is_settled(old: np.ndarray, old_counts: list[int], nxt: np.ndarray,
               nxt_counts: list[int], draws: int) -> bool:
    """Does a run repeat for good from ``old``?

    ``old`` is the configuration one or two rounds before ``nxt``, the
    latest configuration of a run, and ``draws`` is the number of uniforms
    taken by the steps that led from ``old`` to ``nxt``. Under a greedy rule
    a step that draws nothing is a function of its configuration alone, so
    when ``nxt`` equals ``old`` and those steps drew nothing, every later
    round repeats them without drawing: a fixed point one round back, a
    two-cycle two rounds back. The noisy rule draws every round, so it
    never settles.
    """
    # equal configurations have equal counts, so most unequal pairs are
    # told apart without a pass over the arrays
    return draws == 0 and old_counts == nxt_counts and np.array_equal(old, nxt)


class _CountedDraws:
    """A run's draw source, counting the uniforms that ``step`` takes."""

    __slots__ = ("_ties", "used")

    def __init__(self, ties):
        self._ties = ties
        self.used = 0

    def random(self, size: int) -> np.ndarray:
        self.used += size
        return self._ties.random(size)


def run(network: Network, initial: np.ndarray, params, rule: UpdateRule, ties,
        max_rounds: int, early_stop: bool = False,
        record_snapshots: bool = False) -> Trace:
    """Iterate :func:`step` for up to ``max_rounds`` rounds.

    ``run`` validates what ``step`` trusts. Building the decision table
    checks that ``params`` belong to ``rule``. Row 0 of the counts is taken
    from ``initial`` as given, before the int8 cast, and must account for
    every player in the rule's codes, so a code the cast would change
    (258, -255, 1.7) or one the rule lacks raises ``ValueError``.

    A run has settled once :func:`is_settled` holds: under a greedy rule,
    the latest configuration repeats the previous one with no draw in the
    step that made it (fixed point), or the one before that with no draw in
    the two steps that led there (two-cycle). With ``early_stop`` the run
    halts there and reports which; otherwise exactly ``max_rounds`` rounds
    are simulated, which keeps round counts comparable across runs, but a
    settled run stops stepping: the remaining rows of ``counts``, and of the
    snapshots, are filled with the repeated configurations, exactly the
    rows stepping would give, and ``ties`` is left where stepping would
    leave it, untouched. Snapshots are stacked once, on return. The noisy
    rule never settles, so ``early_stop`` with it raises ``ValueError``.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    rule.check_early_stop(early_stop)
    n = network.vertex_count
    if n == 0:
        raise ValueError("simulation requires a non-empty network")
    if not network.is_connected():
        raise ValueError("simulation requires a connected network")
    table = decision_table(params, rule, int(network.degrees.max(initial=0)))
    initial = np.asarray(initial)
    if initial.shape != (n,):
        raise ValueError(f"configuration shape {initial.shape} does not match n={n}")
    width = 4 if rule.is_two_order else 3
    counts = [behaviour_counts(initial, width)]
    if sum(counts[0][code] for code in rule.available) != n:
        raise ValueError(f"behaviour codes out of range for rule {rule.kind.value}")
    config = initial.astype(np.int8)
    snapshots = [config] if record_snapshots else None
    draws = _CountedDraws(ties)
    prev = None
    last_draws = 0  # taken by the step that made config
    termination = Termination.MAX_ROUNDS
    for t in range(max_rounds):
        used = draws.used
        nxt = step(network, config, table, draws)
        new_draws = draws.used - used
        counts.append(_stepped_counts(nxt, width))
        if record_snapshots:
            snapshots.append(nxt)
        if is_settled(config, counts[-2], nxt, counts[-1], new_draws):
            settled = Termination.FIXED_POINT
        elif prev is not None and is_settled(prev, counts[-3], nxt, counts[-1],
                                             last_draws + new_draws):
            settled = Termination.TWO_CYCLE
        else:
            prev, config, last_draws = config, nxt, new_draws
            continue
        if early_stop:
            termination = settled
        else:
            # rounds t + 2, t + 3, ... repeat config, nxt, config, ..., which
            # are one configuration at a fixed point; a budget whose rows no
            # address space holds is out of memory, as a smaller one is
            if (max_rounds + 1) * width * 8 > np.iinfo(np.intp).max:
                raise MemoryError(f"{max_rounds} rounds of counts exceed any address space")
            rows = np.empty((max_rounds + 1, width), dtype=np.int64)
            rows[:t + 2] = counts
            rows[t + 2::2] = counts[-2]
            rows[t + 3::2] = counts[-1]
            counts = rows
            if record_snapshots:
                rest = max_rounds - 1 - t
                snapshots += ([config, nxt] * ((rest + 1) // 2))[:rest]
        break
    return Trace(counts=np.asarray(counts, dtype=np.int64), termination=termination,
                 rule=rule, params=params,
                 snapshots=None if snapshots is None else np.stack(snapshots))


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

_COLUMNS = ("defectors", "hypocritical", "cooperators", "private_cooperators")


def format_trace_csv(trace: Trace) -> str:
    lines = ["round," + ",".join(_COLUMNS[:trace.counts.shape[1]])]
    lines += [f"{t}," + ",".join(map(str, row)) for t, row in enumerate(trace.counts.tolist())]
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_trace_csv(trace))
