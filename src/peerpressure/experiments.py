"""Reproducible experiments: single time evolutions and phase-diagram sweeps.

Every run derives its randomness from an explicit integer master seed
through fixed derivation paths (one child sequence per purpose: graph
sampling, initial configuration, tie draws; sweeps extend the path with
cell and repetition indices). Results are therefore bit-reproducible and,
for sweeps, independent of how many workers execute the cells.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graphs import Network, build_torus_grid, sample_random_regular
from .model import (
    MainParams,
    sample_initial_binary,
    sample_initial_main,
    sample_initial_two_order,
)
from .dynamics import RuleKind, Trace, UpdateRule, run


@dataclass(frozen=True)
class NetworkSpec:
    """How to obtain a network: a torus grid or a random regular graph."""

    kind: str
    width: int = 0
    height: int = 0
    n: int = 0
    degree: int = 0

    def __post_init__(self) -> None:
        if self.kind == "torus":
            if self.width < 3 or self.height < 3:
                raise ValueError(f"torus spec needs width, height >= 3, got {self.width}x{self.height}")
        elif self.kind == "regular":
            if self.n <= self.degree or self.degree < 1:
                raise ValueError(f"regular spec needs n > degree >= 1, got n={self.n}, degree={self.degree}")
        else:
            raise ValueError(f"unknown network kind {self.kind!r}")

    def build(self, seed: np.random.SeedSequence | int | None = None) -> Network:
        if self.kind == "torus":
            return build_torus_grid(self.width, self.height)
        if seed is None:
            raise ValueError("sampling a regular network requires a seed")
        return sample_random_regular(self.n, self.degree, np.random.default_rng(seed))

    def label(self) -> str:
        if self.kind == "torus":
            return f"torus:{self.width}x{self.height}"
        return f"regular:n={self.n},d={self.degree}"


def _initial_sampler(rule: UpdateRule):
    if rule.kind is RuleKind.MAIN_NO_HYPOCRISY:
        return sample_initial_binary
    if rule.kind is RuleKind.TWO_ORDER_GREEDY:
        return sample_initial_two_order
    return sample_initial_main


def derived_seed(master_seed: int, *path: int) -> np.random.SeedSequence:
    """Deterministic child sequence for one purpose along one path."""
    return np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])


def run_time_evolution(network: Network | NetworkSpec, params, epsilon: float,
                       rule: UpdateRule, seed: int, rounds: int,
                       early_stop: bool = False) -> tuple[Network, Trace]:
    """One seeded run from a freshly sampled initial configuration.

    The initial configuration matches the rule: the usual
    mostly-defector mix for main-model rules, the four-way mix for the
    two-order rule, and the defector-or-cooperator mix when hypocrisy is
    disabled. Passing a :class:`NetworkSpec` samples the network from the
    same master seed (fresh graph per seed); passing a built
    :class:`Network` reuses it.
    """
    if isinstance(network, NetworkSpec):
        network = network.build(derived_seed(seed, 0))
    init = _initial_sampler(rule)(network.vertex_count, epsilon,
                                  np.random.default_rng(derived_seed(seed, 1)))
    trace = run(network, init, params, rule, np.random.default_rng(derived_seed(seed, 2)),
                max_rounds=rounds, early_stop=early_stop)
    return network, trace


# ---------------------------------------------------------------------------
# phase-diagram sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A grid of (e_h, rho_h) cells swept at fixed rho_d.

    Axis values are inclusive linspaces; a count of 1 pins the axis to its
    minimum. Each cell runs ``repetitions`` independent repetitions of
    exactly ``rounds`` rounds, each from a fresh initial configuration
    (and, with ``fresh_network_per_repetition``, a freshly sampled
    network), recording the mean behaviour fractions of the final round.
    """

    network: NetworkSpec
    e_h_count: int
    rho_h_count: int
    rho_d: float
    epsilon: float
    rounds: int
    repetitions: int
    rule: UpdateRule
    master_seed: int
    e_h_min: float = 0.0
    e_h_max: float = 1.0
    rho_h_min: float = 0.0
    rho_h_max: float | None = None
    fresh_network_per_repetition: bool = False

    def __post_init__(self) -> None:
        if self.e_h_count < 1 or self.rho_h_count < 1:
            raise ValueError("axis counts must be >= 1")
        if self.rounds < 1 or self.repetitions < 1:
            raise ValueError("rounds and repetitions must be >= 1")
        if self.rule.kind not in (RuleKind.MAIN_GREEDY, RuleKind.MAIN_NOISY):
            raise ValueError("sweeps cover main-model rules only")
        if not 0.0 <= self.e_h_min <= self.e_h_max <= 1.0:
            raise ValueError("e_h range must satisfy 0 <= min <= max <= 1")
        hi = self.rho_d if self.rho_h_max is None else self.rho_h_max
        if not 0.0 <= self.rho_h_min <= hi <= self.rho_d:
            raise ValueError("rho_h range must satisfy 0 <= min <= max <= rho_d")
        if self.fresh_network_per_repetition and self.network.kind != "regular":
            raise ValueError("fresh networks only make sense for sampled networks")

    def e_h_values(self) -> np.ndarray:
        return np.linspace(self.e_h_min, self.e_h_max, self.e_h_count)

    def rho_h_values(self) -> np.ndarray:
        hi = self.rho_d if self.rho_h_max is None else self.rho_h_max
        return np.linspace(self.rho_h_min, hi, self.rho_h_count)

    def to_dict(self) -> dict:
        flat: dict = {"network": self.network.kind}
        for key in ("width", "height", "n", "degree"):
            value = getattr(self.network, key)
            if value:
                flat[key] = value
        flat.update(
            e_h_count=self.e_h_count, e_h_min=self.e_h_min, e_h_max=self.e_h_max,
            rho_h_count=self.rho_h_count, rho_h_min=self.rho_h_min,
            rho_h_max=self.rho_d if self.rho_h_max is None else self.rho_h_max,
            rho_d=self.rho_d, epsilon=self.epsilon, rounds=self.rounds,
            repetitions=self.repetitions, rule=self.rule.kind.value,
            master_seed=self.master_seed,
            fresh_network_per_repetition=self.fresh_network_per_repetition,
        )
        if self.rule.kind is RuleKind.MAIN_NOISY:
            flat["p_greedy"] = self.rule.p_greedy
        return flat

    @classmethod
    def from_dict(cls, record: dict) -> "SweepSpec":
        record = dict(record)
        network = NetworkSpec(
            kind=record.pop("network"),
            **{key: _sweep_value(key, record.pop(key, 0), int)
               for key in ("width", "height", "n", "degree")},
        )
        kind = RuleKind(record.pop("rule", RuleKind.MAIN_GREEDY.value))
        default_p = 0.95 if kind is RuleKind.MAIN_NOISY else 1.0
        rule = UpdateRule(kind, float(record.pop("p_greedy", default_p)))
        known = {
            "e_h_count": int, "rho_h_count": int, "rho_d": float, "epsilon": float,
            "rounds": int, "repetitions": int, "master_seed": int,
            "e_h_min": float, "e_h_max": float, "rho_h_min": float, "rho_h_max": float,
            "fresh_network_per_repetition": bool,
        }
        kwargs = {}
        for key, cast in known.items():
            if key in record:
                kwargs[key] = _sweep_value(key, record.pop(key), cast)
        if record:
            raise ValueError(f"unknown sweep keys: {sorted(record)}")
        return cls(network=network, rule=rule, **kwargs)


def _sweep_value(key: str, value, cast: type):
    # int() would truncate 2.9 and bool() would read "false" as true
    if cast is not float and type(value) is not cast:
        raise ValueError(f"sweep key {key!r} must be a JSON {cast.__name__}, got {value!r}")
    return cast(value)


@dataclass
class PhaseDiagram:
    """Mean final behaviour fractions over an (e_h, rho_h) grid.

    ``fractions[i, j]`` holds (defector, hypocrite, cooperator) fractions
    for ``e_h_values[i]`` and ``rho_h_values[j]``; every triple sums to 1
    up to rounding.
    """

    e_h_values: np.ndarray
    rho_h_values: np.ndarray
    fractions: np.ndarray

    def __post_init__(self) -> None:
        expected = (len(self.e_h_values), len(self.rho_h_values), 3)
        if self.fractions.shape != expected:
            raise ValueError(f"fractions shape {self.fractions.shape} != {expected}")
        sums = self.fractions.sum(axis=2)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ValueError("behaviour fractions must sum to 1 per cell")


@functools.lru_cache(maxsize=1)
def _shared_network(network: NetworkSpec, master_seed: int) -> Network:
    # One network for the whole sweep, built once per process.
    return network.build(derived_seed(master_seed))


def _run_cell(spec: SweepSpec, i: int, j: int) -> np.ndarray:
    params = MainParams(e_h=float(spec.e_h_values()[i]),
                        rho_h=float(spec.rho_h_values()[j]), rho_d=spec.rho_d)
    sampler = _initial_sampler(spec.rule)
    total = np.zeros(3)
    for rep in range(spec.repetitions):
        if spec.fresh_network_per_repetition:
            network = spec.network.build(derived_seed(spec.master_seed, i, j, rep, 0))
        else:
            network = _shared_network(spec.network, spec.master_seed)
        n = network.vertex_count
        init = sampler(n, spec.epsilon,
                       np.random.default_rng(derived_seed(spec.master_seed, i, j, rep, 1)))
        ties = np.random.default_rng(derived_seed(spec.master_seed, i, j, rep, 2))
        trace = run(network, init, params, spec.rule, ties, max_rounds=spec.rounds)
        total += trace.counts[-1][:3] / n
    return total / spec.repetitions


def _cell_task(args: tuple) -> tuple[int, int, np.ndarray]:
    spec, i, j = args
    return i, j, _run_cell(spec, i, j)


def run_sweep(spec: SweepSpec, workers: int = 1) -> PhaseDiagram:
    """Sweep the whole grid; output does not depend on ``workers``.

    Cell seeds are derived from the master seed and the cell's indices, so
    scheduling order cannot influence any cell's result; parallel runs
    only change wall-clock time.
    """
    cells = [(spec, i, j) for i in range(spec.e_h_count) for j in range(spec.rho_h_count)]
    fractions = np.zeros((spec.e_h_count, spec.rho_h_count, 3))

    def collect(results) -> None:
        for i, j, fracs in results:
            fractions[i, j] = fracs

    if workers <= 1:
        collect(map(_cell_task, cells))
    else:
        # the pool shuts down (and its workers exit) even when a cell raises
        with ProcessPoolExecutor(max_workers=workers) as executor:
            chunk = max(1, len(cells) // (workers * 8))
            collect(executor.map(_cell_task, cells, chunksize=chunk))
    return PhaseDiagram(e_h_values=spec.e_h_values(),
                        rho_h_values=spec.rho_h_values(), fractions=fractions)


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------


def format_sweep_csv(diagram: PhaseDiagram) -> str:
    """One row per cell, e_h-major; floats via repr for exact round-trips."""
    lines = ["e_h,rho_h,frac_defector,frac_hypocritical,frac_cooperator"]
    for i, e_h in enumerate(diagram.e_h_values):
        for j, rho_h in enumerate(diagram.rho_h_values):
            d, h, c = diagram.fractions[i, j]
            lines.append(f"{float(e_h)!r},{float(rho_h)!r},{float(d)!r},{float(h)!r},{float(c)!r}")
    return "\n".join(lines) + "\n"


def write_sweep_csv(diagram: PhaseDiagram, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_sweep_csv(diagram))


def render_ppm(diagram: PhaseDiagram) -> str:
    """Plain-text PPM image of the sweep, one pixel per cell.

    Red is the defector fraction, green the cooperator fraction, blue the
    hypocrite fraction, each scaled to round(255 * fraction). Rows run
    top to bottom in ascending rho_h, columns left to right in ascending
    e_h.
    """
    n_cols = len(diagram.e_h_values)
    n_rows = len(diagram.rho_h_values)
    lines = [
        "P3",
        "# rows: rho_h ascending top to bottom; columns: e_h ascending left to right",
        "# red=defector green=cooperator blue=hypocritical",
        f"{n_cols} {n_rows}",
        "255",
    ]
    for j in range(n_rows):
        row = []
        for i in range(n_cols):
            d, h, c = diagram.fractions[i, j]
            row.extend(str(int(round(255 * float(x)))) for x in (d, c, h))
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def write_ppm(diagram: PhaseDiagram, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_ppm(diagram))
