"""Reproducible experiments: single time evolutions and phase-diagram sweeps.

Every run derives its randomness from an explicit integer master seed
through fixed derivation paths. :func:`run_time_evolution` takes a seed or
a seed path and appends one index per purpose: 0 for graph sampling, 1 for
the initial configuration, 2 for tie draws. A sweep runs each repetition
through it with the path ``(master_seed, i, j, rep)`` of its cell and
repetition. Results are therefore bit-reproducible and, for sweeps,
independent of how many workers execute the cells.
"""

from __future__ import annotations

import itertools
import typing
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .graphs import Network, build_torus_grid, sample_random_regular
from .model import (
    MainParams,
    check_epsilon,
    finite_number,
    sample_initial_binary,
    sample_initial_main,
    sample_initial_two_order,
)
from .dynamics import RuleKind, Trace, UpdateRule, run


@dataclass(frozen=True)
class NetworkSpec:
    """How to obtain a network: a torus grid or a random regular graph.

    A torus uses ``width`` and ``height``, a regular graph ``n`` and
    ``degree``; the fields a kind does not use must stay 0.
    A ``regular`` spec builds through
    :func:`~peerpressure.graphs.sample_random_regular`, which discards
    vertices left short of ``degree``, so a network may have fewer than
    ``n`` vertices: ``n=24, degree=4`` gives 22 or 23 for some seeds. The
    count depends on the seed, so with ``fresh_network_per_repetition`` the
    repetitions of one sweep cell may differ in size; fractions are taken
    per network.
    """

    kind: str
    width: int = 0
    height: int = 0
    n: int = 0
    degree: int = 0

    def __post_init__(self) -> None:
        if self.kind == "torus":
            used = ("width", "height")
            if self.width < 3 or self.height < 3:
                raise ValueError(f"torus spec needs width, height >= 3, got {self.width}x{self.height}")
        elif self.kind == "regular":
            used = ("n", "degree")
            if self.n <= self.degree or self.degree < 1:
                raise ValueError(f"regular spec needs n > degree >= 1, got n={self.n}, degree={self.degree}")
        else:
            raise ValueError(f"unknown network kind {self.kind!r}")
        # a key the kind ignores would be echoed as if it had been used
        for f in fields(self):
            if f.name not in ("kind", *used) and getattr(self, f.name):
                raise ValueError(f"{self.kind} spec does not use {f.name!r}, "
                                 f"got {getattr(self, f.name)!r}")

    def build(self, seed: np.random.SeedSequence | int | None = None) -> Network:
        try:
            if self.kind == "torus":
                # a built torus holds only its shape, but every use of it holds
                # a byte per vertex: one that cannot is refused here, at once
                np.empty(self.width * self.height, dtype=np.uint8)
                return build_torus_grid(self.width, self.height)
            if seed is None:
                raise ValueError("sampling a regular network requires a seed")
            return sample_random_regular(self.n, self.degree, np.random.default_rng(seed))
        except MemoryError:
            raise ValueError(f"{self.label()} is too large to allocate") from None

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
                       rule: UpdateRule, seed: int | tuple[int, ...], rounds: int,
                       early_stop: bool = False) -> tuple[Network, Trace]:
    """One seeded run from a freshly sampled initial configuration.

    ``seed`` is a master seed or a seed path, a tuple that starts with the
    master seed; the network, the initial configuration and the tie draws
    take the path extended by 0, 1 and 2. The initial configuration
    matches the rule: the usual mostly-defector mix for main-model rules,
    the four-way mix for the two-order rule, and the
    defector-or-cooperator mix when hypocrisy is disabled. Passing a
    :class:`NetworkSpec` samples the network from the same seed (fresh
    graph per seed); passing a built :class:`Network` reuses it.
    """
    path = seed if isinstance(seed, tuple) else (seed,)
    if isinstance(network, NetworkSpec):
        network = network.build(derived_seed(*path, 0))
    init = _initial_sampler(rule)(network.vertex_count, epsilon,
                                  np.random.default_rng(derived_seed(*path, 1)))
    trace = run(network, init, params, rule, np.random.default_rng(derived_seed(*path, 2)),
                max_rounds=rounds, early_stop=early_stop)
    return network, trace


# ---------------------------------------------------------------------------
# phase-diagram sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A grid of (e_h, rho_h) cells swept at fixed rho_d.

    Axis values are inclusive linspaces; a count of 1 pins the axis to its
    minimum, and a ``rho_h_max`` of None becomes ``rho_d`` on construction.
    Each cell runs ``repetitions`` independent repetitions of exactly
    ``rounds`` rounds, each from a fresh initial configuration (and, with
    ``fresh_network_per_repetition``, a freshly sampled network),
    recording the mean behaviour fractions of the final round.
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
        check_epsilon(self.epsilon)
        if not 0.0 <= self.e_h_min <= self.e_h_max <= 1.0:
            raise ValueError("e_h range must satisfy 0 <= min <= max <= 1")
        if self.rho_h_max is None:
            object.__setattr__(self, "rho_h_max", self.rho_d)
        if not 0.0 <= self.rho_h_min <= self.rho_h_max <= self.rho_d:
            raise ValueError("rho_h range must satisfy 0 <= min <= max <= rho_d")
        # MainParams owns the valid ranges; they are intervals, so the
        # grid's lowest and highest corners stand for every cell
        MainParams(e_h=self.e_h_min, rho_h=self.rho_h_min, rho_d=self.rho_d)
        MainParams(e_h=self.e_h_max, rho_h=self.rho_h_max, rho_d=self.rho_d)
        if self.master_seed < 0:
            raise ValueError(f"'master_seed' must be non-negative, got {self.master_seed}")
        if self.fresh_network_per_repetition and self.network.kind != "regular":
            raise ValueError("fresh networks only make sense for sampled networks")

    def e_h_values(self) -> np.ndarray:
        return np.linspace(self.e_h_min, self.e_h_max, self.e_h_count)

    def rho_h_values(self) -> np.ndarray:
        return np.linspace(self.rho_h_min, self.rho_h_max, self.rho_h_count)

    def to_dict(self) -> dict:
        flat: dict = {"network": self.network.kind, "rule": self.rule.kind.value}
        for f in fields(NetworkSpec):
            if f.name != "kind" and getattr(self.network, f.name):
                flat[f.name] = getattr(self.network, f.name)
        for f in fields(self):
            if f.name not in ("network", "rule"):
                flat[f.name] = getattr(self, f.name)
        if self.rule.kind is RuleKind.MAIN_NOISY:
            flat["p_greedy"] = self.rule.p_greedy
        return flat

    @classmethod
    def from_dict(cls, record: dict) -> "SweepSpec":
        """Spec from a flat record; ``rule`` and every defaulted field may be
        left out, and a missing or unknown key raises ``ValueError`` naming
        every such key."""
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name != "rule" and f.name not in record]
        if missing:
            raise ValueError(f"missing sweep keys {missing}")
        record = dict(record)
        network = NetworkSpec(kind=record.pop("network"),
                              **_pop_fields(NetworkSpec, record, skip=("kind",)))
        kind = RuleKind(record.pop("rule", RuleKind.MAIN_GREEDY.value))
        default_p = 0.95 if kind is RuleKind.MAIN_NOISY else 1.0
        rule = UpdateRule(kind, finite_number("p_greedy", record.pop("p_greedy", default_p)))
        kwargs = _pop_fields(cls, record, skip=("network", "rule"))
        if record:
            raise ValueError(f"unknown sweep keys: {sorted(record)}")
        return cls(network=network, rule=rule, **kwargs)


def _pop_fields(cls, record: dict, skip: tuple[str, ...]) -> dict:
    """Pop each field of ``cls`` outside ``skip`` that ``record`` holds,
    typed by the field's annotation."""
    hints = typing.get_type_hints(cls)
    return {f.name: _sweep_value(f.name, record.pop(f.name), hints[f.name])
            for f in fields(cls) if f.name not in skip and f.name in record}


def _sweep_value(key: str, value, annotation):
    # int() would truncate 2.9 and bool() would read "false" as true;
    # float | None reads as float, the type to_dict writes
    if annotation is float or float in typing.get_args(annotation):
        return finite_number(key, value)
    if type(value) is not annotation:
        raise ValueError(f"sweep key {key!r} must be a JSON {annotation.__name__}, got {value!r}")
    return value


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


def _run_cell(spec: SweepSpec, network: Network | NetworkSpec, i: int, j: int) -> np.ndarray:
    # given a spec, run_time_evolution samples a network per repetition
    params = MainParams(e_h=float(spec.e_h_values()[i]),
                        rho_h=float(spec.rho_h_values()[j]), rho_d=spec.rho_d)
    total = np.zeros(3)
    for rep in range(spec.repetitions):
        _, trace = run_time_evolution(network, params, spec.epsilon, spec.rule,
                                      (spec.master_seed, i, j, rep), spec.rounds)
        total += trace.counts[-1][:3] / trace.n
    return total / spec.repetitions


def run_sweep(spec: SweepSpec, workers: int = 1) -> PhaseDiagram:
    """Sweep the whole grid; output does not depend on ``workers``.

    Cell seeds are derived from the master seed and the cell's indices, so
    scheduling order cannot influence any cell's result; parallel runs
    only change wall-clock time. A pool gets at most one worker per cell.
    The one network is built here, from ``derived_seed(master_seed)``, and
    passed to every cell; a pool pickles it once per chunk of cells.
    """
    rows, cols = zip(*itertools.product(range(spec.e_h_count), range(spec.rho_h_count)))
    network = (spec.network if spec.fresh_network_per_repetition
               else spec.network.build(derived_seed(spec.master_seed)))
    # map stops at the shortest sequence
    cells = (itertools.repeat(spec), itertools.repeat(network), rows, cols)
    workers = min(workers, len(rows))  # a pool starts all its workers at once
    if workers <= 1:
        results = list(map(_run_cell, *cells))
    else:
        # imported here: a run that needs no pool does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # the pool shuts down (and its workers exit) even when a cell raises
        with ProcessPoolExecutor(max_workers=workers) as executor:
            chunk = max(1, len(rows) // (workers * 8))
            results = list(executor.map(_run_cell, *cells, chunksize=chunk))
    return PhaseDiagram(e_h_values=spec.e_h_values(), rho_h_values=spec.rho_h_values(),
                        fractions=np.array(results).reshape(spec.e_h_count, spec.rho_h_count, 3))


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
