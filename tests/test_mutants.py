"""A mutation register: every verify suite shows that it can fail.

Each row patches one fault into the package with ``monkeypatch``, never in
the source, and runs one suite at seed 0 with the smallest instance count
at which the fault still shows: the suite must report FAIL, first on its
last instance. The control row, an ``is_settled`` that is never true,
changes only how long runs take, so every suite must pass it on every
instance that a row fails. ``decision_table`` and
``suites._reduction_outcomes``, the package's only caches, are cleared
around each row, so that no row reads a table or an outcome made before it
or under another mutant. The graph-side rows patch ``suites.compute_metrics``,
which the contagion, bounds and odd-girth suites call.
"""

import dataclasses

import numpy as np
import pytest

from peerpressure import dynamics, graphs, suites

SEED = 0
# Every instance that a row below fails is among the first 26 of its suite.
EVERY_SUITE_INSTANCES = 26


def _mirrored(pick):
    # tied behaviours taken in reverse preference order
    return lambda r, m: (m - 1) - pick(r, m)


def _first_preference(pick):
    # every tie resolved to the first preference, its draw still taken
    return lambda r, m: np.zeros(np.shape(r), dtype=np.int64)


def _no_first_column_wrap(torus_counts):
    def mutant(mask, width, height):
        k = torus_counts(mask, width, height)
        grid, k_grid = mask.reshape(height, width), k.reshape(height, width)
        # undo the fix that counts the first column's own row's last vertex
        k_grid[:, 0] -= grid[:, -1]
        k_grid[1:, 0] += grid[:-1, -1]
        return k
    return mutant


def _hypocrites_and_cooperators_swapped(stepped_counts):
    def mutant(config, width):
        counts = stepped_counts(config, width)
        counts[1], counts[2] = counts[2], counts[1]
        return counts
    return mutant


def _diameter_short_by_one(compute_metrics):
    def mutant(network):
        metrics = compute_metrics(network)
        return dataclasses.replace(metrics, diameter=metrics.diameter - 1)
    return mutant


def _odd_girth_two_long(compute_metrics):
    def mutant(network):
        metrics = compute_metrics(network)
        if metrics.odd_girth is None:
            return metrics
        return dataclasses.replace(metrics, odd_girth=metrics.odd_girth + 2)
    return mutant


def _settled_despite_draws(is_settled):
    return lambda old, old_counts, nxt, nxt_counts, draws: is_settled(
        old, old_counts, nxt, nxt_counts, 0)


def _never_settled(is_settled):
    return lambda old, old_counts, nxt, nxt_counts, draws: False


@pytest.fixture
def clear_caches():
    dynamics.decision_table.cache_clear()
    suites._reduction_outcomes.cache_clear()
    yield
    dynamics.decision_table.cache_clear()
    suites._reduction_outcomes.cache_clear()


def _failed(suite, instances):
    return [o.instance_id for o in suites.SUITES[suite](SEED, instances) if not o.passed]


@pytest.mark.parametrize("module, name, mutate, suite, instances", [
    pytest.param(dynamics, "_interval_pick", _mirrored, "oracle", 3,
                 id="pick-mirrored"),
    pytest.param(dynamics, "_interval_pick", _first_preference, "oracle", 3,
                 id="first-preference"),
    pytest.param(graphs, "_torus_counts", _no_first_column_wrap, "contagion", 2,
                 id="no-first-column-wrap-contagion"),
    pytest.param(graphs, "_torus_counts", _no_first_column_wrap, "bounds", 26,
                 id="no-first-column-wrap-bounds"),
    pytest.param(dynamics, "_stepped_counts", _hypocrites_and_cooperators_swapped, "bounds", 1,
                 id="stepped-counts-swapped"),
    pytest.param(suites, "compute_metrics", _diameter_short_by_one, "bounds", 13,
                 id="diameter-short-by-one"),
])
def test_mutant_fails_its_suite(clear_caches, monkeypatch, module, name, mutate, suite,
                                instances):
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    failed = _failed(suite, instances)
    # the last instance is the first to fail, so no smaller count fails
    assert failed[:1] == [instances - 1], failed


@pytest.mark.parametrize("mutate, caught", [
    pytest.param(_never_settled, False, id="control-never-settled"),
    pytest.param(_settled_despite_draws, True, id="settled-despite-draws", marks=pytest.mark.xfail(
        strict=True, reason="no suite compares whole runs with the reference stepper yet; "
                            "ROADMAP item 4's run-oracle suite is to catch it")),
])
def test_is_settled_mutant_across_every_suite(clear_caches, monkeypatch, mutate, caught):
    monkeypatch.setattr(dynamics, "is_settled", mutate(dynamics.is_settled))
    failed = {suite: _failed(suite, EVERY_SUITE_INSTANCES) for suite in suites.SUITES}
    assert any(failed.values()) == caught, failed


@pytest.mark.xfail(strict=True, reason="the odd-girth suite checks only odd_girth <= 2 * diameter + 1, "
                                       "which its graphs of odd girth 3 and diameter 2 or more meet "
                                       "with room for two; no suite counts odd cycles independently")
def test_odd_girth_mutant_across_the_metric_suites(clear_caches, monkeypatch):
    monkeypatch.setattr(suites, "compute_metrics", _odd_girth_two_long(suites.compute_metrics))
    failed = {suite: _failed(suite, EVERY_SUITE_INSTANCES)
              for suite in ("contagion", "bounds", "odd-girth")}
    assert any(failed.values()), failed
