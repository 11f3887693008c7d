"""Pinned SHA-256 digests of seeded outputs.

Every optimisation must leave these outputs bit-identical for the same
seeds: snapshot stacks under all four rules, the README ``simulate`` trace
CSV, small sweep CSV/PPM files, ``verify`` reports and written edge lists.
The digests were taken from the per-player cost-matrix stepper, before the
decision-table stepper replaced it; a changed digest means a changed
result. The large-network stacks, 60x50 torus and 3,000-vertex 5-regular
graph, were pinned from the decision-table stepper with the torus slice
stencil, before behaviour lookups on large networks changed form. The
edge lists were pinned from the writer that formatted one Python tuple
per edge. The decision tables were pinned from the per-behaviour cost
functions, before one coefficient table replaced them. The ``regular-ties`` sweep
and the two-order grid, whose runs mostly repeat long before their round
budget, were pinned from runs that stepped every round.

Parameters are dyadic so that many cost comparisons are exact ties and
the tie-breaking draw order is pinned along with the costs.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from peerpressure import (
    MainParams,
    Network,
    TwoOrderParams,
    UpdateRule,
    build_torus_grid,
    decision_table,
    run,
    sample_initial_two_order,
    sample_random_regular,
)
from peerpressure.cli import main
from peerpressure.graphs import write_edge_list

from conftest import random_connected_gnp

TIE_RICH_MAIN = MainParams(e_h=0.5, rho_h=0.25, rho_d=0.5)  # C = H = D at k = 2
TIE_RICH_TWO_ORDER = TwoOrderParams(alpha1=1.0, alpha2=0.5, beta1=0.25, beta2=0.5)

RULES = {
    "main-greedy": (UpdateRule.main_greedy(), TIE_RICH_MAIN, (0, 1, 2)),
    "main-noisy": (UpdateRule.main_noisy(0.75), TIE_RICH_MAIN, (0, 1, 2)),
    "main-no-hypocrisy": (UpdateRule.main_no_hypocrisy(), TIE_RICH_MAIN, (0, 2)),
    "two-order-greedy": (UpdateRule.two_order_greedy(), TIE_RICH_TWO_ORDER, (0, 1, 2, 3)),
}

GRAPHS = {
    "torus": lambda: build_torus_grid(8, 8),
    "regular": lambda: sample_random_regular(40, 5, np.random.default_rng(11)),
    "gnp": lambda: random_connected_gnp(np.random.default_rng(12), 40, 0.12),
}

SNAPSHOT_DIGESTS = {
    ("main-greedy", "torus"): "399cef049c56493e73f9d6482f6eee4376a9281194e36dd9696fa48fe405b49a",
    ("main-greedy", "regular"): "fd04740aefb7371940b5ad80096dd539abbe984e06ae3e35eef569871e606762",
    ("main-greedy", "gnp"): "b97fd64db7d6146e2f15f466d84804b41c2ec970d6dc072a704085d464a70749",
    ("main-noisy", "torus"): "e45c302c028721b4fbaab7b9672b872dc71bbe5857eb42d53d9ccabbc80740c4",
    ("main-noisy", "regular"): "50a4620fd1a4fb9e49fc61a171f38711c224bf00690196855d020aa80d0aa139",
    ("main-noisy", "gnp"): "38124822087a734a5288de0c6af88aac7fa1c91cba85deed29dc4eaac83b010c",
    ("main-no-hypocrisy", "torus"): "060cf9e706223774d6c9454fb4f73e1595780cb6f3b713855db699ceb298044f",
    ("main-no-hypocrisy", "regular"): "ff4280ea23a348a2b96031bddd011a64d5ec60a545a36784fac0ef749d4e5b2f",
    ("main-no-hypocrisy", "gnp"): "6f34c5eaed622df74595c574d7d1ac7861d674b28b6e023443bbf65475d9b3c0",
    ("two-order-greedy", "torus"): "ed9033e9ad921d1bf7b1c2a6b51fd9c84e35dc0b5b00ff37ffa5d2c380b8bf23",
    ("two-order-greedy", "regular"): "76b7c3449de190d66eb432ebb7296f1dd09803a603384a0241a2e0d87813ec33",
    ("two-order-greedy", "gnp"): "769f98050dd945b3e033de4f2af8fa885db476fc04c80c0953ca0bc6b44d158e",
}

# networks of at least 2,500 vertices, where the stepper takes its
# whole-array passes; the torus takes the slice stencil, as every torus does
LARGE_GRAPHS = {
    "torus60x50": lambda: build_torus_grid(60, 50),
    "regular3000": lambda: sample_random_regular(3000, 5, np.random.default_rng(13)),
}

LARGE_SNAPSHOT_DIGESTS = {
    ("main-greedy", "torus60x50"): "a7c9908ec8eabb3e8c587201780995e5821a20d6e2db3eafa20d77534836b980",
    ("main-greedy", "regular3000"): "95d3d7ee36ae8a89b2389a76e3dd5d6bf1a69119b80baab872120bf717380523",
    ("main-noisy", "torus60x50"): "78efa54f747df689673910e20aaf72d700745dccf43ca4ccb1f29ccfec2a7508",
    ("main-noisy", "regular3000"): "0dd61a015876020779ca7017a2e90bbecdbd97f2e15d92b598d97b9dcc161997",
    ("main-no-hypocrisy", "torus60x50"): "7ea3b7b1403ce292385bf78cd02cac5c92c521920bae2473f91177f931d11009",
    ("main-no-hypocrisy", "regular3000"): "f30b5fbac917376ceb4ee3efe412ed4d1fdd4778dd32b89338b0d08d6e8208a2",
    ("two-order-greedy", "torus60x50"): "3b3429086bcff5852b4bfc237d1a45d45415db0626f5b756e7ba5a58b808beba",
    ("two-order-greedy", "regular3000"): "faf370d8f7f7f37cd37ccc724a84a9b8dffb796a5cea1b7f706094903c621bcc",
}

# edge lists written by ``generate``, and by ``write_edge_list`` for one
# vertex without edges
EDGE_LIST_DIGESTS = {
    ("generate", "--torus", "7", "4"):
        "b6191c95e9f4b06f9781167266edfcfe5cd5575643515858245e367b2fa6808f",
    ("generate", "--regular", "20", "3", "--seed", "4"):
        "2a282122948b6af8538517b35b26623f8a09d75f921398f25681439a0afe04d6",
}
SINGLE_VERTEX_EDGE_LIST_DIGEST = "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"

SIMULATE_DIGEST = "269f7992714fdc834b3d263ea1660b63a0cadc691a720ecf9be0311bd0c40ce1"

SWEEPS = {
    "torus-greedy": {"network": "torus", "width": 10, "height": 10,
                     "e_h_count": 5, "rho_h_count": 4, "rho_d": 0.45, "epsilon": 0.05,
                     "rounds": 20, "repetitions": 2, "rule": "main-greedy",
                     "master_seed": 1},
    "regular-noisy": {"network": "regular", "n": 30, "degree": 4,
                      "e_h_count": 3, "rho_h_count": 3, "rho_d": 0.5, "epsilon": 0.1,
                      "rounds": 15, "repetitions": 2, "rule": "main-noisy",
                      "p_greedy": 0.75, "master_seed": 2},
    "regular-fresh": {"network": "regular", "n": 24, "degree": 4,
                      "e_h_count": 3, "rho_h_count": 3, "rho_d": 0.5, "epsilon": 0.1,
                      "rounds": 12, "repetitions": 3, "rule": "main-noisy",
                      "p_greedy": 0.75, "master_seed": 3,
                      "fresh_network_per_repetition": True},
    # dyadic axes: most runs repeat long before their 25 rounds, some of
    # them first on a tied state that they later leave
    "regular-ties": {"network": "regular", "n": 30, "degree": 4,
                     "e_h_count": 5, "rho_h_count": 5, "rho_d": 0.5, "epsilon": 0.3,
                     "rounds": 25, "repetitions": 3, "rule": "main-greedy",
                     "master_seed": 4, "fresh_network_per_repetition": True},
}

SWEEP_DIGESTS = {
    ("torus-greedy", "csv"): "555d286698064e1f224ee25529e3dc7ddd4a3c4a94bde53a831af7a0cb4d7dd5",
    ("torus-greedy", "ppm"): "a6f4343d1b6f354716d69995088edd3411a5ff0dec17b449fc9fdd2b16700796",
    ("regular-noisy", "csv"): "e330baf5e807e13f70394ff4d48db6bffc58134dc57aaeb0e2d7da31b6b20f73",
    ("regular-noisy", "ppm"): "c67759ed958f847ddb2fac76a5d316fd48e0c7fb4493198c6aa5d0d2e0135b89",
    ("regular-fresh", "csv"): "60f132e01eedbcf2856f3d2e9efedcec226343cf92d63a1862dcaf1ac2f1bf95",
    ("regular-fresh", "ppm"): "d5e3a42512123a24e752bae1cb9fc113145b51443fc19db0bd4cf7e1c8088f63",
    ("regular-ties", "csv"): "a266b0073797cbe4ab364576f36b10b25135a753e258fb30cb7ff25935841360",
    ("regular-ties", "ppm"): "1e64b9e3e9df11b78e559d3d1794776d60d66f0a5347fa1b47050b3d59d40ee9",
}

# Sweeps cover main-model rules only, so the two-order greedy rule is swept
# here over a dyadic (alpha2, beta1, beta2) grid, 25 rounds per run. Most
# runs repeat long before the end: some at a fixed point, some in a
# two-cycle (on K_2,3 with a different count in each round), some first on
# a tied state that they later leave.
TWO_ORDER_GRID_DIGEST = "0847aedd319df125651cd48e909a1a0d59153acaa7b6341375853b79038c9826"


def two_order_grid_digest() -> str:
    rule = UpdateRule.two_order_greedy()
    digest = hashlib.sha256()
    k23 = Network.from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    for g in (build_torus_grid(6, 6), build_torus_grid(7, 6), k23):
        for i, (alpha2, beta1, beta2) in enumerate(itertools.product((0.25, 0.5, 1.0), repeat=3)):
            rng = np.random.default_rng([6, i])
            init = sample_initial_two_order(g.vertex_count, 0.6, rng)
            trace = run(g, init, TwoOrderParams(1.0, alpha2, beta1, beta2), rule, rng,
                        max_rounds=25, record_snapshots=True)
            digest.update(trace.snapshots.tobytes())
            digest.update(trace.counts.tobytes())
    return digest.hexdigest()


# Every field of the decision table for all four rules, counts 0..12, over
# a dyadic grid, where cost comparisons tie exactly, and 200 seeded random
# parameter sets per model.
TABLE_DIGEST = "9723c02a7cb8a5101d7aa4c4378330d58e9f0708f6c92c0d2dafe9357f4f28f4"
DYADIC = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def table_params():
    rng = np.random.default_rng(24)
    main = [MainParams(*p) for p in itertools.product(DYADIC, repeat=3)
            if p[0] <= 1.0 and p[2] > 0.0]
    main += [MainParams(rng.random(), 2.0 * rng.random(), 2.0 - 2.0 * rng.random())
             for _ in range(200)]
    two_order = [TwoOrderParams(*p) for p in itertools.product(DYADIC[1:], repeat=4)]
    two_order += [TwoOrderParams(*(2.0 - 2.0 * rng.random(4))) for _ in range(200)]
    return main, two_order


def table_digest() -> str:
    main, two_order = table_params()
    rules = [(rule, main) for rule in (UpdateRule.main_greedy(), UpdateRule.main_noisy(0.75),
                                       UpdateRule.main_no_hypocrisy())]
    rules.append((UpdateRule.two_order_greedy(), two_order))
    digest = hashlib.sha256()
    for rule, param_sets in rules:
        for params in param_sets:
            for max_count in range(13):
                table = decision_table(params, rule, max_count)
                for array in (table.codes, table.n_min, table.is_tied, table.tied):
                    digest.update(array.tobytes())
                digest.update(repr(table.breakpoints).encode())
    return digest.hexdigest()


VERIFY_DIGESTS = {
    ("reduction", None): "f9e2de7dd8545ccef6ad69cac59a972d559f2b0e91a07a6baa9f1660d045b585",
    ("extinction", None): "37a2dce291b0f2022fc7cf8619e87f0dd366ff41abcef64f3d1a3525961e2869",
    ("all", 10): "4666152f9ff941a467abebf0b1123f173c7950f15fa026a11ab11781b7237197",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


def snapshot_digest(rule_name, g, rounds) -> str:
    rule, params, codes = RULES[rule_name]
    rng = np.random.default_rng([len(rule_name), g.vertex_count])
    init = rng.choice(np.array(codes, dtype=np.int8), size=g.vertex_count)
    trace = run(g, init, params, rule, np.random.default_rng(7), max_rounds=rounds,
                record_snapshots=True)
    return sha256(trace.snapshots.tobytes())


@pytest.mark.parametrize("rule_name,graph_name", sorted(SNAPSHOT_DIGESTS))
def test_snapshot_stack(rule_name, graph_name):
    digest = snapshot_digest(rule_name, GRAPHS[graph_name](), rounds=12)
    assert digest == SNAPSHOT_DIGESTS[rule_name, graph_name]


@pytest.mark.parametrize("rule_name,graph_name", sorted(LARGE_SNAPSHOT_DIGESTS))
def test_large_snapshot_stack(rule_name, graph_name):
    digest = snapshot_digest(rule_name, LARGE_GRAPHS[graph_name](), rounds=20)
    assert digest == LARGE_SNAPSHOT_DIGESTS[rule_name, graph_name]


def test_readme_simulate_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--torus", "50", "50", "--e-h", "0.1", "--rho-h", "0.23",
                 "--rho-d", "0.45", "--epsilon", "0.01", "--rounds", "200",
                 "--early-stop", "--seed", "0", "--out", str(out)]) == 0
    assert file_digest(out) == SIMULATE_DIGEST


@pytest.mark.parametrize("argv", sorted(EDGE_LIST_DIGESTS))
def test_generated_edge_list(argv, tmp_path, capsys):
    out = tmp_path / "net.edges"
    assert main([*argv, "--out", str(out)]) == 0
    assert file_digest(out) == EDGE_LIST_DIGESTS[argv]


def test_single_vertex_edge_list(tmp_path):
    out = tmp_path / "one.edges"
    write_edge_list(Network.from_edges(1, []), str(out))
    assert file_digest(out) == SINGLE_VERTEX_EDGE_LIST_DIGEST


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_outputs(name, tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SWEEPS[name]))
    prefix = tmp_path / "phase"
    assert main(["sweep", str(config), "--out-prefix", str(prefix)]) == 0
    for ext in ("csv", "ppm"):
        assert file_digest(f"{prefix}.{ext}") == SWEEP_DIGESTS[name, ext], ext


def test_two_order_grid():
    assert two_order_grid_digest() == TWO_ORDER_GRID_DIGEST


def test_decision_tables():
    assert table_digest() == TABLE_DIGEST


@pytest.mark.parametrize("suite,instances", sorted(VERIFY_DIGESTS, key=str))
def test_verify_report(suite, instances, tmp_path, capsys):
    out = tmp_path / "report.csv"
    argv = ["verify", suite, "--seed", "5", "--out", str(out)]
    if instances is not None:
        argv += ["--instances", str(instances)]
    assert main(argv) == 0
    assert file_digest(out) == VERIFY_DIGESTS[suite, instances]
