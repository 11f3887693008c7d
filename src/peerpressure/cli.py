"""Command-line front end.

Four subcommands: ``generate`` writes a network edge list, ``simulate``
runs one seeded time evolution, ``sweep`` produces a phase diagram, and
``verify`` runs the randomised verification suites. Every command prints
an ``effective-config`` line holding the fully resolved settings as flat
JSON, from which the run can be reproduced exactly.

Exit codes: 0 on success, 1 when a verification suite fails or generation
gives up, 2 on usage or configuration errors and when memory runs out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .graphs import GenerationError, compute_metrics, read_edge_list, write_edge_list
from .model import (
    MAIN_KEYS,
    TWO_ORDER_KEYS,
    MainParams,
    TwoOrderParams,
    check_epsilon,
    classify_main_conditions,
    classify_two_order_conditions,
    params_from_dict,
)
from .dynamics import RuleKind, UpdateRule, write_trace_csv
from .experiments import (
    NetworkSpec,
    SweepSpec,
    derived_seed,
    run_sweep,
    run_time_evolution,
    write_ppm,
    write_sweep_csv,
)
from .analysis import convergence_round
from .suites import SUITES


def _print_effective_config(command: str, settings: dict) -> None:
    payload = {"command": command, **settings}
    print("effective-config: " + json.dumps(payload, sort_keys=True))


def _check_output_dir(path: str) -> None:
    """Refuse before the run an output file whose directory is missing."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"cannot write {path}: no directory {parent}")


def _read_json_object(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except ValueError as exc:  # a syntax error, or bytes that are not UTF-8
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{path}: expected a flat JSON object")
    return record


def _network_spec_from_args(args) -> NetworkSpec | None:
    if getattr(args, "torus", None):
        return NetworkSpec(kind="torus", width=args.torus[0], height=args.torus[1])
    if getattr(args, "regular", None):
        return NetworkSpec(kind="regular", n=args.regular[0], degree=args.regular[1])
    return None


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = _network_spec_from_args(args)
    settings = {"out": args.out, "network": spec.label()}
    if spec.kind == "regular":
        if args.seed is None:
            raise ValueError("--seed is required when sampling a regular network")
        settings["seed"] = args.seed
    _check_output_dir(args.out)
    _print_effective_config("generate", settings)
    network = spec.build(derived_seed(args.seed, 0) if args.seed is not None else None)
    write_edge_list(network, args.out)
    metrics = compute_metrics(network)
    odd = "-" if metrics.odd_girth is None else str(metrics.odd_girth)
    print(f"generated {spec.label()}: n={network.vertex_count} m={network.edge_count} "
          f"min_degree={metrics.min_degree} diameter={metrics.diameter} "
          f"bipartite={str(metrics.is_bipartite).lower()} odd_girth={odd}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.noisy is not None:
        rule = UpdateRule.main_noisy(args.noisy)
    elif args.no_hypocrisy:
        rule = UpdateRule.main_no_hypocrisy()
    elif args.two_order:
        rule = UpdateRule.two_order_greedy()
    else:
        rule = UpdateRule.main_greedy()

    # config file first, flags given on the command line win
    record = _read_json_object(args.config) if args.config else {}
    unknown = sorted(set(record) - set(MAIN_KEYS + TWO_ORDER_KEYS))
    if unknown:
        raise ValueError(f"{args.config}: unknown parameter keys {unknown}; "
                         f"expected keys {MAIN_KEYS} or {TWO_ORDER_KEYS}")
    flags = vars(args)
    record.update({k: flags[k] for k in MAIN_KEYS + TWO_ORDER_KEYS if flags[k] is not None})
    params = params_from_dict(record)
    rule.check_params(params)
    rule.check_early_stop(args.early_stop)
    check_epsilon(args.epsilon)
    if args.rounds < 0:
        raise ValueError(f"--rounds must be non-negative, got {args.rounds}")

    spec = _network_spec_from_args(args)
    if spec is not None:
        source = spec.label()
    else:
        spec = read_edge_list(args.graph)
        source = args.graph
        # run would take a single vertex and fail only in the conditions
        # summary, after the trace is written
        if spec.vertex_count == 0:
            raise ValueError(f"{source}: simulation requires a non-empty network")
        if spec.vertex_count == 1 or not spec.is_connected():
            raise ValueError(f"{source}: simulation requires a connected network "
                             "of at least 2 vertices")

    settings = {
        "network": source, "rule": rule.kind.value, "seed": args.seed,
        "epsilon": args.epsilon, "rounds": args.rounds, "early_stop": args.early_stop,
        **asdict(params),
    }
    if rule.kind is RuleKind.MAIN_NOISY:
        settings["p_greedy"] = rule.p_greedy
    if args.out:
        _check_output_dir(args.out)
        settings["out"] = args.out
    _print_effective_config("simulate", settings)

    if isinstance(params, MainParams):
        for note in params.regime_notes():
            print(f"note: {note}")

    network, trace = run_time_evolution(spec, params, args.epsilon, rule, args.seed,
                                        args.rounds, early_stop=args.early_stop)
    if args.out:
        write_trace_csv(trace, args.out)

    min_degree = int(network.degrees.min())
    if isinstance(params, TwoOrderParams):
        status = classify_two_order_conditions(params, min_degree).value
    else:
        status = classify_main_conditions(params, min_degree).value
    converged = convergence_round(trace)
    print(f"rounds={trace.rounds} termination={trace.termination.value} "
          f"converged_round={'-' if converged is None else converged} "
          f"conditions={status} final_counts={trace.counts[-1].tolist()}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be positive, got {args.workers}")
    try:
        spec = SweepSpec.from_dict(_read_json_object(args.config))
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise ValueError(f"invalid sweep config: {exc}") from None
    _check_output_dir(args.out_prefix)
    settings = {**spec.to_dict(), "workers": args.workers, "out_prefix": args.out_prefix}
    _print_effective_config("sweep", settings)
    diagram = run_sweep(spec, workers=args.workers)
    csv_path = args.out_prefix + ".csv"
    ppm_path = args.out_prefix + ".ppm"
    write_sweep_csv(diagram, csv_path)
    write_ppm(diagram, ppm_path)
    print(f"wrote {csv_path} and {ppm_path} "
          f"({spec.e_h_count}x{spec.rho_h_count} cells, {spec.repetitions} repetitions)")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.instances is not None and args.instances < 1:
        raise ValueError(f"--instances must be positive, got {args.instances}")
    if args.suite == "oscillation" and args.instances is not None:
        raise ValueError("--instances does not apply to oscillation, which always runs "
                         "its two instances K(3, 7) and K(5, 11)")
    if args.out:
        _check_output_dir(args.out)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    _print_effective_config("verify", {
        "suite": args.suite, "seed": args.seed, "instances": args.instances,
        "out": args.out,
    })
    lines = []
    all_ok = True
    for name in names:
        outcomes = SUITES[name](args.seed, args.instances)
        failed = [o for o in outcomes if not o.passed]
        all_ok = all_ok and not failed
        lines.extend(o.report_line(name) for o in outcomes)
        print(f"suite {name}: {len(outcomes) - len(failed)}/{len(outcomes)} passed")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    if not all_ok:
        print("verification FAILED", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peerpressure",
        description="Best-response cooperation dynamics under social pressure.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_network_source(p, include_graph: bool) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--torus", nargs=2, type=int, metavar=("WIDTH", "HEIGHT"))
        group.add_argument("--regular", nargs=2, type=int, metavar=("N", "DEGREE"))
        if include_graph:
            group.add_argument("--graph", metavar="EDGELIST")

    p_gen = sub.add_parser("generate", help="write a network edge list")
    add_network_source(p_gen, include_graph=False)
    p_gen.add_argument("--seed", type=int, help="required for sampled networks")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_sim = sub.add_parser("simulate", help="run one seeded time evolution")
    add_network_source(p_sim, include_graph=True)
    mode = p_sim.add_mutually_exclusive_group()
    mode.add_argument("--noisy", type=float, metavar="P_GREEDY")
    mode.add_argument("--no-hypocrisy", action="store_true")
    mode.add_argument("--two-order", action="store_true")
    p_sim.add_argument("--config", help="flat JSON file with model parameters")
    for key in MAIN_KEYS + TWO_ORDER_KEYS:
        p_sim.add_argument("--" + key.replace("_", "-"), dest=key, type=float)
    p_sim.add_argument("--epsilon", type=float, default=0.01)
    p_sim.add_argument("--rounds", type=int, default=20)
    p_sim.add_argument("--early-stop", action="store_true")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", help="write the trace CSV here")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a phase-diagram sweep")
    p_sweep.add_argument("config", help="flat JSON sweep specification")
    p_sweep.add_argument("--out-prefix", required=True)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run randomised verification suites")
    p_ver.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_ver.add_argument("--seed", type=int, required=True)
    p_ver.add_argument("--instances", type=int, default=None,
                       help="instances per suite (default: suite-specific)")
    p_ver.add_argument("--out", help="write per-instance report lines here")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # seeds feed numpy's SeedSequence, which takes no negative entries
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the round budget or the network is too large to hold",
              file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
