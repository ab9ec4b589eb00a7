"""Command-line front end.

Subcommands: generate, schedule, verify, metrics, certify, bounds,
oracle, experiment, table1. Instances and schedules travel as JSON files
with rationals rendered as "p/q" strings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import certificates, experiment, generators, oracle
from .direct import ORDER_CHOICES, GreedyTrace, greedy_schedule
from .errors import CoflowError, UnsupportedSizeError
from .indirect import elementary_basis_schedule, pad_instance
from .model import (
    compute_metrics,
    dump_instance,
    dump_schedule,
    load_instance,
    load_schedule,
)
from .rational import parse_rational
from .verifier import verify


def _emit(obj, args) -> None:
    if getattr(args, "format", "json") == "csv" and isinstance(obj, dict):
        print(",".join(str(k) for k in obj))
        print(",".join(str(v) for v in obj.values()))
    else:
        print(json.dumps(obj, indent=2))


def _build_schedule(args, instance):
    alg = args.algorithm
    nominal = parse_rational(args.nominal_B) if args.nominal_B else None
    if alg == "greedy":
        schedule, trace = greedy_schedule(instance, order=args.order, seed=args.seed)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(trace.to_json(), fh)
        return schedule
    if alg == "elementary-basis" and args.dimension is not None:
        return elementary_basis_schedule(
            instance, d=args.dimension, nominal_load=nominal
        )
    return experiment.ALGORITHMS[alg](instance, nominal)


def cmd_generate(args) -> int:
    instance = generators.generate(args.family, args.n, parse_rational(args.B), args.seed)
    if args.out:
        dump_instance(instance, args.out)
    else:
        _emit(instance.to_json(), args)
    return 0


def cmd_schedule(args) -> int:
    instance = load_instance(args.instance)
    try:
        schedule = _build_schedule(args, instance)
    except UnsupportedSizeError as exc:
        if args.pad and exc.suggested_n:
            instance = pad_instance(instance, exc.suggested_n)
            schedule = _build_schedule(args, instance)
        else:
            hint = f" (retry with --pad to embed into n={exc.suggested_n})" if exc.suggested_n else ""
            print(f"error: {exc}{hint}", file=sys.stderr)
            return 2
    if args.out:
        dump_schedule(schedule, args.out)
    else:
        _emit(schedule.to_json(), args)
    return 0


def cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule, instance.n)
    report = verify(instance, schedule)
    _emit(report.to_json(), args)
    return 0 if report.feasible else 1


def cmd_metrics(args) -> int:
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule, instance.n)
    _emit(compute_metrics(instance, schedule).to_json(), args)
    return 0


def cmd_certify(args) -> int:
    instance = load_instance(args.instance)
    with open(args.trace) as fh:
        trace = GreedyTrace.from_json(json.load(fh), instance)
    cert = certificates.build_certificate(trace)
    report = certificates.check_certificate(instance, trace, cert)
    _emit({"certificate": cert.to_json(), "check": report.to_json()}, args)
    return 0 if report.ok else 1


def cmd_bounds(args) -> int:
    report = certificates.lower_bounds(args.n, parse_rational(args.B))
    _emit(report.to_json(), args)
    return 0


def cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    sender_cap = parse_rational(args.sender_cap) if args.sender_cap else Fraction(1)
    receiver_cap = parse_rational(args.receiver_cap) if args.receiver_cap else Fraction(1)
    horizon = args.horizon
    if horizon is None:
        horizon = -(-instance.total_demand.numerator // instance.total_demand.denominator) + instance.n
    sol = oracle.solve_completion_lp(instance, sender_cap, receiver_cap, horizon)
    _emit(sol.to_json(), args)
    return 0


def cmd_experiment(args) -> int:
    config = experiment.ExperimentConfig.load(args.config)
    overrides = {"seed": args.seed, "output": args.out or None, "workers": args.workers}
    config = dataclasses.replace(
        config, **{k: v for k, v in overrides.items() if v is not None}
    )
    rows = experiment.run_experiment(config)
    if not config.output:
        for row in rows:
            print(",".join(str(row[c]) for c in experiment.CSV_COLUMNS))
    return 0


def cmd_table1(args) -> int:
    rows = experiment.read_csv(args.results)
    print(experiment.emit_table1(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coflow")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an instance")
    p.add_argument("--family", choices=generators.FAMILIES, default="uniform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--B", required=True, help="load bound as p/q")
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("schedule", help="run a scheduler on an instance")
    p.add_argument("--algorithm", choices=tuple(experiment.ALGORITHMS),
                   required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.add_argument("--order", choices=ORDER_CHOICES, default="lex")
    p.add_argument("--dimension", type=int, default=None)
    p.add_argument("--pad", action="store_true",
                   help="embed into the next supported node count on size errors")
    p.add_argument("--trace-out", help="write the greedy residual trace here")
    p.add_argument("--nominal-B", help="overstate the load bound used for regime choices")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("verify", help="check a schedule against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("metrics", help="makespan and completion times")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("certify", help="build and check a dual certificate")
    p.add_argument("--instance", required=True)
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bounds", help="lower-bound values for (n, B)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--B", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("oracle", help="exact LP optimum (tiny instances only)")
    p.add_argument("--instance", required=True)
    p.add_argument("--sender-cap")
    p.add_argument("--receiver-cap")
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("experiment", help="run a sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("table1", help="summarize results per quadrant")
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_table1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
