"""Command-line front end.

Subcommands: generate, schedule, verify, metrics, certify, bounds,
oracle, experiment, table1. Instances, schedules and greedy traces travel
as integer documents (``Instance.to_json``, ``Schedule.to_json``,
``GreedyTrace.to_json``): integer numerators over one scale. Reports
render rationals as "p/q" strings and print as ``json.dumps(report,
indent=2)`` would (:func:`report_text`).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import signal
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from . import certificates, experiment, generators, oracle
from .direct import TRACE_COLUMNS, GreedyTrace, greedy_schedule
from .errors import CoflowError
from .model import (
    compute_metrics,
    document_text,
    dump_instance,
    dump_schedule,
    load_instance,
    load_schedule,
    read_json,
    write_document,
)
from .rational import parse_rational
from .verifier import verify

# The most digits an integer may have in a file a command reads or in text
# it writes. A document's scale is the lcm of its denominators, so it can
# pass Python's default of 4,300 when no entry does.
INT_DIGITS_CAP = 100_000


def report_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for a report: dicts with string keys,
    lists and tuples, and scalars. ``indent`` is the newline and indentation
    of ``obj``'s own line. A list of strings is one join over the C string
    encoder; every other scalar goes to ``json.dumps``."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = (encode_basestring_ascii(key) + ": " + report_text(value, inner)
                 for key, value in obj.items())
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {str}:
            items = map(encode_basestring_ascii, obj)
        else:
            items = (report_text(value, inner) for value in obj)
        opening, closing = "[", "]"
    else:
        return json.dumps(obj)
    return opening + inner + ("," + inner).join(items) + indent + closing


def _emit(obj, args) -> None:
    """Print a report as JSON, or with ``--format csv`` a dict report as a
    header and one row, each list or dict field as its one-line JSON text."""
    if args.format == "csv" and isinstance(obj, dict):
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(obj)
        out.writerow(json.dumps(v) if isinstance(v, (list, tuple, dict)) else v
                     for v in obj.values())
    else:
        print(report_text(obj))


def _build_schedule(args, instance):
    alg = args.algorithm
    nominal = parse_rational(args.nominal_B) if args.nominal_B else None
    if alg == "greedy":
        schedule, trace = greedy_schedule(instance)
        if args.trace_out:
            write_document(trace.document(), args.trace_out)
        return schedule
    return experiment.ALGORITHMS[alg](instance, nominal)


def cmd_generate(args) -> int:
    instance = generators.generate(args.family, args.n, parse_rational(args.B), args.seed or 0)
    if args.out:
        dump_instance(instance, args.out)
    else:
        print(document_text(instance.document()))
    return 0


def cmd_schedule(args) -> int:
    instance = load_instance(args.instance)
    schedule = _build_schedule(args, instance)
    if args.out:
        dump_schedule(schedule, args.out)
    else:
        print(document_text(schedule.document()))
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
    trace = GreedyTrace.from_json(read_json(args.trace, ("counts", *TRACE_COLUMNS)), instance)
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
    sol = oracle.solve_completion_lp(instance, sender_cap, receiver_cap)
    _emit(sol.to_json(), args)
    return 0


def cmd_experiment(args) -> int:
    config = experiment.ExperimentConfig.load(args.config)
    overrides = {"seed": args.seed, "workers": args.workers}
    config = dataclasses.replace(
        config, **{k: v for k, v in overrides.items() if v is not None}
    )
    rows = experiment.stream_rows(config)
    # SIGTERM exits as sys.exit does, through the stream, so that a pool's
    # shutdown stops its workers; the caller's handler is back after.
    previous = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        if args.out:
            experiment.write_csv(rows, args.out)
        else:
            experiment.write_rows(rows, sys.stdout)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


def cmd_table1(args) -> int:
    rows = experiment.read_csv(args.results)
    print(experiment.emit_table1(rows))
    return 0


def _global_options(default) -> argparse.ArgumentParser:
    """--format, --seed and --workers, accepted before or after the
    subcommand. The subcommand's copies default to SUPPRESS, so that they
    leave a value given before the subcommand in place."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--format", choices=("json", "csv"), default=default)
    parser.add_argument("--seed", type=int, default=default)
    parser.add_argument("--workers", type=int, default=default)
    return parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. It names the
    command (``args.command``); :func:`main` looks ``cmd_<command>`` up in
    this module when it runs, so that a wrapper installed on it later is the
    one called."""
    parser = argparse.ArgumentParser(prog="coflow", parents=[_global_options(None)])
    sub = parser.add_subparsers(dest="command", required=True)
    shared = [_global_options(argparse.SUPPRESS)]

    p = sub.add_parser("generate", help="generate an instance", parents=shared)
    p.add_argument("--family", choices=generators.FAMILIES, default="uniform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--B", required=True, help="load bound as p/q")
    p.add_argument("--out")

    p = sub.add_parser("schedule", parents=shared,
                       help="run a scheduler on an instance")
    p.add_argument("--algorithm", choices=tuple(experiment.ALGORITHMS),
                   required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.add_argument("--trace-out", help="write the greedy trace (its matchings) here")
    p.add_argument("--nominal-B", help="overstate the load bound used for regime choices")

    p = sub.add_parser("verify", parents=shared,
                       help="check a schedule against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)

    p = sub.add_parser("metrics", help="makespan and completion times", parents=shared)
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)

    p = sub.add_parser("certify", parents=shared,
                       help="build and check a dual certificate")
    p.add_argument("--instance", required=True)
    p.add_argument("--trace", required=True)

    p = sub.add_parser("bounds", help="lower-bound values for (n, B)", parents=shared)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--B", required=True)

    p = sub.add_parser("oracle", parents=shared,
                       help="exact LP optimum (tiny instances only)")
    p.add_argument("--instance", required=True)
    p.add_argument("--sender-cap")
    p.add_argument("--receiver-cap")

    p = sub.add_parser("experiment", parents=shared,
                       help="run a sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out")

    p = sub.add_parser("table1", help="summarize results per quadrant", parents=shared)
    p.add_argument("--results", required=True)
    return parser


def main(argv=None) -> int:
    """Run one command under Python's int-string limit raised to
    ``INT_DIGITS_CAP``, and restore the caller's limit after. A reader that
    closes stdout early (``| head``) ends the command as SIGPIPE would, exit
    141, with no error line."""
    args = build_parser().parse_args(argv)
    # Pythons before 3.10.7 have no limit to raise.
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(INT_DIGITS_CAP)
    try:
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # As the signal module's docs advise: stdout goes to devnull, so that
        # the flush at exit does not fail again. A stdout with no descriptor
        # (an in-process caller's) is left alone.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 128 + signal.SIGPIPE
    except (CoflowError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limited:
            sys.set_int_max_str_digits(previous)


if __name__ == "__main__":
    sys.exit(main())
