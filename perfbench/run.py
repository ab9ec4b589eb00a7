#!/usr/bin/env python3
"""Benchmark for the coflow package: four user paths, timed end to end and
per module.

One workload, as the benchmark contract runs it (from the repository root):

    python3 perfbench/run.py --workload sweep-vlb --seed 1 --seconds 15 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, both modes, each in its own process, with a summary table:

    python3 perfbench/run.py --seed 1 --seconds 15

``--seed heldout`` runs the held-out seed, kept for checking a claim on
inputs it was not tuned on. Detailed results (environment stamp, every
sample, and in traced runs every span) go to ``.perfbench/`` at the
repository root. The benchmark imports ``coflow`` from ``src/`` next to
this directory and fails if it is not there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from math import lcm
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("cli-regimes", "sweep-vlb", "exact-bigden", "certify-oracle")
# Never used while the benchmark was tuned; reserved for later claims.
HELDOUT_SEED = 7907
SETUP_REPEATS = 5

LAYERS = (
    "bench", "cli", "experiment", "generators", "model", "indirect", "direct",
    "coloring", "verifier", "certificates", "oracle", "simplex",
)
# Span names reported as "<name>_s": summed self time per pass.
SELF_SPANS = (
    "experiment.cell", "generators.generate", "model.make_instance",
    "model.instance_encode", "model.instance_decode", "model.schedule_encode",
    "model.schedule_decode", "model.metrics", "indirect.schedule", "direct.greedy",
    "direct.edge_coloring", "direct.trace_encode", "direct.trace_decode",
    "coloring.color", "verifier.verify", "certificates.build", "certificates.check",
    "certificates.lower_bounds", "oracle.opt", "oracle.lp", "simplex.solve",
)
# CLI commands are reported inclusive of everything they call.
INCLUSIVE_SPANS = ("cli.generate", "cli.schedule", "cli.verify", "cli.metrics")
COUNTS = (
    "cli.commands", "experiment.cells", "indirect.rows", "verifier.rows",
    "verifier.rows_den_over_2p40", "model.denominator_bits", "model.instance_bytes",
    "model.schedule_bytes", "direct.greedy_horizon", "direct.trace_bytes",
    "oracle.lps", "simplex.solves", "simplex.tableau_cells",
)
TRACE_SUMMARY = (
    "trace.pass_traced_s", "trace.pass_untraced_s", "trace.overhead_s",
    "trace.traced_passes", "trace.spans", "gc.collections",
)


def per_layer_names() -> list[str]:
    return (
        [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "gc_s")]
        + [f"{name}_s" for name in SELF_SPANS + INCLUSIVE_SPANS]
        + list(COUNTS) + list(TRACE_SUMMARY)
    )


END_TO_END_NAMES = ["setup_s", "pass_s", "peak_rss_mb", "ok_frac"]


# -- environment ---------------------------------------------------------------


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_coflow() -> None:
    if not (SRC / "coflow" / "__init__.py").is_file():
        fail(f"no coflow package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import coflow

    if Path(coflow.__file__).resolve().parent != SRC / "coflow":
        fail(f"imported coflow from {coflow.__file__}, not from {SRC}")


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "coflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "platform": platform.platform(),
    }


# -- set-up --------------------------------------------------------------------

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import coflow; "
    "print(time.perf_counter() - t)"
)


def child_import_s() -> float:
    """Time ``import coflow`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def set_up(workload, seed: int, tmpdir: str):
    """Import in fresh interpreters and build the inputs, several times
    each; set-up time is the sum of the two medians."""
    imports = [child_import_s() for _ in range(SETUP_REPEATS)]
    builds = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        t0 = perf_counter()
        inputs = workload.setup(seed, tmpdir)
        builds.append(perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)
    return inputs, setup_s, {"import_s": imports, "build_s": builds}


# -- tracing hooks -------------------------------------------------------------


def _rows(schedule) -> int:
    return sum(len(step.transfers) for step in schedule.steps)


def _count(key):
    return lambda tracer, args, kwargs, result: tracer.count(key)


def _file_bytes(key):
    return lambda tracer, args, kwargs, result: tracer.count(key, os.path.getsize(args[1]))


def _indirect_rows(tracer, args, kwargs, result):
    if tracer.parent_name() != "indirect.schedule":  # auto -> vlb_lift nests
        tracer.count("indirect.rows", _rows(result))


def _verify_counts(tracer, args, kwargs, result):
    from workloads import INT64_GUARD_BITS

    instance, schedule = args[0], args[1]
    dens = {t[4].denominator for step in schedule.steps for t in step.transfers}
    dens.update(x.denominator for row in instance.demands for x in row)
    bits = lcm(*dens).bit_length()
    rows = _rows(schedule)
    tracer.count("verifier.rows", rows)
    if bits > INT64_GUARD_BITS:
        tracer.count("verifier.rows_den_over_2p40", rows)
    tracer.high("model.denominator_bits", bits)


def _greedy_horizon(tracer, args, kwargs, result):
    tracer.count("direct.greedy_horizon", result[1].horizon)


def _tableau_cells(tracer, args, kwargs, result):
    c, a_ub, b_ub, a_ge, b_ge = args
    rows = len(a_ub) + len(a_ge) + 1
    artificial = len(a_ge) + sum(1 for b in b_ub if b < 0)
    cols = len(c) + len(a_ub) + len(a_ge) + artificial + 1
    tracer.count("simplex.solves")
    tracer.count("simplex.tableau_cells", rows * cols)


def install_spans(tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from coflow import (
        certificates, cli, coloring, direct, experiment, generators, indirect,
        model, oracle, simplex, verifier,
    )

    patch = tracer.patch
    patch("cli.main", cli, "main", _count("cli.commands"))
    for command in ("generate", "schedule", "verify", "metrics"):
        patch(f"cli.{command}", cli, f"cmd_{command}")
    patch("experiment.cell", experiment, "run_experiment", _count("experiment.cells"))
    patch("generators.generate", generators, "generate")
    patch("model.make_instance", model, "make_instance")
    patch("model.instance_encode", model, "dump_instance", _file_bytes("model.instance_bytes"))
    patch("model.instance_decode", model, "load_instance")
    patch("model.schedule_encode", model, "dump_schedule", _file_bytes("model.schedule_bytes"))
    patch("model.schedule_decode", model, "load_schedule")
    patch("model.metrics", model, "compute_metrics")
    for name in ("auto_schedule", "vlb_lift", "hypercube_schedule",
                 "elementary_basis_schedule", "round_robin_schedule", "grid_schedule"):
        patch("indirect.schedule", indirect, name, _indirect_rows)
    patch("direct.greedy", direct, "greedy_schedule", _greedy_horizon)
    patch("direct.edge_coloring", direct, "edge_coloring_schedule")
    patch("coloring.color", coloring, "color_bipartite_multigraph")
    patch("verifier.verify", verifier, "verify", _verify_counts)
    patch("certificates.build", certificates, "build_certificate")
    patch("certificates.check", certificates, "check_certificate")
    patch("certificates.lower_bounds", certificates, "lower_bounds")
    for name in ("opt_direct_fractional", "opt_sender_bound", "opt_receiver_bound"):
        patch("oracle.opt", oracle, name)
    patch("oracle.lp", oracle, "solve_completion_lp", _count("oracle.lps"))
    patch("simplex.solve", simplex, "solve_lp", _tableau_cells)


def pass_metrics(records: list[dict], tracer) -> dict:
    out = {name: 0.0 for name in per_layer_names()}
    for span in records:
        name = span["name"]
        layer = name.split(".")[0]
        out[f"{layer}.self_s"] += span["self"]
        out[f"{layer}.gc_s"] += span["gc"]
        if name in SELF_SPANS:
            out[f"{name}_s"] += span["self"]
        elif name in INCLUSIVE_SPANS:
            out[f"{name}_s"] += span["end"] - span["start"]
    for key in COUNTS:
        out[key] = tracer.counts.get(key, 0)
    out["gc.collections"] = tracer.collections
    out["trace.spans"] = len(records)
    return out


# -- passes --------------------------------------------------------------------


def untraced_pass(workload, inputs, tally, null_trace) -> float:
    gc.collect()  # the previous pass's objects, outside the timed region
    t0 = perf_counter()
    workload.run(inputs, tally, null_trace)
    return perf_counter() - t0


def traced_pass(workload, inputs, tally, tracer) -> tuple[float, dict]:
    install_spans(tracer)
    gc.collect()
    tracer.begin_pass()
    try:
        t0 = perf_counter()
        with tracer.span("bench.pass"):
            workload.run(inputs, tally, tracer)
        elapsed = perf_counter() - t0 - tracer.excluded_s
    finally:
        tracer.end_pass()
        tracer.unpatch()
    return elapsed, pass_metrics(tracer.pass_spans(tracer.pass_id), tracer)


def measure(args) -> dict:
    import_coflow()
    import spans
    import workloads

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    expected = END_TO_END_NAMES if args.trace == 0 else per_layer_names()
    listed = [m["name"] for m in declared["end_to_end" if args.trace == 0 else "per_layer"]]
    if sorted(listed) != sorted(expected):
        fail("metric names in BENCHMARK.json differ from the ones run.py reports")

    workload = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    null_trace = spans.NullTrace()
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    record = {"stamp": stamp(args)}
    try:
        inputs, setup_s, record["setup"] = set_up(workload, args.seed, str(tmpdir))
        untraced_pass(workload, inputs, tally, null_trace)  # warm-up, not a sample
        untraced, traced = [], []
        tracer = spans.Tracer()
        deadline = perf_counter() + args.seconds
        while True:
            untraced.append(untraced_pass(workload, inputs, tally, null_trace))
            if args.trace:
                traced.append(traced_pass(workload, inputs, tally, tracer))
            if perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.update({
        "untraced_pass_s": untraced,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failure_notes": tally.notes,
    })
    if args.trace == 0:
        values = {
            "setup_s": setup_s,
            "pass_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        }
    else:
        exact = set(COUNTS) | {"gc.collections", "trace.spans"}
        values = {
            name: (statistics.median_low if name in exact else statistics.median)(
                [m[name] for _, m in traced]
            )
            for name in per_layer_names()
        }
        values["trace.pass_traced_s"] = statistics.median(t for t, _ in traced)
        values["trace.pass_untraced_s"] = statistics.median(untraced)
        values["trace.overhead_s"] = (
            values["trace.pass_traced_s"] - values["trace.pass_untraced_s"]
        )
        values["trace.traced_passes"] = len(traced)
        record["traced_pass_s"] = [t for t, _ in traced]
        record["traced_passes"] = [m for _, m in traced]
    record["metrics"] = values
    record["units"] = units

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    with open(OUT / f"{tag}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(OUT / f"{tag}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return record


def report(args, record) -> None:
    values = record["metrics"]
    units = record["units"]
    attempted, failed = record["attempted"], record["failed"]
    for note in record["failure_notes"]:
        print(f"perfbench: failed: {note}", file=sys.stderr)
    if args.trace == 0:
        print(
            f"{args.workload} seed={args.seed}: "
            f"setup_s {values['setup_s']:.4f} s | "
            f"pass_s {values['pass_s']:.4f} s (median of {len(record['untraced_pass_s'])}) | "
            f"peak_rss_mb {values['peak_rss_mb']:.1f} MB | "
            f"fail_frac {failed / attempted:.4g} ({failed}/{attempted})"
        )
    print("env " + json.dumps(record["stamp"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result))


# -- every workload ------------------------------------------------------------


def run_all(args) -> int:
    """Run each workload untraced and traced, each in its own process."""
    summary = {}
    for name in WORKLOAD_NAMES:
        summary[name] = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name} --trace {trace}: exit code {done.returncode}", file=sys.stderr)
                return done.returncode
            lines = done.stdout.strip().splitlines()
            summary[name][trace] = json.loads(lines[-1])
            if trace == 0:
                print(lines[0])
    print()
    print(f"{'workload':<16} top self time by layer (traced; s)             overhead_s")
    for name, runs in summary.items():
        traced = runs[1]["metrics"]
        layers = sorted(
            ((traced[f"{layer}.self_s"]["value"], layer) for layer in LAYERS), reverse=True
        )
        top = ", ".join(f"{layer} {value:.3f}" for value, layer in layers[:3])
        print(f"{name:<16} {top:<48} {traced['trace.overhead_s']['value']:.3f}")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"summary-seed{args.seed}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    correct = all(run["correct"] for runs in summary.values() for run in runs.values())
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", default="1", help="an integer, or 'heldout'")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed == "heldout":
        args.seed = HELDOUT_SEED
    else:
        try:
            args.seed = int(args.seed)
        except ValueError:
            parser.error(f"--seed must be an integer or 'heldout', got {args.seed!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report(args, measure(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
