#!/usr/bin/env python3
"""Time the wire, greedy and CLI stages on a fixed ladder of instances, each
case in its own process so that its peak RSS is its own.

Usage (from the repository root):

    python3 scripts/bench_ladder.py --out BENCH.json [--parent PATH] [--repeats 3]

The cases:

* ``instance-uniform-1024``, ``instance-random-sparse-1024``: build the
  instance (``generators.generate``), write the instance file
  (``dump_instance``) and read it back (``load_instance``), at n=1024, B=2
  (random-sparse with seed 1), recording the SHA-256 of the file;
* ``trace-uniform-1024``: greedy trace encode (``model.document_text`` of
  ``GreedyTrace.document``, what ``schedule --trace-out`` writes), decode
  (``GreedyTrace.from_json`` of ``json.loads``), building and checking the
  dual certificate of the decoded trace, and ``coflow certify`` in-process
  on the instance and trace files, so that each side's own file reader is
  timed, at uniform n=1024, B=2;
* ``greedy-certificate-uniform-256``: greedy, then building and checking the
  dual certificate, at uniform n=256, B=8;
* ``cli-hypercube-256``: ``coflow generate``, ``schedule``, ``verify`` and
  ``metrics`` through files at n=256, B=2, in-process, recording the
  SHA-256 of the schedule file and of ``verify``'s and ``metrics``' output,
  so that two sides can be checked to write the same bytes;
* ``hypercube-uniform-1024``, ``elementary-basis-uniform-1024``: the digit
  routes, ``verify`` and ``compute_metrics`` in-process at uniform n=1024,
  the hypercube at B=2 (5.24M rows, makespan 10) and the elementary basis
  at nominal B=32 (radix 32, 2.03M rows, makespan 62);
* ``prime-denominators-auto-64``: the same stages for ``auto`` (VLB, makespan
  12) at n=64, B=2, on an instance whose demands have prime denominators in
  [100, 400) and a common denominator of about 420 bits (built here, with
  seed 1), so that ``verify`` and ``compute_metrics`` run on Python ints;
* ``auto-single-row-1024``: the same stages for ``auto`` (VLB over the
  hypercube, 2,088,961 rows, makespan 20) on the adversarial-single-row
  instance at n=1024, B=2, whose rounds carry up to n(n-1)/2 template rows
  for one commodity per offset;
* ``edge-coloring-uniform-256``, ``round-robin-uniform-256``,
  ``smeared-uniform-1024``: a direct scheduler and ``verify`` in-process,
  the two unit-parcel schedulers at uniform n=256, edge coloring at B=2
  (65,280 rows, makespan 255) and round robin at B=512 (130,560 rows,
  makespan 510), and smearing at uniform n=1024, B=2 (one block of
  1,047,552 rows copied over 2 steps: 2,095,104 rows, makespan 2).

Each stage is timed ``--repeats`` times with the garbage collector on;
the record keeps every sample, their median and the process's RSS
high-water after each sample (``rss_mb``), so that it shows which stage
sets a case's ``peak_rss_mb``. Where a case's stages feed
each other (decode and certificate; the four commands; schedule, verify and
metrics), each repeat runs them all in order, so that every sample follows
exactly one run of the stage before it. ``--parent PATH`` runs every
case also against the checkout at PATH (its ``src/``), and records both
sides. The sides take turns at running first, case by case (this checkout
first in the first case), and each case's ``first`` names the side that
ran first, so that a drift of the machine during a case does not always
favour the same side. Each side then runs its own tier-1 suite
(``python -m pytest -q --durations=10`` in its checkout), and the record
keeps its wall time, its summary line and its ten slowest tests. The stamp
names each side's commit, the SHA-256 of its ``src/coflow/*.py`` (as
perfbench computes it, so that a side with uncommitted changes is named
too) and their line count, the Python and numpy versions, the CPU and the
cores this process may use.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = (
    "instance-uniform-1024",
    "instance-random-sparse-1024",
    "trace-uniform-1024",
    "greedy-certificate-uniform-256",
    "cli-hypercube-256",
    "hypercube-uniform-1024",
    "elementary-basis-uniform-1024",
    "prime-denominators-auto-64",
    "auto-single-row-1024",
    "edge-coloring-uniform-256",
    "round-robin-uniform-256",
    "smeared-uniform-1024",
)
DURATION = re.compile(r"(\d+\.\d+)s (call|setup|teardown) +(\S+)$")
# The digit-route cases: algorithm, load bound and makespan at uniform n=1024,
# at n=64 on prime denominators, and at n=1024 on one row.
DIGIT_CASES = {
    "hypercube-uniform-1024": ("hypercube", 2, 10),
    "elementary-basis-uniform-1024": ("elementary-basis", 32, 62),
    "prime-denominators-auto-64": ("auto", 2, 12),
    "auto-single-row-1024": ("auto", 2, 20),
}
PRIMES_100_400 = [p for p in range(100, 400) if all(p % d for d in range(2, isqrt(p) + 1))]
# The direct cases: algorithm, n, load bound and makespan on a uniform instance.
DIRECT_CASES = {
    "edge-coloring-uniform-256": ("edge-coloring", 256, 2, 255),
    "round-robin-uniform-256": ("round-robin", 256, 512, 510),
    "smeared-uniform-1024": ("smeared", 1024, 2, 2),
}


def high_water_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed(fn, repeats: int) -> dict:
    """The samples, their median, and the process's RSS high-water after
    each sample (``rss_mb``)."""
    samples, rss = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
        rss.append(high_water_mb())
    return {"median": statistics.median(samples), "samples": samples, "rss_mb": rss}


def in_turn(stages: dict, repeats: int) -> dict:
    """Each stage's samples, median and RSS high-waters (as :func:`timed`),
    the stages run in order once per repeat, so that each sample follows
    one run of the stages before it."""
    runs = {name: {"samples": [], "rss_mb": []} for name in stages}
    for _ in range(repeats):
        for name, fn in stages.items():
            one = timed(fn, 1)
            for field, values in runs[name].items():
                values += one[field]
    return {name: {"median": statistics.median(run["samples"]), **run}
            for name, run in runs.items()}


def instance_case(family: str, repeats: int, tmp: str) -> dict:
    from coflow import generators, model

    generate = timed(lambda: generators.generate(family, 1024, Fraction(2), 1), repeats)
    inst = generators.generate(family, 1024, Fraction(2), 1)
    path = os.path.join(tmp, "inst.json")
    write = timed(lambda: model.dump_instance(inst, path), repeats)
    read = timed(lambda: model.load_instance(path), repeats)
    with open(path, "rb") as fh:
        digest = sha256(fh.read())
    return {
        "stages_s": {"generate": generate, "write": write, "read": read},
        "bytes": os.path.getsize(path),
        "sha256": digest,
        "ok": model.load_instance(path) == inst,
    }


def trace_case(repeats: int, tmp: str) -> dict:
    from coflow import certificates, cli, direct, model

    inst = model.uniform_instance(1024, Fraction(2))
    _, trace = direct.greedy_schedule(inst)
    text = model.document_text(trace.document())
    encode = timed(lambda: model.document_text(trace.document()), repeats)
    # Each repeat decodes a fresh trace (its replay is cached) and certifies
    # it, so that one decoded trace is alive at a time.
    held, reports = {}, []
    stages = in_turn({
        "decode": lambda: (held.clear(), held.update(
            again=direct.GreedyTrace.from_json(json.loads(text), inst))),
        "certificate": lambda: reports.append(certificates.check_certificate(
            inst, held["again"], certificates.build_certificate(held["again"])).ok),
    }, repeats)
    inst_path, trace_path = os.path.join(tmp, "inst.json"), os.path.join(tmp, "trace.json")
    model.dump_instance(inst, inst_path)
    model.write_document(trace.document(), trace_path)
    codes = []

    def certify():
        with redirect_stdout(io.StringIO()) as out:
            codes.append(cli.main(["certify", "--instance", inst_path, "--trace", trace_path]))
        reports.append(json.loads(out.getvalue())["check"]["ok"])

    return {
        "stages_s": {"encode": encode, **stages, "certify": timed(certify, repeats)},
        "bytes": len(text),
        "ok": all(reports) and held["again"] == trace and not any(codes),
    }


def greedy_case(repeats: int, tmp: str) -> dict:
    from coflow import certificates, direct, model

    inst = model.uniform_instance(256, Fraction(8))
    runs = []
    greedy = timed(lambda: runs.append(direct.greedy_schedule(inst)[1]), repeats)

    def certify():
        trace = runs.pop()  # a fresh trace each time: the replay is cached
        report = certificates.check_certificate(
            inst, trace, certificates.build_certificate(trace)
        )
        reports.append(report.ok)

    reports = []
    certificate = timed(certify, repeats)
    return {"stages_s": {"greedy": greedy, "certificate": certificate}, "ok": all(reports)}


def cli_case(repeats: int, tmp: str) -> dict:
    from coflow import cli

    inst, sched = os.path.join(tmp, "inst.json"), os.path.join(tmp, "sched.json")
    files = ["--instance", inst, "--schedule", sched]
    commands = {
        "generate": ["generate", "--n", "256", "--B", "2", "--out", inst],
        "schedule": ["schedule", "--algorithm", "hypercube", "--instance", inst, "--out", sched],
        "verify": ["verify", *files],
        "metrics": ["metrics", *files],
    }
    codes, printed = [], {}

    def command(name, argv):
        with redirect_stdout(io.StringIO()) as out:
            codes.append(cli.main(argv))
        printed[name] = out.getvalue()

    # Each command reads the file the one before it wrote, so the four run
    # in order, once per repeat.
    stages = in_turn({name: lambda name=name, argv=argv: command(name, argv)
                      for name, argv in commands.items()}, repeats)
    with open(sched, "rb") as fh:
        written = fh.read()
    return {
        "stages_s": stages,
        "bytes": len(written),
        "sha256": {"schedule": sha256(written), "verify": sha256(printed["verify"].encode()),
                   "metrics": sha256(printed["metrics"].encode())},
        "ok": not any(codes),
    }


def prime_instance(n: int, load: int):
    """Half the off-diagonal pairs carry k/p, k in 1..50 and p a prime in
    [100, 400), the matrix rescaled to load bound ``load``."""
    from coflow import model

    rng = random.Random(1)
    demands = [
        [Fraction(rng.randint(1, 50), rng.choice(PRIMES_100_400))
         if i != j and rng.random() < 0.5 else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    factor = Fraction(load) / model.make_instance(n, demands).load_bound
    return model.make_instance(n, [[x * factor for x in row] for row in demands])


def digit_case(case: str, repeats: int) -> dict:
    from coflow import experiment, generators, model, verifier

    algorithm, load, makespan = DIGIT_CASES[case]
    if case.startswith("prime-"):
        inst = prime_instance(64, load)
    elif case == "auto-single-row-1024":
        inst = generators.generate("adversarial-single-row", 1024, Fraction(load), 1)
    else:
        inst = model.uniform_instance(1024, Fraction(load))
    # Each repeat builds the schedule, verifies it and takes its metrics, so
    # that every verify and metrics sample follows exactly one build. The
    # build drops the previous repeat's schedule and metrics first, so that
    # one schedule (about 240 MB for the hypercube) is alive at a time.
    held, reports = {}, []
    stages = in_turn({
        "schedule": lambda: (held.clear(), held.update(
            sched=experiment.ALGORITHMS[algorithm](inst, Fraction(load)))),
        "verify": lambda: reports.append(verifier.verify(inst, held["sched"]).feasible),
        "metrics": lambda: held.update(got=model.compute_metrics(inst, held["sched"])),
    }, repeats)
    sched, got = held["sched"], held["got"]
    return {
        "stages_s": stages,
        "rows": int(sched.src.size),
        "scale_bits": inst.scaled_demands[1].bit_length(),
        "ok": all(reports) and got.makespan == makespan and got.delivered == inst.demands,
    }


def direct_case(case: str, repeats: int) -> dict:
    from coflow import experiment, model, verifier

    algorithm, n, load, makespan = DIRECT_CASES[case]
    inst = model.uniform_instance(n, Fraction(load))
    # Build, then verify, once per repeat, with one schedule alive at a
    # time, as in digit_case.
    held, reports = {}, []
    stages = in_turn({
        "schedule": lambda: (held.clear(), held.update(
            sched=experiment.ALGORITHMS[algorithm](inst, load))),
        "verify": lambda: reports.append(verifier.verify(inst, held["sched"]).feasible),
    }, repeats)
    sched = held["sched"]
    return {
        "stages_s": stages,
        "rows": int(sched.src.size),
        "ok": all(reports) and sched.horizon == makespan,
    }


def run_case(case: str, repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        if case.startswith("instance-"):
            out = instance_case(case[len("instance-"):-len("-1024")], repeats, tmp)
        elif case == "trace-uniform-1024":
            out = trace_case(repeats, tmp)
        elif case == "greedy-certificate-uniform-256":
            out = greedy_case(repeats, tmp)
        elif case in DIGIT_CASES:
            out = digit_case(case, repeats)
        elif case in DIRECT_CASES:
            out = direct_case(case, repeats)
        else:
            out = cli_case(repeats, tmp)
    out["peak_rss_mb"] = high_water_mb()
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stamp(checkout: Path) -> dict:
    """The commit checked out at ``checkout``, whether its ``src/`` differs
    from that commit, ``src_sha256``, the digest of its ``src/coflow/*.py``
    (each file's name, a NUL and its bytes, in name order, as perfbench's
    ``src_digest``), and ``src_lines``, their line count (as
    ``cat src/coflow/*.py | wc -l`` counts them)."""
    git = lambda *a: subprocess.run(["git", "-C", str(checkout), *a],
                                    capture_output=True, text=True).stdout.strip()
    files = sorted((checkout / "src" / "coflow").glob("*.py"))
    texts = [path.read_bytes() for path in files]
    return {"sha": git("rev-parse", "HEAD") or None,
            "src_modified": bool(git("status", "--porcelain", "--", "src")),
            "src_sha256": sha256(b"".join(path.name.encode() + b"\0" + text
                                          for path, text in zip(files, texts))),
            "src_lines": sum(text.count(b"\n") for text in texts)}


def machine() -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "usable_cores": len(os.sched_getaffinity(0)),
    }


def in_subprocess(case: str, checkout: Path, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, str(Path(__file__).resolve()), "--case", case,
            "--repeats", str(repeats)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{case} on {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def tier1(checkout: Path) -> dict:
    """Run the tier-1 suite of ``checkout`` on its own ``src/``: its wall
    time, its summary line and its ten slowest tests."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "--durations=10"]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = done.stdout.splitlines()
    # pytest's --durations lines: "4.67s call     tests/test_x.py::test_y"
    slowest = [m.groups() for m in map(DURATION.match, lines) if m]
    return {"wall_s": wall, "summary": lines[-1] if lines else "", "exit": done.returncode,
            "slowest": [{"s": float(t), "when": when, "test": test}
                        for t, when, test in slowest]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the record here (default: print it)")
    ap.add_argument("--parent", type=Path, help="a checkout to measure alongside")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.case:  # one case, in this process
        print(json.dumps(run_case(args.case, args.repeats)))
        return 0

    sides = {"change": ROOT}
    if args.parent:
        sides["parent"] = args.parent.resolve()
    record = {
        "machine": machine(),
        "repeats": args.repeats,
        "sides": {name: stamp(path) for name, path in sides.items()},
        "cases": {},
    }
    names = list(sides)
    for k, case in enumerate(CASES):
        turn = names[k % len(names):] + names[:k % len(names)]
        record["cases"][case] = {"first": turn[0]}
        for name in turn:
            result = in_subprocess(case, sides[name], args.repeats)
            record["cases"][case][name] = result
            medians = ", ".join(
                f"{stage} {s['median']:.3f} s ({s['rss_mb'][0]:.0f} MB)"
                for stage, s in result["stages_s"].items()
            )
            print(f"{case:<32} {name:<7} {medians}; peak RSS {result['peak_rss_mb']:.1f} MB"
                  f"{'' if result['ok'] else '; NOT OK'}", file=sys.stderr)
    record["tier1"] = {}
    for name, path in sides.items():
        record["tier1"][name] = tier1(path)
        print(f"tier-1 {name:<7} {record['tier1'][name]['wall_s']:.1f} s: "
              f"{record['tier1'][name]['summary']}", file=sys.stderr)
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    ok = all(record["cases"][case][name]["ok"] for case in CASES for name in sides)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
