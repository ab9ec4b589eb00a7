"""The four benchmark workloads.

Each workload has ``setup(seed, tmpdir)``, which builds its inputs (and
the exact answers the checks compare against) from the seed alone, and
``run(inputs, tally, trace)``, which makes one full pass. Every operation
of a pass goes through ``tally.op``: a failed check or an exception
counts as one failed operation and the pass carries on. ``trace`` is the
pass's tracer, or a stand-in whose spans and counts do nothing.

The workloads call ``coflow`` through module attributes (``indirect.auto_
schedule`` rather than a from-import) so that a traced pass sees every
call. See README.md for why each workload exists.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction
from math import ceil, lcm

from coflow import (
    certificates,
    cli,
    direct,
    experiment,
    generators,
    indirect,
    model,
    oracle,
    verifier,
)

# The int64 paths of verify and compute_metrics need scaled amounts below
# 2**40; with a common denominator past it, the exact Python-int loops run.
INT64_GUARD_BITS = 40


class Tally:
    """Attempted and failed operations, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, label: str, fn) -> None:
        """Run one operation; ``fn`` returns None when every check holds,
        or a description of the first check that failed."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # a failing operation must not end the pass
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"{label}: {problem}")


# -- closed-form makespans (independent of the package's own formulas) -----


def _exact_root(n: int, d: int) -> int:
    q = round(n ** (1.0 / d))
    if q**d != n:
        raise ValueError(f"{n} is not a perfect {d}-th power")
    return q


def hypercube_makespan(n: int) -> int:
    """log2 n, for n a power of two and B <= 2."""
    if n & (n - 1):
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1


def elementary_basis_makespan(n: int, load: int) -> int:
    """d (q - 1) ceil(B / q), with d the least dimension with B^d >= n and
    q = n^(1/d); the 2 < B < n regime."""
    d = 1
    while load**d < n:
        d += 1
    q = _exact_root(n, d)
    return d * (q - 1) * ceil(Fraction(load, q))


def round_robin_makespan(n: int, load: int) -> int:
    """(n - 1) ceil(B / n); the B >= n regime."""
    return (n - 1) * ceil(Fraction(load, n))


def lifted_makespan(n: int, load: int) -> int:
    """``auto`` for B < n lifts a uniform scheme: twice its horizon."""
    base = hypercube_makespan(n) if load <= 2 else elementary_basis_makespan(n, load)
    return 2 * base


def _delivered_problem(instance, metrics, relayed: bool) -> str | None:
    """Direct schedules deliver exactly the demand. ``compute_metrics``
    counts every arrival at a commodity's destination, including a relay
    hop that passes through it and leaves again, so on relayed (lifted)
    schedules delivered amounts may exceed the demand but never fall short."""
    n = instance.n
    for i in range(n):
        for j in range(n):
            got, want = metrics.delivered[i][j], instance.demands[i][j]
            if got < want or (got != want and not relayed):
                return f"delivered {got} for demand {want} at ({i},{j})"
    return None


def _denominator_bits(instance) -> int:
    return lcm(*{x.denominator for row in instance.demands for x in row}).bit_length()


# -- cli-regimes -------------------------------------------------------------


class CliRegimes:
    """generate -> schedule -> verify -> metrics through JSON files, by
    driving the CLI entry point in-process, on three worst-case uniform
    regimes. Uniform instances do not depend on the seed."""

    name = "cli-regimes"
    # (label, algorithm, n, B, needs --nominal-B, expected makespan)
    REGIMES = (
        ("hypercube", "hypercube", 64, 2, False, hypercube_makespan(64)),
        ("elementary-basis", "elementary-basis", 81, 9, True,
         elementary_basis_makespan(81, 9)),
        ("round-robin", "round-robin", 64, 128, True, round_robin_makespan(64, 128)),
    )

    def setup(self, seed: int, tmpdir: str):
        cases = []
        for label, alg, n, load, nominal, makespan in self.REGIMES:
            inst = os.path.join(tmpdir, f"{label}-instance.json")
            sched = os.path.join(tmpdir, f"{label}-schedule.json")
            schedule_argv = ["schedule", "--algorithm", alg, "--instance", inst,
                             "--out", sched]
            if nominal:
                schedule_argv += ["--nominal-B", str(load)]
            cases.append({
                "label": label,
                "makespan": makespan,
                "generate": ["generate", "--family", "uniform", "--n", str(n),
                             "--B", str(load), "--out", inst],
                "schedule": schedule_argv,
                "verify": ["verify", "--instance", inst, "--schedule", sched],
                "metrics": ["metrics", "--instance", inst, "--schedule", sched],
            })
        return cases

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def run(self, cases, tally: Tally, trace) -> None:
        for case in cases:
            label = case["label"]

            def plain(command):
                code, _ = self._cli(case[command])
                return None if code == 0 else f"exit code {code}"

            def verify_op():
                code, text = self._cli(case["verify"])
                report = json.loads(text)
                if code != 0 or report["feasible"] is not True or report["violations"]:
                    return f"exit code {code}, feasible {report['feasible']}"
                return None

            def metrics_op():
                code, text = self._cli(case["metrics"])
                makespan = json.loads(text)["makespan"]
                if code != 0 or makespan != case["makespan"]:
                    return f"exit code {code}, makespan {makespan} != {case['makespan']}"
                return None

            tally.op(f"{label} generate", lambda: plain("generate"))
            tally.op(f"{label} schedule", lambda: plain("schedule"))
            tally.op(f"{label} verify", verify_op)
            tally.op(f"{label} metrics", metrics_op)


# -- sweep-vlb ---------------------------------------------------------------


class SweepVlb:
    """The sweep harness, one cell per ``run_experiment`` call, over
    random-sparse instances. No wire format; the VLB emitters, ``verify``
    and ``compute_metrics`` on the int64 numpy path carry the pass."""

    name = "sweep-vlb"
    GRID = ((16, 2), (16, 4), (27, 3), (27, 4), (32, 2))
    ALGORITHMS = ("auto", "greedy", "edge-coloring")

    def setup(self, seed: int, tmpdir: str):
        cells = []
        for n, load in self.GRID:
            # The harness builds the same instance from (family, n, B, seed);
            # it is built here only to derive the expected answers.
            inst = generators.generate("random-sparse", n, load, seed)
            degree = [0] * (2 * n)
            for i, j, d in inst.commodities():
                degree[i] += ceil(d)
                degree[n + j] += ceil(d)
            expected = {
                "auto": lifted_makespan(n, load),
                "edge-coloring": max(degree),
                "greedy": None,
            }
            for alg in self.ALGORITHMS:
                config = experiment.ExperimentConfig(
                    n_values=(n,), load_values=(Fraction(load),), algorithms=(alg,),
                    family="random-sparse", seed=seed, workers=1,
                )
                cells.append((f"n={n} B={load} {alg}", config, expected[alg], load))
        return cells

    def run(self, cells, tally: Tally, trace) -> None:
        for label, config, makespan, load in cells:

            def cell():
                rows = experiment.run_experiment(config)
                row = rows[0]
                if len(rows) != 1 or row["feasible"] is not True:
                    return f"feasible {row['feasible']}"
                if makespan is not None and row["makespan"] != makespan:
                    return f"makespan {row['makespan']} != {makespan}"
                if row["makespan"] < load:
                    return f"makespan {row['makespan']} below the load bound {load}"
                return None

            tally.op(label, cell)


# -- exact-bigden --------------------------------------------------------------


PRIMES_100_400 = tuple(
    p for p in range(100, 400) if all(p % d for d in range(2, int(p**0.5) + 1))
)


def prime_denominator_instance(n: int, load: int, rng: random.Random):
    """Half the off-diagonal pairs get p/q with q a random prime in
    [100, 400); the matrix is then rescaled so its load bound is ``load``.
    The common denominator lands near 400 bits."""
    demands = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                demands[i][j] = Fraction(rng.randint(1, 50), rng.choice(PRIMES_100_400))
    raw = model.make_instance(n, demands)
    scale = Fraction(load) / raw.load_bound
    return model.make_instance(n, [[x * scale for x in row] for row in demands])


class ExactBigden:
    """``auto`` and ``greedy`` plus ``verify`` and ``compute_metrics`` on
    prime-denominator instances: the same layers as sweep-vlb, but on the
    exact Python-int reference loops instead of the int64 path."""

    name = "exact-bigden"
    CASES = ((32, 2), (27, 3), (27, 4), (16, 4))

    def setup(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        cases = []
        for n, load in self.CASES:
            inst = prime_denominator_instance(n, load, rng)
            bits = _denominator_bits(inst)
            if bits <= INT64_GUARD_BITS:
                raise RuntimeError(f"n={n}: common denominator has only {bits} bits")
            cases.append((f"n={n} B={load}", inst, load, lifted_makespan(n, load)))
        return cases

    def run(self, cases, tally: Tally, trace) -> None:
        for label, inst, load, makespan in cases:

            def auto():
                schedule = indirect.auto_schedule(inst, nominal_load=Fraction(load))
                report = verifier.verify(inst, schedule)
                if not report.feasible:
                    return "auto schedule infeasible"
                metrics = model.compute_metrics(inst, schedule)
                if metrics.makespan != makespan:
                    return f"makespan {metrics.makespan} != {makespan}"
                return _delivered_problem(inst, metrics, relayed=True)

            def greedy():
                schedule, run = direct.greedy_schedule(inst)
                report = verifier.verify(inst, schedule)
                if not report.feasible:
                    return "greedy schedule infeasible"
                metrics = model.compute_metrics(inst, schedule)
                if metrics.makespan != run.horizon:
                    return f"makespan {metrics.makespan} != horizon {run.horizon}"
                if metrics.total_completion != run.total_completion:
                    return "total completion differs from the greedy trace"
                return _delivered_problem(inst, metrics, relayed=False)

            tally.op(f"{label} auto", auto)
            tally.op(f"{label} greedy", greedy)


# -- certify-oracle ------------------------------------------------------------


def regular_instance(n: int, degree: int, rng: random.Random):
    """A random pattern in which every node sends to ``degree`` others and
    receives from ``degree`` others, each pair carrying 1/2.

    The LP's size follows the pair count, the total demand and (for the
    one-sided relaxations) the largest row and column sums. All of them
    are fixed here, so the oracle's work stays comparable from seed to
    seed; only the pattern, and with it the pivot path, varies.
    """
    while True:
        pairs: set[tuple[int, int]] = set()
        for _ in range(degree):
            perm = list(range(n))
            rng.shuffle(perm)
            if any(perm[i] == i or (i, perm[i]) in pairs for i in range(n)):
                break
            pairs.update((i, perm[i]) for i in range(n))
        else:
            demands = [[Fraction(0)] * n for _ in range(n)]
            for i, j in pairs:
                demands[i][j] = Fraction(1, 2)
            return model.make_instance(n, demands)


class CertifyOracle:
    """Greedy, a ``GreedyTrace`` JSON round trip and the dual certificate
    on random-sparse instances, then the exact LP oracle on a seeded
    corpus of small instances. Loads ``direct``, ``certificates``,
    ``oracle`` and ``simplex`` on ``Fraction`` values."""

    name = "certify-oracle"
    CERTIFY = ((16, 32),) * 6  # (n, B) per greedy + certificate case
    CORPUS = (4, 4, 4, 5, 5, 6)  # n per LP case; every node has degree 2

    def setup(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        certify = [
            (f"certify n={n} B={load} #{k}",
             generators.random_sparse_instance(n, load, rng.randrange(2**31)))
            for k, (n, load) in enumerate(self.CERTIFY)
        ]
        corpus = [
            (f"oracle n={n} #{k}", regular_instance(n, 2, rng))
            for k, n in enumerate(self.CORPUS)
        ]
        return certify, corpus

    def run(self, inputs, tally: Tally, trace) -> None:
        certify, corpus = inputs
        for label, inst in certify:

            def certify_op():
                _, run = direct.greedy_schedule(inst)
                with trace.span("direct.trace_encode"):
                    text = json.dumps(run.to_json())
                trace.count("direct.trace_bytes", len(text))
                with trace.span("direct.trace_decode"):
                    decoded = direct.GreedyTrace.from_json(json.loads(text), inst)
                if decoded.residuals != run.residuals or decoded.matchings != run.matchings:
                    return "greedy trace changed in the JSON round trip"
                cert = certificates.build_certificate(decoded)
                report = certificates.check_certificate(inst, decoded, cert)
                if not report.ok:
                    return f"certificate failed: {report.failures[:1]}"
                return None

            tally.op(label, certify_op)

        for label, inst in corpus:

            def oracle_op():
                _, run = direct.greedy_schedule(inst)
                opt = oracle.opt_direct_fractional(inst)
                opt_s = oracle.opt_sender_bound(inst)
                opt_r = oracle.opt_receiver_bound(inst)
                if not 0 < opt <= run.total_completion <= 16 * opt:
                    return f"greedy {run.total_completion} outside [opt, 16 opt], opt {opt}"
                cert = certificates.build_certificate(run)
                if cert.obj_ds > opt_s or cert.obj_dr > opt_r:
                    return "weak duality fails against the 1/4-capped relaxations"
                if opt_s > 4 * opt or opt_r > 4 * opt:
                    return "a 1/4-capped relaxation exceeds 4x the direct optimum"
                return None

            tally.op(label, oracle_op)


WORKLOADS = {w.name: w for w in (CliRegimes(), SweepVlb(), ExactBigden(), CertifyOracle())}
