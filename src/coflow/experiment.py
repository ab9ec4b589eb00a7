"""Experiment harness: algorithm sweeps over (n, B) grids with CSV output.

Cells are independent jobs; rows come back in deterministic order no
matter how many workers run them, and everything except wall time is
bit-for-bit reproducible from (family, n, B, seed). The grid is lazy and
rows stream out as cells complete, so a sweep's memory does not grow with
its cell count.
"""

from __future__ import annotations

import csv
import os
import sys
import time
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import product
from operator import index

from .certificates import lower_bounds
from .direct import edge_coloring_schedule, greedy_schedule, smeared_fractional_schedule
from .errors import NegativeDemandError, SizeGuardError, StructuralError
from .generators import FAMILIES, generate
from .indirect import (
    auto_schedule,
    elementary_basis_schedule,
    grid_schedule,
    hypercube_schedule,
    round_robin_schedule,
    vlb_lift,
)
from .model import _check_nodes, compute_metrics, read_json
from .rational import parse_rational, render_decimal, render_rational
from .verifier import verify

SCHEMA_VERSION = "coflow-results-v1"
CSV_COLUMNS = [
    "family", "n", "B", "algorithm", "seed", "feasible", "makespan",
    "total_completion", "average_completion", "max_edge_load",
    "lower_bound_max", "ratio_makespan", "ratio_avg", "oracle_ratio",
    "wall_time_ms",
]

# The one scheduler registry, shared with the CLI. Builders take (instance,
# nominal_load): the requested B of a cell, which regime-sensitive schemes
# need (a diagonal-free uniform instance has actual load bound B(n-1)/n,
# which would flip regime choices at the boundaries), or None for the
# instance's own load bound. Entries look the schedulers up at call time,
# so a tracer that replaces the module-level names (perfbench/spans.py)
# sees every call.
ALGORITHMS = {
    "greedy": lambda inst, load: greedy_schedule(inst)[0],
    "edge-coloring": lambda inst, load: edge_coloring_schedule(inst),
    "smeared": lambda inst, load: smeared_fractional_schedule(inst),
    "round-robin": lambda inst, load: round_robin_schedule(inst, nominal_load=load),
    "hypercube": lambda inst, load: hypercube_schedule(inst),
    "elementary-basis": lambda inst, load: elementary_basis_schedule(
        inst, nominal_load=load
    ),
    "grid": lambda inst, load: grid_schedule(inst),
    "vlb": lambda inst, load: vlb_lift(inst, nominal_load=load),
    "auto": lambda inst, load: auto_schedule(inst, nominal_load=load),
}


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: tuple[int, ...]
    load_values: tuple[Fraction, ...]
    algorithms: tuple[str, ...]
    family: str = "uniform"
    seed: int = 0
    repetitions: int = 1
    workers: int = 1

    def __post_init__(self):
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise StructuralError(f"unknown algorithm(s) {unknown}")
        if self.family not in FAMILIES:
            raise StructuralError(f"unknown instance family {self.family!r}")
        for name in ("repetitions", "workers"):
            if getattr(self, name) < 1:
                raise StructuralError(f"{name} must be at least 1, got {getattr(self, name)}")
        # Refuse, before any cell runs, an n or a load bound that generate would.
        for n in self.n_values:
            _check_nodes(n)
        for load in self.load_values:
            if load <= 0:
                raise NegativeDemandError(f"load bound must be positive, got {load}")

    @staticmethod
    def from_json(obj: dict) -> "ExperimentConfig":
        try:
            algorithms = obj["algorithms"]
            if not (isinstance(algorithms, list)
                    and all(type(a) is str for a in algorithms)):
                raise TypeError(f"algorithms is not a list of names: {algorithms!r}")
            unknown = sorted(set(obj) - {f.name for f in fields(ExperimentConfig)})
            if unknown:
                raise TypeError(f"unknown key(s) {unknown}")
            return ExperimentConfig(
                n_values=tuple(index(x) for x in obj["n_values"]),
                load_values=tuple(parse_rational(str(x)) for x in obj["load_values"]),
                algorithms=tuple(algorithms),
                family=obj.get("family", "uniform"),
                seed=index(obj.get("seed", 0)),
                repetitions=index(obj.get("repetitions", 1)),
                workers=index(obj.get("workers", 1)),
            )
        except (KeyError, TypeError) as exc:
            raise StructuralError(f"malformed experiment config: {exc}") from exc

    @staticmethod
    def load(path: str) -> "ExperimentConfig":
        return ExperimentConfig.from_json(read_json(path))


def _run_cell(cell) -> dict:
    family, n, load, algorithm, seed = cell
    instance = generate(family, n, load, seed)
    start = time.monotonic()
    schedule = ALGORITHMS[algorithm](instance, load)
    wall_ms = int(1000 * (time.monotonic() - start))
    report = verify(instance, schedule)
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update({
        "family": family,
        "n": n,
        "B": render_rational(load),
        "algorithm": algorithm,
        "seed": seed,
        "feasible": report.feasible,
        "max_edge_load": render_rational(report.max_edge_load),
        "wall_time_ms": wall_ms,
    })
    if not report.feasible:
        return row
    metrics = compute_metrics(instance, schedule)
    bounds = lower_bounds(n, load)
    oracle_ratio = ""
    if algorithm == "greedy" and n <= 4 and instance.total_demand > 0:
        # Desk-scale cells also get an exact optimality ratio from the LP.
        from .oracle import opt_direct_fractional

        try:
            opt = opt_direct_fractional(instance)
            if opt > 0:
                oracle_ratio = render_decimal(metrics.total_completion / opt)
        except SizeGuardError:
            pass  # oracle guard tripped; the column stays blank
    row.update({
        "makespan": metrics.makespan,
        "total_completion": render_rational(metrics.total_completion),
        "average_completion": render_rational(metrics.average_completion),
        "lower_bound_max": render_rational(bounds.max_lb),
        "ratio_makespan": render_decimal(Fraction(metrics.makespan) / bounds.max_lb),
        "ratio_avg": render_decimal(metrics.average_completion / bounds.max_lb),
        "oracle_ratio": oracle_ratio,
    })
    return row


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def stream_rows(config: ExperimentConfig) -> Iterator[dict]:
    """Run the cells of the grid lazily; yields each row, in grid order, as
    its cell completes."""
    # product holds each of its inputs as a tuple, so the repetitions, which
    # may number in the billions, stay a range in the innermost loop.
    seeds = range(config.seed, config.seed + config.repetitions)
    cells = ((config.family, n, load, alg, seed)
             for n, load, alg in product(config.n_values, config.load_values, config.algorithms)
             for seed in seeds)
    count = (len(config.n_values) * len(config.load_values) * len(config.algorithms)
             * config.repetitions)
    # A pool starts all its workers at once, so it gets no more than there
    # are cells to run and cores to run them on.
    workers = min(config.workers, count, _usable_cores())
    if workers > 1:
        return _pooled(cells, workers)
    return map(_run_cell, cells)


def _pool(workers: int):
    """A pool of ``workers`` processes, started the platform's default way
    (fork on Linux up to Python 3.13). A sweep on one worker loads no pool
    modules at all."""
    from concurrent.futures import ProcessPoolExecutor

    if not hasattr(sys, "get_int_max_str_digits"):  # before 3.10.7: no limit
        return ProcessPoolExecutor(max_workers=workers)
    # A worker that is not forked starts at the default int-string limit of
    # 4,300 digits, which the rationals of a row may pass; it gets the
    # command's limit instead.
    return ProcessPoolExecutor(max_workers=workers, initializer=sys.set_int_max_str_digits,
                               initargs=(sys.get_int_max_str_digits(),))


def _pooled(cells: Iterator[tuple], workers: int) -> Iterator[dict]:
    """Rows of ``cells`` from a pool, in grid order, with at most two cells
    per worker submitted and not yet yielded. A failed cell, or a consumer
    that stops early, cancels the cells not yet started."""
    with _pool(workers) as pool:
        window = deque()
        try:
            for cell in cells:
                window.append(pool.submit(_run_cell, cell))
                if len(window) == 2 * workers:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run every cell of the grid; returns rows in deterministic order.
    ``write_csv(stream_rows(config), path)`` writes each row as its cell
    completes."""
    return list(stream_rows(config))


def write_rows(rows: Iterable[dict], fh) -> None:
    """Write the schema line, the header and then each row as it comes,
    flushed, so a sweep cut short keeps every row before the cut."""
    writer = csv.writer(fh)
    writer.writerow([SCHEMA_VERSION])
    writer.writerow(CSV_COLUMNS)
    fh.flush()
    for row in rows:
        writer.writerow([row[c] for c in CSV_COLUMNS])
        fh.flush()


def write_csv(rows: Iterable[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        write_rows(rows, fh)


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        version = next(reader, None)
        if version != [SCHEMA_VERSION]:
            raise StructuralError(f"unknown results schema {version!r}")
        if next(reader, None) != CSV_COLUMNS:
            raise StructuralError(f"results file lacks the {SCHEMA_VERSION} header")
        return [dict(zip(CSV_COLUMNS, row)) for row in reader]


def _ratio(row: dict, col: str) -> float:
    try:
        return float(row[col])
    except ValueError:
        raise StructuralError(f"results {col} {row[col]!r} is not a number") from None


# Table quadrants: (matching, routing, objective) -> how we measure it.
_TABLE1_ROWS = [
    ("fractional", "direct", "makespan", "smeared", "1"),
    ("fractional", "indirect", "makespan", "smeared", "1"),
    ("fractional", "direct", "avg-completion", "greedy", "16"),
    ("fractional", "indirect", "avg-completion", "greedy", "16"),
    ("integral", "direct", "makespan", "edge-coloring", "1"),
    ("integral", "indirect", "makespan", "auto", "O(log n)"),
    ("integral", "direct", "avg-completion", None, "sqrt(2) [out of scope]"),
    ("integral", "indirect", "avg-completion", "auto", "O(log n)"),
]


def emit_table1(rows: list[dict]) -> str:
    """Render measured ratios per quadrant next to the claimed guarantees."""
    by_alg: dict[str, list[dict]] = {}
    for row in rows:
        if str(row.get("feasible")) == "True":
            by_alg.setdefault(row["algorithm"], []).append(row)
    lines = [
        f"{'matching':<12} {'routing':<10} {'objective':<16} "
        f"{'guarantee':<24} {'measured max ratio':<18}",
        "-" * 84,
    ]
    for matching, routing, objective, alg, claim in _TABLE1_ROWS:
        if alg is None:
            measured = "out of scope"
        else:
            if objective == "makespan":
                col = "ratio_makespan"
            elif alg == "greedy":
                col = "oracle_ratio"  # vs the exact LP optimum
            else:
                col = "ratio_avg"
            vals = [_ratio(r, col) for r in by_alg.get(alg, []) if r.get(col)]
            measured = f"{max(vals):.4g}" if vals else "no data"
        lines.append(
            f"{matching:<12} {routing:<10} {objective:<16} {claim:<24} {measured:<18}"
        )
    return "\n".join(lines)
