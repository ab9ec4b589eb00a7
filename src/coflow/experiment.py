"""Experiment harness: algorithm sweeps over (n, B) grids with CSV output.

Cells are independent jobs; rows come back in deterministic order no
matter how many workers run them, and everything except wall time is
bit-for-bit reproducible from (family, n, B, seed).
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .certificates import lower_bounds
from .direct import edge_coloring_schedule, greedy_schedule, smeared_fractional_schedule
from .errors import SizeGuardError, StructuralError
from .generators import FAMILIES, generate
from .indirect import (
    auto_schedule,
    elementary_basis_schedule,
    grid_schedule,
    hypercube_schedule,
    round_robin_schedule,
    vlb_lift,
)
from .model import compute_metrics
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
    output: str | None = None
    workers: int = 1

    def __post_init__(self):
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise StructuralError(f"unknown algorithm(s) {unknown}")
        if self.family not in FAMILIES:
            raise StructuralError(f"unknown instance family {self.family!r}")

    @staticmethod
    def from_json(obj: dict) -> "ExperimentConfig":
        return ExperimentConfig(
            n_values=tuple(int(x) for x in obj["n_values"]),
            load_values=tuple(parse_rational(str(x)) for x in obj["load_values"]),
            algorithms=tuple(obj["algorithms"]),
            family=obj.get("family", "uniform"),
            seed=int(obj.get("seed", 0)),
            repetitions=int(obj.get("repetitions", 1)),
            output=obj.get("output"),
            workers=int(obj.get("workers", 1)),
        )

    @staticmethod
    def load(path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_json(json.load(fh))


def _run_cell(cell) -> dict:
    family, n, load, algorithm, seed = cell
    instance = generate(family, n, load, seed)
    start = time.monotonic()
    schedule = ALGORITHMS[algorithm](instance, load)
    wall_ms = int(1000 * (time.monotonic() - start))
    report = verify(instance, schedule)
    row = {
        "family": family,
        "n": n,
        "B": render_rational(load),
        "algorithm": algorithm,
        "seed": seed,
        "feasible": report.feasible,
        "wall_time_ms": wall_ms,
    }
    if not report.feasible:
        row.update({
            "makespan": "", "total_completion": "", "average_completion": "",
            "max_edge_load": render_rational(report.max_edge_load),
            "lower_bound_max": "", "ratio_makespan": "", "ratio_avg": "",
            "oracle_ratio": "",
        })
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
        "max_edge_load": render_rational(report.max_edge_load),
        "lower_bound_max": render_rational(bounds.max_lb),
        "ratio_makespan": render_decimal(Fraction(metrics.makespan) / bounds.max_lb),
        "ratio_avg": render_decimal(metrics.average_completion / bounds.max_lb),
        "oracle_ratio": oracle_ratio,
    })
    return row


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run every cell of the grid; returns rows in deterministic order."""
    cells = [
        (config.family, n, load, alg, config.seed + rep)
        for n in config.n_values
        for load in config.load_values
        for alg in config.algorithms
        for rep in range(config.repetitions)
    ]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_run_cell, cells))
    else:
        rows = [_run_cell(c) for c in cells]
    if config.output:
        write_csv(rows, config.output)
    return rows


def write_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([SCHEMA_VERSION])
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in CSV_COLUMNS])


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        version = next(reader)[0]
        if version != SCHEMA_VERSION:
            raise ValueError(f"unknown results schema {version!r}")
        header = next(reader)
        return [dict(zip(header, row)) for row in reader]


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
            vals = [float(r[col]) for r in by_alg.get(alg, []) if r.get(col)]
            measured = f"{max(vals):.4g}" if vals else "no data"
        lines.append(
            f"{matching:<12} {routing:<10} {objective:<16} {claim:<24} {measured:<18}"
        )
    return "\n".join(lines)
