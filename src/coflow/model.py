"""Core domain types: instances, matchings, schedules and metrics.

Everything is exact: demands, flow amounts and derived quantities are
:class:`fractions.Fraction`. Types are immutable after construction and
safe to share across threads.

Time convention: step index ``s`` covers the interval ``[s, s+1]``; data
moved during step ``s`` completes at time ``s + 1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DiagonalDemandError,
    DimensionError,
    NegativeDemandError,
    StructuralError,
)
from .rational import parse_rational, render_rational

Matrix = tuple[tuple[Fraction, ...], ...]


def _freeze_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in row)
        for row in rows
    )


def matrix_row_sums(m: Matrix) -> list[Fraction]:
    return [sum(row, Fraction(0)) for row in m]


def matrix_col_sums(m: Matrix) -> list[Fraction]:
    n = len(m)
    return [sum((m[i][j] for i in range(n)), Fraction(0)) for j in range(n)]


@dataclass(frozen=True)
class Instance:
    """A coflow instance: node count and an exact demand matrix.

    ``load_bound`` caches the maximum row or column sum of the demands,
    a lower bound on the makespan of any feasible schedule.
    """

    n: int
    demands: Matrix
    load_bound: Fraction

    @property
    def total_demand(self) -> Fraction:
        dens = {x.denominator for row in self.demands for x in row}
        sc = lcm(*dens)
        tot = sum(
            x.numerator * (sc // x.denominator) for row in self.demands for x in row
        )
        return Fraction(tot, sc)

    def commodities(self) -> Iterable[tuple[int, int, Fraction]]:
        """Yield (origin, destination, demand) for every positive demand."""
        for i in range(self.n):
            row = self.demands[i]
            for j in range(self.n):
                if row[j] > 0:
                    yield i, j, row[j]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "demands": [[render_rational(x) for x in row] for row in self.demands],
        }

    @staticmethod
    def from_json(obj: dict) -> "Instance":
        demands = [[parse_rational(x) for x in row] for row in obj["demands"]]
        return make_instance(int(obj["n"]), demands)


def make_instance(n: int, demands: Sequence[Sequence]) -> Instance:
    """Validate a demand matrix and build an Instance with its load bound."""
    if n < 2:
        raise DimensionError(f"need at least 2 nodes, got n={n}")
    if len(demands) != n or any(len(row) != n for row in demands):
        raise DimensionError(f"demand matrix is not {n}x{n}")
    mat = _freeze_matrix(demands)
    # Sums are taken over integers scaled by the common denominator so that
    # validation stays cheap on large all-to-all matrices.
    scale = lcm(*{x.denominator for row in mat for x in row})
    mult = {}
    col = [0] * n
    best = 0
    for i in range(n):
        if mat[i][i] != 0:
            raise DiagonalDemandError(f"nonzero diagonal demand at ({i},{i})")
        acc = 0
        for j, x in enumerate(mat[i]):
            num, den = x.numerator, x.denominator
            if num < 0:
                raise NegativeDemandError(f"negative demand at ({i},{j})")
            m = mult.get(den)
            if m is None:
                m = mult[den] = scale // den
            a = num * m
            acc += a
            col[j] += a
        if acc > best:
            best = acc
    load = Fraction(max(best, max(col)), scale)
    return Instance(n=n, demands=mat, load_bound=load)


def uniform_instance(n: int, load: Fraction | int | str) -> Instance:
    """All-to-all instance with every off-diagonal entry ``load / n``.

    The diagonal is zeroed, so the actual load bound is ``load*(n-1)/n``;
    the nominal ``load`` parameter is still the one used in bound formulas.
    """
    load = parse_rational(load) if isinstance(load, str) else Fraction(load)
    if load <= 0:
        raise NegativeDemandError(f"load bound must be positive, got {load}")
    entry = load / n
    demands = [
        [entry if i != j else Fraction(0) for j in range(n)] for i in range(n)
    ]
    return make_instance(n, demands)


class Transfer(NamedTuple):
    """One parcel moved over a physical edge during one step.

    ``origin``/``dest`` identify the commodity the parcel belongs to;
    ``src``/``dst`` are the endpoints of the physical edge actually used
    (they differ from the commodity on relay hops).
    """

    src: int
    dst: int
    origin: int
    dest: int
    amount: Fraction


@dataclass(frozen=True)
class Step:
    transfers: tuple[Transfer, ...]


@dataclass(frozen=True)
class Schedule:
    """A horizon plus one set of per-edge, per-commodity parcels per step."""

    n: int
    steps: tuple[Step, ...]

    @property
    def horizon(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "steps": [
                {
                    "transfers": [
                        {
                            "from": t.src,
                            "to": t.dst,
                            "commodity": [t.origin, t.dest],
                            "amount": render_rational(t.amount),
                        }
                        for t in step.transfers
                    ]
                }
                for step in self.steps
            ],
        }

    @staticmethod
    def from_json(obj: dict, n: int) -> "Schedule":
        steps = []
        for step in obj["steps"]:
            transfers = tuple(
                Transfer(
                    src=int(t["from"]),
                    dst=int(t["to"]),
                    origin=int(t["commodity"][0]),
                    dest=int(t["commodity"][1]),
                    amount=parse_rational(t["amount"]),
                )
                for t in step["transfers"]
            )
            steps.append(Step(transfers))
        sched = Schedule(n=n, steps=tuple(steps))
        if sched.horizon != int(obj["horizon"]):
            raise StructuralError("declared horizon does not match step count")
        return sched


def schedule_from_steps(n: int, step_transfers: Sequence[Sequence[Transfer]]) -> Schedule:
    return Schedule(n=n, steps=tuple(Step(tuple(ts)) for ts in step_transfers))


@dataclass(frozen=True)
class FractionalMatching:
    """(source, receiver, rate) triples with per-node rate sums <= cap."""

    triples: tuple[tuple[int, int, Fraction], ...]
    cap: Fraction = Fraction(1)

    def __post_init__(self):
        out: dict[int, Fraction] = {}
        into: dict[int, Fraction] = {}
        seen = set()
        for s, r, p in self.triples:
            if s == r:
                raise StructuralError(f"self-loop ({s},{r}) in fractional matching")
            if p <= 0:
                raise StructuralError(f"non-positive rate on ({s},{r})")
            if (s, r) in seen:
                raise StructuralError(f"duplicate pair ({s},{r})")
            seen.add((s, r))
            out[s] = out.get(s, Fraction(0)) + p
            into[r] = into.get(r, Fraction(0)) + p
        for v, tot in list(out.items()) + list(into.items()):
            if tot > self.cap:
                raise StructuralError(f"node {v} exceeds matching cap {self.cap}")

    @property
    def total_rate(self) -> Fraction:
        return sum((p for _, _, p in self.triples), Fraction(0))


@dataclass(frozen=True)
class IntegralMatching:
    """Partial injective map from source nodes to receiver nodes."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        srcs = [s for s, _ in self.edges]
        dsts = [d for _, d in self.edges]
        if any(s == d for s, d in self.edges):
            raise StructuralError("self-loop in integral matching")
        if len(set(srcs)) != len(srcs) or len(set(dsts)) != len(dsts):
            raise StructuralError("repeated node in integral matching")


@dataclass(frozen=True)
class Metrics:
    makespan: int
    total_completion: Fraction
    average_completion: Fraction
    delivered: Matrix

    def to_json(self) -> dict:
        return {
            "makespan": self.makespan,
            "total_completion": render_rational(self.total_completion),
            "average_completion": render_rational(self.average_completion),
            "delivered": [
                [render_rational(x) for x in row] for row in self.delivered
            ],
        }


# Caps under which scaled amounts can be summed in float64 without any
# rounding: every partial sum stays an integer below 2**53.
_AMOUNT_CAP = 2**40
_SUM_CAP = 2**53


def step_arrays(transfers, scaled: dict, mult: dict, n: int):
    """Columnar int64 arrays (src, dst, origin, dest, amount) for one step.

    ``scaled`` caches scaled amounts by object identity (amount objects are
    shared heavily in large schedules). Returns None when the data cannot
    be represented safely in int64, or when a node column leaves 0..n-1.
    """
    src, dst, origin, dest, amounts = zip(*transfers)
    vals = []
    ap = vals.append
    get = scaled.get
    try:
        for a in amounts:
            v = get(id(a))
            if v is None:
                v = scaled[id(a)] = a.numerator * mult[a.denominator]
            ap(v)
        count = len(vals)
        arr = np.array(vals, dtype=np.int64)
        cols = (
            np.fromiter(src, np.int64, count),
            np.fromiter(dst, np.int64, count),
            np.fromiter(origin, np.int64, count),
            np.fromiter(dest, np.int64, count),
        )
    except (OverflowError, TypeError, ValueError, AttributeError, KeyError):
        return None
    if count and int(arr.max()) >= _AMOUNT_CAP:
        return None
    if any(int(col.min()) < 0 or int(col.max()) >= n for col in cols):
        return None
    return (*cols, arr)


def _fast_metrics(
    instance: Instance, schedule: Schedule, scale: int, mult: dict
) -> Metrics | None:
    """Vectorized metrics for well-formed schedules; None means the caller
    must use the reference loop (bad data, or numbers too large)."""
    n = instance.n
    count = sum(len(st.transfers) for st in schedule.steps)
    if count == 0:
        return None
    positive = np.array(
        [[x.numerator > 0 for x in row] for row in instance.demands], dtype=bool
    ).ravel()
    scaled: dict[int, int] = {}
    delivered = np.zeros(n * n)
    total = 0
    makespan = 0
    for s, step in enumerate(schedule.steps):
        ts = step.transfers
        if not ts:
            continue
        cols = step_arrays(ts, scaled, mult, n)
        if cols is None:
            return None
        src, dst, origin, dest, amt = cols
        if int(amt.max()) * count >= _SUM_CAP:
            return None
        pair = origin * n + dest
        if (origin == dest).any() or not positive[pair].all():
            return None
        mask = dst == dest
        if mask.any():
            a = amt[mask].astype(np.float64)
            delivered += np.bincount(pair[mask], weights=a, minlength=n * n)
            total += int(a.sum()) * (s + 1)
            makespan = s + 1
    cache = {0: Fraction(0)}
    rows = []
    flat = delivered.astype(np.int64).tolist()
    for i in range(n):
        row = []
        for x in flat[i * n : (i + 1) * n]:
            f = cache.get(x)
            if f is None:
                f = cache[x] = Fraction(x, scale)
            row.append(f)
        rows.append(tuple(row))
    total_completion = Fraction(total, scale)
    demand_sum = instance.total_demand
    avg = total_completion / demand_sum if demand_sum > 0 else Fraction(0)
    return Metrics(
        makespan=makespan,
        total_completion=total_completion,
        average_completion=avg,
        delivered=tuple(rows),
    )


def compute_metrics(instance: Instance, schedule: Schedule) -> Metrics:
    """Makespan, total and average completion time of a schedule.

    Only arrivals at a commodity's final destination count as completions;
    relay hops do not. Works in integers over a common denominator so that
    large schedules stay cheap to evaluate.
    """
    n = instance.n
    if schedule.n != n:
        raise StructuralError("schedule node count does not match instance")
    dens = {t[4].denominator for step in schedule.steps for t in step.transfers}
    scale = lcm(*dens) if dens else 1
    mult = {den: scale // den for den in dens}
    fast = _fast_metrics(instance, schedule, scale, mult)
    if fast is not None:
        return fast
    positive = [bytes(x > 0 for x in row) for row in instance.demands]
    delivered = [[0] * n for _ in range(n)]
    total = 0
    makespan = 0
    for s, step in enumerate(schedule.steps):
        done = s + 1
        for src, dst, origin, dest, amount in step.transfers:
            if not (0 <= src < n and 0 <= dst < n):
                raise StructuralError(f"transfer references unknown node at step {s}")
            if origin == dest or not (0 <= origin < n and 0 <= dest < n):
                raise StructuralError(f"invalid commodity ({origin},{dest})")
            if not positive[origin][dest]:
                raise StructuralError(
                    f"positive flow for zero-demand pair ({origin},{dest})"
                )
            if dst == dest:
                a = amount.numerator * mult[amount.denominator]
                delivered[origin][dest] += a
                total += a * done
                if done > makespan:
                    makespan = done
    total_completion = Fraction(total, scale)
    demand_sum = instance.total_demand
    avg = total_completion / demand_sum if demand_sum > 0 else Fraction(0)
    delivered_mat = tuple(
        tuple(Fraction(x, scale) for x in row) for row in delivered
    )
    return Metrics(
        makespan=makespan,
        total_completion=total_completion,
        average_completion=avg,
        delivered=delivered_mat,
    )


def load_instance(path: str) -> Instance:
    with open(path) as fh:
        return Instance.from_json(json.load(fh))


def dump_instance(instance: Instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance.to_json(), fh, indent=2)


def load_schedule(path: str, n: int) -> Schedule:
    with open(path) as fh:
        return Schedule.from_json(json.load(fh), n)


def dump_schedule(schedule: Schedule, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(schedule.to_json(), fh)
