"""Independent feasibility checker for schedules.

The verifier knows nothing about how a schedule was produced. It checks,
per step, edge capacities and per-node rate sums, cumulative per-commodity
flow conservation (data may wait at a node between steps), and finally
demand satisfaction. Problems are reported as violations, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .model import _SUM_CAP, Instance, Matrix, Schedule, step_arrays
from .rational import render_rational


@dataclass(frozen=True)
class Violation:
    kind: str  # capacity | node_rate | conservation | node_range | commodity
    step: int
    where: tuple
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    feasible: bool
    violations: tuple[Violation, ...]
    max_edge_load: Fraction
    unmet_demand: Matrix
    is_integral: bool
    is_direct: bool

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "violations": [
                {"kind": v.kind, "step": v.step, "where": list(v.where), "detail": v.detail}
                for v in self.violations
            ],
            "max_edge_load": render_rational(self.max_edge_load),
            "unmet_demand": [
                [render_rational(x) for x in row] for row in self.unmet_demand
            ],
            "is_integral": self.is_integral,
            "is_direct": self.is_direct,
        }


def classify(schedule: Schedule) -> tuple[bool, bool]:
    """Return (direct, integral) for a schedule; purely descriptive."""
    direct = True
    integral = True
    for step in schedule.steps:
        out_edges: dict[int, set] = {}
        in_edges: dict[int, set] = {}
        for t in step.transfers:
            if t.src != t.origin or t.dst != t.dest:
                direct = False
            out_edges.setdefault(t.src, set()).add(t.dst)
            in_edges.setdefault(t.dst, set()).add(t.src)
        if any(len(s) > 1 for s in out_edges.values()):
            integral = False
        if any(len(s) > 1 for s in in_edges.values()):
            integral = False
    return direct, integral


def _fast_verify(
    instance: Instance, schedule: Schedule, scale: int, mult: dict
) -> VerificationReport | None:
    """Vectorized check for clean schedules. Returns None whenever any
    violation is suspected or the numbers are too large for exact float64
    sums; the caller then runs the reference loop, which produces the
    detailed violation records."""
    n = instance.n
    count = sum(len(st.transfers) for st in schedule.steps)
    if count == 0:
        return None
    nsteps = len(schedule.steps)
    # Conservation is checked globally: every balance change becomes an
    # event (key = commodity-at-node, rank = availability time), events
    # are sorted by (key, rank) and per-key running sums must stay >= 0.
    # Rank packing: initial stock 0, outflow at step s -> 2s+1, arrival
    # from step s -> 2s+2 (available at s+1, before step s+1 outflows).
    rank_span = 2 * nsteps + 2
    if n * n * n * rank_span >= 2**62:
        return None
    comm = list(instance.commodities())
    init_keys = np.array([(i * n + j) * n + i for i, j, _ in comm], dtype=np.int64)
    init_amts = np.array(
        [d.numerator * mult[d.denominator] for _, _, d in comm], dtype=np.float64
    )
    budget = count + len(comm)
    if init_amts.size and int(init_amts.max()) * budget >= _SUM_CAP:
        return None

    scaled: dict[int, int] = {}
    events_key = [init_keys * rank_span]
    events_amt = [init_amts]
    max_load = 0
    direct = True
    integral = True
    for s, step in enumerate(schedule.steps):
        ts = step.transfers
        if not ts:
            continue
        cols = step_arrays(ts, scaled, mult, n)
        if cols is None:
            return None
        src, dst, origin, dest, amt = cols
        if int(amt.max()) * budget >= _SUM_CAP or int(amt.min()) <= 0:
            return None
        if (src == dst).any() or (origin == dest).any():
            return None
        af = amt.astype(np.float64)
        edges = src * n + dst
        loads = np.bincount(edges, weights=af, minlength=n * n)
        top = int(loads.max())
        if top > scale:
            return None
        if top > max_load:
            max_load = top
        if int(np.bincount(src, weights=af, minlength=n).max()) > scale:
            return None
        if int(np.bincount(dst, weights=af, minlength=n).max()) > scale:
            return None
        if integral:
            present = np.flatnonzero(loads)
            if (
                np.unique(present // n).size != present.size
                or np.unique(present % n).size != present.size
            ):
                integral = False
        if direct and not ((src == origin).all() and (dst == dest).all()):
            direct = False
        pair = (origin * n + dest) * n
        events_key.append((pair + src) * rank_span + (2 * s + 1))
        events_amt.append(-af)
        events_key.append((pair + dst) * rank_span + (2 * s + 2))
        events_amt.append(af)

    comp = np.concatenate(events_key)
    amts = np.concatenate(events_amt)
    order = np.argsort(comp)
    keys = comp[order] // rank_span
    sums = np.cumsum(amts[order])
    starts = np.concatenate(
        ([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1)
    )
    baseline = np.concatenate(([0.0], sums[starts[1:] - 1]))
    if (np.minimum.reduceat(sums, starts) < baseline).any():
        return None  # conservation violation somewhere
    ends = np.append(starts[1:], len(sums)) - 1
    totals = sums[ends] - baseline
    ukeys = keys[starts]

    wanted = np.array([(i * n + j) * n + j for i, j, _ in comm], dtype=np.int64)
    idx = np.searchsorted(ukeys, wanted)
    idx[idx >= ukeys.size] = 0
    got = np.where(ukeys[idx] == wanted, totals[idx], 0.0)
    short = init_amts - got

    zero = Fraction(0)
    cache = {0: zero}
    rows = [[zero] * n for _ in range(n)]
    feasible = True
    for (i, j, _), x in zip(comm, short.astype(np.int64).tolist()):
        if x:
            if x > 0:
                feasible = False
            f = cache.get(x)
            if f is None:
                f = cache[x] = Fraction(x, scale)
            rows[i][j] = f
    return VerificationReport(
        feasible=feasible,
        violations=(),
        max_edge_load=Fraction(max_load, scale),
        unmet_demand=tuple(tuple(r) for r in rows),
        is_integral=integral,
        is_direct=direct,
    )


def verify(instance: Instance, schedule: Schedule) -> VerificationReport:
    """Check a schedule against an instance and report everything found.

    All arithmetic is exact; amounts are rescaled to integers over a common
    denominator so that large schedules verify quickly.
    """
    n = instance.n
    violations: list[Violation] = []

    dens = {t[4].denominator for step in schedule.steps for t in step.transfers}
    dens.update(x.denominator for row in instance.demands for x in row)
    scale = lcm(*dens)
    mult = {den: scale // den for den in dens}

    fast = _fast_verify(instance, schedule, scale, mult)
    if fast is not None:
        return fast

    # Amounts are rescaled to integers over the common denominator, and all
    # bookkeeping keys are packed into single ints, so that verification of
    # large schedules stays cheap. balance[(origin*n + dest)*n + node] holds
    # the scaled amount of that commodity sitting at node; origins start
    # with their full demand.
    balance: dict[int, int] = {}
    for i, j, d in instance.commodities():
        balance[(i * n + j) * n + i] = d.numerator * mult[d.denominator]

    max_load = 0
    direct = True
    integral = True
    scaled: dict[int, int] = {}  # id(amount) -> scaled value; objects repeat
    bget = balance.get

    for s, step in enumerate(schedule.steps):
        edge_load: dict[int, int] = {}
        eget = edge_load.get
        inflows: list[tuple[int, int]] = []
        arrived = inflows.append

        for src, dst, origin, dest, amount in step.transfers:
            if not (0 <= src < n and 0 <= dst < n) or src == dst:
                violations.append(
                    Violation("node_range", s, (src, dst), "bad physical edge")
                )
                continue
            if origin == dest or not (0 <= origin < n and 0 <= dest < n):
                violations.append(
                    Violation("commodity", s, (origin, dest), "bad commodity")
                )
                continue
            a = scaled.get(id(amount))
            if a is None:
                a = amount.numerator * mult[amount.denominator]
                scaled[id(amount)] = a
            if a <= 0:
                violations.append(
                    Violation("commodity", s, (src, dst), "non-positive amount")
                )
                continue
            edge = src * n + dst
            edge_load[edge] = eget(edge, 0) + a
            if src != origin or dst != dest:
                direct = False
            pair = (origin * n + dest) * n
            # Outflows draw on balances as of the start of the step, so
            # they are applied immediately; arrivals are deferred to the
            # end of the step and only become available at s + 1.
            key = pair + src
            rest = bget(key, 0) - a
            balance[key] = rest
            if rest < 0:
                violations.append(
                    Violation(
                        "conservation", s, (origin, dest, src),
                        "commodity leaves a node holding none of it",
                    )
                )
            arrived((pair + dst, a))

        # Node rates and integrality are derived from the per-edge loads;
        # a step is integral iff no node appears on two distinct edges on
        # the same side.
        out_rate: dict[int, int] = {}
        in_rate: dict[int, int] = {}
        for edge, load in edge_load.items():
            if load > max_load:
                max_load = load
            if load > scale:
                violations.append(
                    Violation(
                        "capacity", s, divmod(edge, n),
                        f"edge load {render_rational(Fraction(load, scale))} > 1",
                    )
                )
            src, dst = divmod(edge, n)
            if src in out_rate:
                integral = False
            if dst in in_rate:
                integral = False
            out_rate[src] = out_rate.get(src, 0) + load
            in_rate[dst] = in_rate.get(dst, 0) + load
        for v, rate in out_rate.items():
            if rate > scale:
                violations.append(
                    Violation("node_rate", s, (v,), "outgoing rate exceeds 1")
                )
        for v, rate in in_rate.items():
            if rate > scale:
                violations.append(
                    Violation("node_rate", s, (v,), "incoming rate exceeds 1")
                )

        for key, a in inflows:
            balance[key] = bget(key, 0) + a

    zero = Fraction(0)
    met = True
    unmet = []
    for i in range(n):
        row = []
        base = i * n * n
        for j, d in enumerate(instance.demands[i]):
            num = d.numerator
            if num > 0:
                short = num * mult[d.denominator] - balance.get(base + j * n + j, 0)
                if short == 0:
                    row.append(zero)
                else:
                    if short > 0:
                        met = False
                    row.append(Fraction(short, scale))
            else:
                row.append(zero)
        unmet.append(tuple(row))

    feasible = not violations and met
    return VerificationReport(
        feasible=feasible,
        violations=tuple(violations),
        max_edge_load=Fraction(max_load, scale),
        unmet_demand=tuple(unmet),
        is_integral=integral,
        is_direct=direct,
    )
