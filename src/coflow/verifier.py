"""Independent feasibility checker for schedules.

The verifier knows nothing about how a schedule was produced. It checks,
per step, edge capacities and per-node rate sums, cumulative per-commodity
flow conservation (data may wait at a node between steps), that no
commodity leaves its destination (the destination is a sink), and finally
demand satisfaction. Problems are reported as violations, never raised.

It is one exact vectorized pass. Amounts are rescaled to integers over the
common denominator and held in numpy columns, built one step at a time:
int64 when every sum the pass forms fits in int64, Python ints in
``object`` arrays otherwise. Edge loads and node rates are sums over runs
of sorted edge codes, conservation is a running sum over balance events
sorted per (commodity, node), and every violation record is read off a
mask over those arrays, in the order a walk over the rows would meet it.
The per-row loop in ``tests/reference_verify.py`` is the reference the
pass must agree with.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import itemgetter

import numpy as np

from .model import Instance, Matrix, Schedule
from .rational import rational_renderer, render_rational


@dataclass(frozen=True)
class Violation:
    kind: str  # capacity | node_rate | conservation | sink | node_range | commodity
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
        render = rational_renderer()
        return {
            "feasible": self.feasible,
            "violations": [
                {"kind": v.kind, "step": v.step, "where": list(v.where), "detail": v.detail}
                for v in self.violations
            ],
            "max_edge_load": render(self.max_edge_load),
            "unmet_demand": [[render(x) for x in row] for row in self.unmet_demand],
            "is_integral": self.is_integral,
            "is_direct": self.is_direct,
        }


_INT64_MAX = 2**63 - 1
# Conservation sums runs of whole keys of about this many events at a time,
# so that few running sums are alive at once: each is a Python int when the
# amounts are.
_CHUNK = 1 << 12
_amount = itemgetter(4)


def _node_column(transfers: tuple, field: int, n: int) -> np.ndarray:
    """int64 column of one node field of a step's transfers. An id beyond
    int64 is out of range too, so it becomes -1 instead of overflowing."""
    get = itemgetter(field)
    try:
        return np.fromiter(map(get, transfers), np.int64, len(transfers))
    except OverflowError:
        ids = (x if 0 <= x < n else -1 for x in map(get, transfers))
        return np.fromiter(ids, np.int64, len(transfers))


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in sorted nonnegative keys."""
    return np.flatnonzero(np.diff(keys, prepend=-1))


def _balances(key: np.ndarray, amount: np.ndarray, outflow: np.ndarray, n: int):
    """Running balance of every key over its events, in event order.

    Returns the events that are outflows leaving their key below zero, and
    the keys (origin*n + dest)*n + dest with their final balances: what
    each commodity holds at its destination. A stable sort by key keeps
    each key's events in their given order.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = _group_starts(key)
    run_keys = key[starts]
    at_dest = run_keys % n == run_keys // n % n
    # Chunks of whole keys; cuts are key (group) indices.
    cuts = sorted({*np.searchsorted(starts, np.arange(0, key.size, _CHUNK)).tolist(),
                   starts.size})
    bounds = np.append(starts, key.size)
    short_of = [np.zeros(0, np.int64)]
    delivered = [np.zeros(0, amount.dtype)]
    for g0, g1 in zip(cuts, cuts[1:]):
        lo, hi = bounds[g0], bounds[g1]
        events = order[lo:hi]
        out = outflow[events]
        change = amount[events]
        change[out] = -change[out]
        held = np.cumsum(change)
        local = bounds[g0:g1 + 1] - lo  # each key's events: local[k]:local[k+1]
        before = np.where(local[:-1] > 0, held[local[:-1] - 1], 0)
        short_of.append(events[out & (held < np.repeat(before, np.diff(local)))])
        sel = at_dest[g0:g1]
        delivered.append(held[local[1:][sel] - 1] - before[sel])
    return np.concatenate(short_of), run_keys[at_dest], np.concatenate(delivered)


def _edge_checks(s, src, dst, amt, kept, n, scale, records) -> tuple[int, bool]:
    """Edge loads and node rates of one step's valid rows.

    Appends the step's capacity and node-rate records, keyed by the first
    row on each edge or node, and returns the largest edge load and whether
    the step is integral: no node has two distinct edges on the same side.
    Loads are sums over runs of the sorted edge codes; node rates sum those
    loads per tail and per head.
    """
    codes = src * n + dst
    order = np.argsort(codes)
    codes = codes[order]
    starts = _group_starts(codes)
    loads = np.add.reduceat(amt[order], starts)
    edges = codes[starts]
    tails = edges // n
    heads = edges % n
    out_starts = _group_starts(tails)
    by_head = np.argsort(heads)
    in_starts = _group_starts(heads[by_head])
    over = np.flatnonzero(loads > scale)
    out_over = np.flatnonzero(np.add.reduceat(loads, out_starts) > scale)
    in_over = np.flatnonzero(np.add.reduceat(loads[by_head], in_starts) > scale)
    if over.size or out_over.size or in_over.size:
        first = np.minimum.reduceat(order, starts)
        if kept is not None:
            first = kept[first]
        for g in over.tolist():
            load = render_rational(Fraction(int(loads[g]), scale))
            records.append((
                (s, 1, int(first[g]), 0),
                Violation("capacity", s, divmod(int(edges[g]), n), f"edge load {load} > 1"),
            ))
        first_out = np.minimum.reduceat(first, out_starts)
        for g in out_over.tolist():
            records.append((
                (s, 2, int(first_out[g]), 0),
                Violation("node_rate", s, (int(tails[out_starts[g]]),),
                          "outgoing rate exceeds 1"),
            ))
        first_in = np.minimum.reduceat(first[by_head], in_starts)
        for g in in_over.tolist():
            records.append((
                (s, 3, int(first_in[g]), 0),
                Violation("node_rate", s, (int(heads[by_head[in_starts[g]]]),),
                          "incoming rate exceeds 1"),
            ))
    integral = out_starts.size == in_starts.size == edges.size
    return int(loads.max()), integral


def verify(instance: Instance, schedule: Schedule) -> VerificationReport:
    """Check a schedule against an instance and report everything found.

    All arithmetic is exact: amounts are rescaled to integers over the
    common denominator of the demands and the transfers.
    """
    n = instance.n
    steps = [step.transfers for step in schedule.steps]
    entries = list(chain.from_iterable(instance.demands))

    # Instances and schedules share a few amount objects across millions
    # of entries and rows, so each distinct object is scaled once: this
    # maps id(amount) to the amount, and then to its scaled value.
    scaled = dict(zip(map(id, entries), entries))
    for ts in steps:
        scaled.update(zip(map(id, map(_amount, ts)), map(_amount, ts)))
    scale = lcm(*{a.denominator for a in scaled.values()})
    for k, a in scaled.items():
        scaled[k] = a.numerator * (scale // a.denominator)
    # Every load, rate and running balance is a sum of at most one amount
    # per row and per commodity (of which there are at most n(n-1)), so
    # int64 is exact when that bound fits.
    rows = sum(map(len, steps))
    big = max(map(abs, scaled.values()))
    fits = scale <= _INT64_MAX and big * (rows + n * (n - 1)) <= _INT64_MAX
    dtype = np.int64 if fits else object
    demand = np.fromiter(map(scaled.__getitem__, map(id, entries)), dtype, n * n)
    comm = np.flatnonzero(demand > 0)  # i*n + j for every commodity (i, j)

    # Conservation is a running sum over balance events keyed by
    # (origin*n + dest)*n + node: each origin's stock, then per step the
    # outflows in row order and the arrivals, which count from the next
    # step.
    event_key = np.empty(comm.size + 2 * rows, np.int64)
    event_amt = np.empty(event_key.size, dtype)
    outflow = np.zeros(event_key.size, bool)
    event_key[:comm.size] = comm * n + comm // n
    event_amt[:comm.size] = demand[comm]
    spans: list[tuple[int, int, np.ndarray | None]] = []
    end = comm.size
    # Records are keyed (step, phase, row, order) so that they sort into the
    # order a walk over the rows meets them: per step, the rows' own records
    # (order 0, then 1 for conservation), then capacities, then outgoing and
    # incoming node rates (phases 1 to 3), each by its first row.
    records: list[tuple[tuple[int, int, int, int], Violation]] = []
    max_load = 0
    direct = True
    integral = True

    def outside(ids):
        return (ids < 0) | (ids >= n)

    for s, ts in enumerate(steps):
        if not ts:
            continue
        src, dst, origin, dest = (_node_column(ts, k, n) for k in range(4))
        amt = np.fromiter(
            map(scaled.__getitem__, map(id, map(_amount, ts))), dtype, len(ts)
        )
        bad_edge = outside(src) | outside(dst) | (src == dst)
        bad_commodity = outside(origin) | outside(dest) | (origin == dest)
        valid = ~bad_edge & ~bad_commodity & (amt > 0)
        kept = None  # row of each valid transfer, once rows are dropped
        if not valid.all():
            for r in np.flatnonzero(~valid).tolist():
                t = ts[r]
                if bad_edge[r]:
                    v = Violation("node_range", s, (t[0], t[1]), "bad physical edge")
                elif bad_commodity[r]:
                    v = Violation("commodity", s, (t[2], t[3]), "bad commodity")
                else:
                    v = Violation("commodity", s, (t[0], t[1]), "non-positive amount")
                records.append(((s, 0, r, 0), v))
            kept = np.flatnonzero(valid)
            if not kept.size:
                continue
            src, dst, origin, dest, amt = (
                c[kept] for c in (src, dst, origin, dest, amt)
            )

        for r in np.flatnonzero(src == dest).tolist():
            row = r if kept is None else int(kept[r])
            t = ts[row]
            records.append((
                (s, 0, row, 0),
                Violation("sink", s, (t[2], t[3], t[0]), "commodity leaves its destination"),
            ))
        if direct and not ((src == origin).all() and (dst == dest).all()):
            direct = False

        top, step_integral = _edge_checks(s, src, dst, amt, kept, n, scale, records)
        max_load = max(max_load, top)
        integral = integral and step_integral

        pair = (origin * n + dest) * n
        mid = end + amt.size
        event_key[end:mid] = pair + src
        event_key[mid:mid + amt.size] = pair + dst
        event_amt[end:mid] = event_amt[mid:mid + amt.size] = amt
        outflow[end:mid] = True
        spans.append((end, s, kept))
        end = mid + amt.size

    short_of, dest_keys, delivered = _balances(
        event_key[:end], event_amt[:end], outflow[:end], n
    )
    firsts = [span[0] for span in spans]
    for e in short_of.tolist():
        first, s, kept = spans[bisect_right(firsts, e) - 1]
        row = e - first if kept is None else int(kept[e - first])
        t = steps[s][row]
        records.append((
            (s, 0, row, 1),
            Violation("conservation", s, (t[2], t[3], t[0]),
                      "commodity leaves a node holding none of it"),
        ))

    _, hit, got = np.intersect1d(
        comm * n + comm % n, dest_keys, assume_unique=True, return_indices=True
    )
    short = demand[comm]
    short[hit] -= delivered[got]
    zero = Fraction(0)
    unmet = [[zero] * n for _ in range(n)]
    for k in np.flatnonzero(short).tolist():
        i, j = divmod(int(comm[k]), n)
        unmet[i][j] = Fraction(int(short[k]), scale)

    records.sort(key=itemgetter(0))
    return VerificationReport(
        feasible=not records and not (short > 0).any(),
        violations=tuple(v for _, v in records),
        max_edge_load=Fraction(max_load, scale),
        unmet_demand=tuple(map(tuple, unmet)),
        is_integral=integral,
        is_direct=direct,
    )
