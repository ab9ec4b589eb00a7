"""Independent feasibility checker for schedules.

The verifier knows nothing about how a schedule was produced. It checks,
per step, edge capacities and per-node rate sums, cumulative per-commodity
flow conservation (data may wait at a node between steps), that no
commodity leaves its destination (the destination is a sink), and finally
demand satisfaction. Problems are reported as violations, never raised.

It is one exact vectorized pass over the schedule's columns, with no loop
over steps or rows. The schedule's amount numerators are brought to the
common denominator of the demands and the transfers: int64 when every sum
the pass forms fits in int64, Python ints in ``object`` arrays otherwise.
Edge loads and node rates are ``model.step_groups`` sums per (step, edge)
and (step, node), conservation is a running sum over events sorted per
(commodity, node), taken over batches of whole commodities of about
``BATCH`` events so that its temporaries are bounded by a batch, what
reached each destination is ``model.delivery``, and every violation record
is read off a mask over those arrays and sorted into the order a walk over
the rows would meet it. The report derives ``feasible`` from its own
values, and compares its unmet demand as a ``model.ScaledMatrix``.
The per-row loop in ``tests/reference_verify.py`` is the reference the pass
must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

import numpy as np

from .model import (
    Instance, Matrix, Schedule, ScaledMatrix, common_scale, delivery, group_starts, node_columns,
    step_groups,
)
from .rational import render_rational


@dataclass(frozen=True)
class Violation:
    kind: str  # capacity | node_rate | conservation | sink | node_range | commodity
    step: int
    where: tuple
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """What :func:`verify` found. ``scaled_unmet`` holds the demand left
    unmet per commodity (negative where more arrived) as a
    ``model.ScaledMatrix``, and :attr:`unmet_demand` is its ``Fraction``
    view. Reports compare by value. :attr:`feasible` is derived: no
    violation, and no unmet entry above 0."""

    violations: tuple[Violation, ...]
    max_edge_load: Fraction
    scaled_unmet: ScaledMatrix
    is_integral: bool
    is_direct: bool

    @cached_property
    def feasible(self) -> bool:
        return not self.violations and not (self.scaled_unmet.column > 0).any()

    @cached_property
    def unmet_demand(self) -> Matrix:
        """The unmet demand matrix: a read-only view, built on first use."""
        return tuple(map(tuple, self.scaled_unmet.rows()))

    def to_json(self) -> dict:
        scale = self.scaled_unmet.scale
        return {
            "feasible": self.feasible,
            "violations": [
                {"kind": v.kind, "step": v.step, "where": list(v.where), "detail": v.detail}
                for v in self.violations
            ],
            "max_edge_load": render_rational(self.max_edge_load),
            "unmet_demand": self.scaled_unmet.rows(lambda x: render_rational(Fraction(x, scale))),
            "is_integral": self.is_integral,
            "is_direct": self.is_direct,
        }


# Conservation runs over batches of whole commodities of about this many
# balance events (fewer than this many plus one commodity's), so that its
# event-length temporaries hold one batch on either dtype. On Python ints a
# batch's running sums are that many new ints of the scale's size, which
# keeps the batch small; the int64 path pays some 50 numpy calls a batch.
BATCH = 1 << 12


def _edge_checks(step, src, dst, amount, n, scale, row, records) -> tuple[int, bool]:
    """Edge loads and node rates of the valid rows (``model.step_groups``).

    Appends the capacity and node-rate records, keyed by the first row on
    each edge or node, and returns the largest edge load (0 for no rows) and
    whether the schedule is integral: in no step does a node have two
    distinct edges on one side.
    """
    (edges, loads, first), *sides = step_groups(step, src, dst, amount, n)
    for g in np.flatnonzero(loads > scale).tolist():
        s, edge = divmod(int(edges[g]), n * n)
        load = render_rational(Fraction(int(loads[g]), scale))
        records.append((
            (s, 1, row(first[g]), 0),
            Violation("capacity", s, divmod(edge, n), f"edge load {load} > 1"),
        ))
    for phase, side, (cells, rates, first) in zip((2, 3), ("outgoing", "incoming"), sides):
        for g in np.flatnonzero(rates > scale).tolist():
            s, v = divmod(int(cells[g]), n)
            records.append((
                (s, phase, row(first[g]), 0),
                Violation("node_rate", s, (v,), f"{side} rate exceeds 1"),
            ))
    integral = all(cells.size == edges.size for cells, _, _ in sides)
    return int(loads.max(initial=0)), integral


def _conservation(comm, demand, step, src, dst, origin, dest, amount, n):
    """The valid rows whose outflow overdraws their (commodity, node): a
    running balance of every (commodity, node) over its events.

    The events are keyed (origin*n + dest)*n + node: each origin's stock,
    then per step the outflows in row order and the arrivals, which count
    from the next step. The pairs (origin, dest), row-major, are cut into
    batches where each further ``BATCH`` events (a stock per commodity, two
    per row) end, and the rows are partitioned by their pair's batch with
    one stable sort of a narrow batch id. A batch lays out its stocks, then
    per step the outflows of its rows in that step and their arrivals; a
    stable sort by key keeps each key's events in that order, and one
    running sum over the batch restarts at each key. So every event-length
    temporary, on either dtype, holds one batch: fewer than ``BATCH`` events
    plus its largest commodity's. Node ids are int32, and so is each pair
    (below n^2); the keys, up to n^3, are formed in int64.
    """
    pair = origin * n  # in place below: one row-sized int32 temporary, below n^2
    pair += dest
    per = np.bincount(pair, minlength=n * n)  # rows per pair
    batch = 2 * per
    batch[comm] += 1
    np.cumsum(batch, out=batch)
    batch //= BATCH
    last = int(batch[-1])
    rows_of = batch.astype(np.min_scalar_type(last))[pair]  # radix-sorted when 16 bits or narrower
    del pair
    cut = np.searchsorted(batch, np.arange(last + 2))  # batch b's pairs: cut[b]:cut[b + 1]
    row_at = np.concatenate(([0], np.cumsum(per)))[cut].tolist()
    stock_at = np.searchsorted(comm, cut).tolist()
    cut = cut.tolist()
    del per, batch
    order = np.argsort(rows_of, kind="stable")
    del rows_of
    short = [np.zeros(0, np.int64)]
    for lo, hi, c0, c1, p0, p1 in zip(row_at, row_at[1:], stock_at, stock_at[1:], cut, cut[1:]):
        if lo == hi:
            continue
        rows, stock = order[lo:hi], comm[c0:c1]
        k, m = stock.size, hi - lo
        size = k + 2 * m
        # Batch row j of a step whose batch rows are first..end-1: its
        # outflow at k + first + j and its arrival at k + end + j.
        bounds = np.append(group_starts(step[rows]), m)  # each step's first batch row, then m
        run = bounds[1:] - bounds[:-1]
        j = np.arange(k, k + m)
        out_at = np.repeat(bounds[:-1], run)
        out_at += j
        in_at = np.repeat(bounds[1:], run)
        in_at += j
        # Keys counted from the batch's first pair, radix-sorted when they fit
        # 16 bits. They pass int32 (a sparse batch spans up to n^2 pairs, n
        # keys each): the explicit int64 n keeps numpy from wrapping them.
        at = origin[rows] * np.int64(n)
        at += dest[rows]
        at -= p0
        at *= n
        key = np.empty(size, np.min_scalar_type((p1 - p0) * n))
        key[:k] = (stock - p0) * n + stock // n
        key[out_at] = at + src[rows]
        at += dst[rows]
        key[in_at] = at
        change = np.empty(size, amount.dtype)
        change[:k] = demand[stock]
        moved = amount[rows]
        change[in_at] = moved
        change[out_at] = np.negative(moved, out=moved)
        outflow = np.zeros(size, bool)
        outflow[out_at] = True
        sort = np.argsort(key, kind="stable")
        starts = group_starts(key[sort])
        change = change[sort]
        # Take each key's total off the next key's first event, so that one
        # running sum restarts at every key.
        totals = np.add.reduceat(change, starts)
        change[starts[1:]] -= totals[:-1]
        np.cumsum(change, out=change)
        short.append(rows[np.searchsorted(out_at, sort[outflow[sort] & (change < 0)])])
    return np.concatenate(short)


def verify(instance: Instance, schedule: Schedule) -> VerificationReport:
    """Check a schedule against an instance and report everything found.

    All arithmetic is exact: amounts are rescaled to integers over the
    common denominator of the demands and the transfers.
    """
    n = instance.n
    # Every load, rate and running balance is a sum of at most one amount
    # per row and per commodity (of which there are at most n(n-1)), and
    # conservation's one running sum over all events takes two per row and
    # one per commodity.
    demand, amount, scale = common_scale(instance, schedule)
    comm = np.flatnonzero(demand > 0)  # i*n + j for every commodity (i, j)

    # Records are keyed (step, phase, row, order) so that they sort into the
    # order a walk over the rows meets them: per step, the rows' own records
    # (order 0, then 1 for conservation), then capacities, then outgoing and
    # incoming node rates (phases 1 to 3), each by its first row. Rows are
    # step-major, so a row index orders rows within a step.
    records: list[tuple[tuple[int, int, int, int], Violation]] = []
    step = schedule.step
    src, dst, origin, dest, bad_edge, bad_commodity = node_columns(schedule, n)
    bad_edge |= src == dst
    valid = ~bad_edge & ~bad_commodity & (amount > 0)
    kept = None  # row of each valid transfer, once rows are dropped
    if not valid.all():
        for r in np.flatnonzero(~valid).tolist():
            s = int(step[r])
            if bad_edge[r]:
                v = Violation("node_range", s, (int(schedule.src[r]), int(schedule.dst[r])),
                              "bad physical edge")
            elif bad_commodity[r]:
                v = Violation("commodity", s, (int(schedule.origin[r]), int(schedule.dest[r])),
                              "bad commodity")
            else:
                v = Violation("commodity", s, (int(src[r]), int(dst[r])),
                              "non-positive amount")
            records.append(((s, 0, r, 0), v))
        kept = np.flatnonzero(valid)
        step, src, dst, origin, dest, amount = (
            c[kept] for c in (step, src, dst, origin, dest, amount)
        )
    del bad_edge, bad_commodity, valid

    def row(k) -> int:
        return int(k) if kept is None else int(kept[k])

    for k in (sinks := np.flatnonzero(src == dest)).tolist():
        s = int(step[k])
        records.append((
            (s, 0, row(k), 0),
            Violation("sink", s, (int(origin[k]), int(dest[k]), int(src[k])),
                      "commodity leaves its destination"),
        ))
    direct = bool((src == origin).all() and (dst == dest).all())
    max_load, integral = _edge_checks(step, src, dst, amount, n, scale, row, records)

    short = _conservation(comm, demand, step, src, dst, origin, dest, amount, n)
    for k in short.tolist():
        s = int(step[k])
        records.append((
            (s, 0, row(k), 1),
            Violation("conservation", s, (int(origin[k]), int(dest[k]), int(src[k])),
                      "commodity leaves a node holding none of it"),
        ))

    # A pair with no demand is no commodity: nothing is unmet there.
    delivered = delivery(origin, dest, src, dst, amount, n, np.flatnonzero(dst == dest), sinks)
    unmet = np.where(demand > 0, demand - delivered, 0)

    records.sort(key=itemgetter(0))
    return VerificationReport(tuple(v for _, v in records), Fraction(max_load, scale),
                              ScaledMatrix(unmet, scale), is_integral=integral, is_direct=direct)
