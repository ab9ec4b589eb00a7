"""Direct-routing schedulers.

Three algorithms, all shipping every parcel straight from its origin to
its destination:

* greedy maximal fractional matching, driven by the residual demand matrix
  (the average-completion-time workhorse);
* integral makespan via bipartite multigraph edge coloring;
* fractional makespan by smearing the demand matrix uniformly over
  ``ceil(load_bound)`` steps.

Edge coloring ships unit parcels through ``model.parcel_schedule``, one
step per color, and smearing builds one block through ``model.Blocks``;
greedy writes its rows straight into columns, and its trace is the instance
and that schedule. The trace's replay holds Python ints:
rates and residuals are numerators over one scale (for greedy's own trace,
the instance's common denominator), and a node's cap of 1 is that scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from math import ceil, lcm
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .coloring import color_bipartite_multigraph
from .errors import SchedulingError, StructuralError
from .model import (
    Blocks, Instance, Schedule, commodity_columns, common_scale, completion, int_column,
    integer_document, json_lists, node_columns, parcel_counts, parcel_schedule, scaled_column,
    square_sums, step_groups, summable, unit_parcels,
)
from .rational import parse_rational

TRACE_FORMAT = "coflow-trace-v1"
# The row columns of a trace document, in triple order.
TRACE_COLUMNS = ("from", "to", "rate")


class TraceReplay(NamedTuple):
    """What walking a trace's matchings over its scale gives: ``senders[t]`` /
    ``receivers[t]`` are the row and column sums of the residual before step
    t, t = 0..horizon (t = 0 only when an empty matching or their count fails
    the trace), as tuples that a certificate shares, and ``failure`` is the
    first way the matchings are not a greedy run of the instance (None for a
    genuine run)."""

    senders: tuple[tuple[int, ...], ...]
    receivers: tuple[tuple[int, ...], ...]
    failure: str | None


@dataclass(frozen=True)
class GreedyTrace:
    """A greedy run: its instance and its schedule, one step per matching,
    each row a (sender, receiver, rate) triple shipped to its own commodity.
    ``scale``, the lcm of the two denominators, is a node's cap of 1 in the
    integer views (:attr:`matchings`, :attr:`replay`, whose sums the
    certificate reads). A node outside 0..n-1, or a step that is not a
    fractional matching (see ``_matching_fault``), raises ``StructuralError``,
    for a trace built in code as for one read from a file."""

    instance: Instance
    schedule: Schedule

    def __post_init__(self):
        n, schedule = self.instance.n, self.schedule
        src, dst, _, _, bad, _ = node_columns(schedule, n)
        if bad.any():
            r = int(bad.argmax())
            raise StructuralError(f"matching {schedule.step[r]}: node outside 0..{n - 1} in "
                                  f"({schedule.src[r]},{schedule.dst[r]})")
        fault = _matching_fault(schedule.step, src, dst, schedule.amount, n, schedule.scale)
        if fault:
            raise StructuralError(fault)

    @cached_property
    def scale(self) -> int:
        return lcm(self.instance.scaled_demands[1], self.schedule.scale)

    @property
    def horizon(self) -> int:
        return self.schedule.horizon

    @cached_property
    def total_completion(self) -> Fraction:
        """The run's total completion time: each row ships to its own commodity."""
        total, _ = completion(self.schedule.step, self.schedule.amount)
        return Fraction(total, self.schedule.scale)

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sender, receiver and rate columns, rates over ``scale``."""
        return self.schedule.src, self.schedule.dst, common_scale(self.instance, self.schedule)[1]

    @cached_property
    def matchings(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Each matching's (sender, receiver, rate) triples, rates over
        ``scale``: a read-only view, built on first use."""
        triples = zip(*(column.tolist() for column in self._columns()))
        return tuple(tuple(islice(triples, c)) for c in self.schedule.counts.tolist())

    @cached_property
    def replay(self) -> TraceReplay:
        n, horizon, schedule = self.instance.n, self.horizon, self.schedule
        # Each sum below, a row or column of demands less at most one rate per
        # row, fits common_scale's columns; a node's cap of 1 is ``cap``.
        demand, rate, cap = common_scale(self.instance, schedule)
        step, src, dst = schedule.step, schedule.src, schedule.dst
        rows, cols = square_sums(demand, n)
        # A genuine run ships at least 1 in every matching but its last, which
        # is not empty (maximality saturates an endpoint of each pair left with
        # residual), so it has at most ceil(total demand) matchings. Any other
        # trace fails before its (horizon x n) tables: its sums stop at t = 0.
        empty, most = np.flatnonzero(schedule.counts == 0), -(-int(rows.sum()) // cap)
        if empty.size or horizon > most:
            failure = (f"matching {empty[0]} is empty" if empty.size
                       else f"more matchings than ceil(total demand) = {most}")
            return TraceReplay((tuple(rows.tolist()),), (tuple(cols.tolist()),), failure)
        sent, received = np.zeros((horizon, n), rate.dtype), np.zeros((horizon, n), rate.dtype)
        np.add.at(sent, (step, src), rate)
        np.add.at(received, (step, dst), rate)
        senders = np.cumsum(np.vstack([rows, -sent]), axis=0).tolist()
        receivers = np.cumsum(np.vstack([cols, -received]), axis=0).tolist()
        # Walk the steps on the residual: a step fails when its rows on a pair
        # ship more than the pair's residual, or when it leaves a pair with
        # residual and room at both ends (the first such pair, row-major).
        # pair indexes every step of the walk: intp, which numpy indexes with
        # as it is, where int32 would be converted at each use.
        residual, pair = demand.copy(), src * np.intp(n) + dst
        room_s, room_r, square = sent != cap, received != cap, residual.reshape(n, n)
        ends = np.cumsum(schedule.counts).tolist()
        failure = None
        for t, (a, b) in enumerate(zip([0, *ends], ends)):
            np.subtract.at(residual, pair[a:b], rate[a:b])
            short = (residual[pair[a:b]] < 0).nonzero()[0]
            if short.size:
                r = a + int(short[0])
                failure = f"step {t} ships more than the residual of ({src[r]},{dst[r]})"
                break
            i, j = room_s[t].nonzero()[0], room_r[t].nonzero()[0]
            left = square[i[:, None], j].nonzero()
            if left[0].size:
                failure = (f"matching {t} is not maximal: ({i[left[0][0]]},{j[left[1][0]]})"
                           " could take more")
                break
        else:
            if residual.any():
                failure = "the matchings leave demand unshipped"
        return TraceReplay(tuple(map(tuple, senders)), tuple(map(tuple, receivers)), failure)

    @property
    def residuals(self) -> tuple:
        """The residual ``Fraction`` matrix before each step, and after the
        last: a read-only view, rebuilt from :attr:`matchings` on each use. Each
        step rebuilds only the rows its matching ships from, and every entry
        comes from the instance's ``fractions`` memo, so equal entries of two
        traces' views are the same object."""
        n, demands = self.instance.n, self.instance.scaled_demands
        value, up = self.instance.fractions(self.scale).__getitem__, self.scale // demands.scale
        residual = [x * up for x in demands.column.tolist()]
        rows = demands.rows(lambda x: value(x * up))
        view = list(map(tuple, rows))
        out = [tuple(view)]
        for triples in self.matchings:
            for i, j, p in triples:
                k = i * n + j
                residual[k] -= p
                rows[i][j] = value(residual[k])
            for i in {i for i, _, _ in triples}:
                view[i] = tuple(rows[i])
            out.append(tuple(view))
        return tuple(out)

    def document(self) -> dict:
        """The trace document: the schedule's rows as three columns,
        ``counts[t]`` of them in matching t, each rate a numerator over
        ``scale``. Every field is an integer or an integer column (see
        ``model.document_text``)."""
        return {"format": TRACE_FORMAT, "n": self.instance.n, "scale": self.scale,
                "counts": self.schedule.counts, **dict(zip(TRACE_COLUMNS, self._columns()))}

    def to_json(self) -> dict:
        return json_lists(self.document())

    @staticmethod
    def from_json(obj: dict, instance: Instance) -> "GreedyTrace":
        """Read a trace document, or the matchings document earlier versions
        wrote (``{"n", "matchings"}``, one ``[sender, receiver, "p/q"]`` list
        per triple, and no ``format`` key; stored residuals are ignored), into
        a schedule over the rates' lowest scale. Each matching must be a
        fractional matching (see ``_matching_fault``) of nodes in 0..n-1,
        which the constructor checks."""
        n = instance.n
        if isinstance(obj, dict) and "format" in obj:
            declared, scale, counts, src, dst, rate = integer_document(
                obj, "trace", TRACE_FORMAT, ("n", "scale"), ("counts", *TRACE_COLUMNS)
            )
            if declared != n:
                raise StructuralError(f"trace is for n={declared}, the instance has n={n}")
        else:
            counts, src, dst, rate, scale = _matchings_document(obj, n)
        return GreedyTrace(instance, Schedule(n, counts, src, dst, src, dst, rate, scale))


def _matchings_document(obj, n: int) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray, int]:
    """The counts, the sender and receiver columns, and the rate column over
    its lowest scale with that scale, of a matchings document."""
    if not isinstance(obj, dict) or type(obj.get("n")) is not int or obj["n"] != n:
        raise StructuralError(f"greedy trace does not name the instance's n={n}")
    raw = obj.get("matchings")
    if not isinstance(raw, list):
        raise StructuralError("greedy trace needs a list of matchings")
    for t, trip in enumerate(raw):
        if not isinstance(trip, list):
            raise StructuralError(f"matching {t} is not a list of triples")
        for x in trip:
            if not (isinstance(x, list) and len(x) == 3 and type(x[0]) is int
                    and type(x[1]) is int and type(x[2]) in (str, int)):
                raise StructuralError(
                    f"matching {t}: {x!r} is not [sender, receiver, rate]"
                )
    rows = list(chain.from_iterable(raw))
    rate, scale = scaled_column(list(map(parse_rational, map(itemgetter(2), rows))))
    senders, receivers = (int_column(list(map(itemgetter(k), rows))) for k in (0, 1))
    return list(map(len, raw)), senders, receivers, rate, scale


def _matching_fault(step, src, dst, rate, n: int, cap: int) -> str | None:
    """The first fault, as a walk over the steps meets it, that keeps the
    rows from being one fractional matching per step: in the first step with
    one, its first row with a self-loop, a non-positive rate or a pair seen
    before in the step (in that order), else its first sender, then its first
    receiver, whose rates add up to more than ``cap``, a rate of 1. None if
    there is none. ``src`` and ``dst`` are int32 in 0..n-1, as
    ``model.node_columns`` gives them; ``model.step_groups`` widens its keys
    where they pass int32."""
    rate = summable(rate, step.size)  # a total sums at most one rate per row
    (_, _, firsts), *sides = step_groups(step, src, dst, rate, n)
    repeat = np.ones(step.size, bool)
    repeat[firsts] = False  # each row on a pair but the step's first
    bad = (src == dst) | (rate <= 0) | repeat
    first = int(bad.argmax()) if bad.any() else step.size
    # The walk meets the lowest (step, side, node) first.
    over = []
    for side, (cells, sums, _) in enumerate(sides):
        hit = np.flatnonzero(sums > cap)
        if hit.size:
            t, v = divmod(int(cells[hit[0]]), n)
            over.append((t, side, v))
    if over and (first == step.size or step[first] > min(over)[0]):
        return f"node {min(over)[2]} exceeds matching cap 1"
    if first == step.size:
        return None
    s, d = int(src[first]), int(dst[first])
    if s == d:
        return f"self-loop ({s},{d}) in fractional matching"
    if rate[first] <= 0:
        return f"non-positive rate on ({s},{d})"
    return f"duplicate pair ({s},{d})"


def greedy_schedule(instance: Instance) -> tuple[Schedule, GreedyTrace]:
    """Repeat maximal fractional matchings on the residuals until empty.

    Each matching visits the pairs with residual left in row-major order;
    each pair takes the largest rate its residual and the two endpoint caps
    allow, so any pair left short has a saturated sender or receiver.
    """
    parcel_counts(instance)  # each row ships at most 1 of its pair: refuse past the cap
    n = instance.n
    column, scale = instance.scaled_demands
    residual = column.tolist()
    live = [k for k, x in enumerate(residual) if x]
    counts, cells, rates = [], [], []
    # Defensive bound; greedy provably finishes well before it.
    horizon_cap = -(-sum(residual) // scale) + n**2
    while live:
        if len(counts) >= horizon_cap:
            raise SchedulingError("greedy exceeded its defensive horizon")
        sent, received = [0] * n, [0] * n
        rows = len(rates)
        for k in live:
            i, j = divmod(k, n)
            rate = min(residual[k], scale - sent[i], scale - received[j])
            if rate > 0:
                cells.append(k)
                rates.append(rate)
                residual[k] -= rate
                sent[i] += rate
                received[j] += rate
        counts.append(len(rates) - rows)
        live = [k for k in live if residual[k]]
    # Each row ships to its own commodity. Each pair's rates add up to its
    # demand, so no factor of scale divides every rate: scale is already the
    # least common denominator.
    src, dst = np.divmod(np.array(cells, np.int32), n)  # int32, as Schedule holds them
    schedule = Schedule(n, counts, src, dst, src, dst, int_column(rates), scale)
    return schedule, GreedyTrace(instance, schedule)


def edge_coloring_schedule(instance: Instance) -> Schedule:
    """Optimal direct integral makespan via bipartite edge coloring.

    Demands are rounded up to integers; the multigraph with multiplicity
    ``ceil(D_ij)`` is colored with exactly max-degree colors, and each
    color is one step. Every edge ships 1, except the highest-colored edge
    of each pair (i, j), which ships what remains of D_ij.
    """
    origin, dest, _, _ = commodity_columns(instance)
    edge, _ = unit_parcels(instance)  # the commodity of each edge
    pairs = list(zip(origin[edge].tolist(), dest[edge].tolist()))
    color = np.array(color_bipartite_multigraph(instance.n, pairs), np.int64)
    return parcel_schedule(instance, int(color.max(initial=-1)) + 1, edge, color)


def smeared_fractional_schedule(instance: Instance) -> Schedule:
    """Optimal fractional makespan: ship D / ceil(B) in each of ceil(B) steps."""
    horizon, offset = ceil(instance.load_bound), np.arange(1, instance.n)
    blocks = Blocks(instance, horizon)
    blocks.add(0, horizon, offset, 0 * offset, offset, 1)
    return blocks.schedule(horizon)
