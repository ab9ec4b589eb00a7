"""Direct-routing schedulers.

Three algorithms, all shipping every parcel straight from its origin to
its destination:

* greedy maximal fractional matching, driven by the residual demand matrix
  (the average-completion-time workhorse);
* integral makespan via bipartite multigraph edge coloring;
* fractional makespan by smearing the demand matrix uniformly over
  ``ceil(load_bound)`` steps.

Each builds its schedule's columns through ``model.Blocks``. Greedy, its
trace and the trace's replay hold Python ints: rates and residuals are
numerators over one scale (for greedy's own trace, the instance's common
denominator), and a node's cap of 1 is that scale.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import ceil, gcd, lcm
from operator import itemgetter, sub
from typing import NamedTuple

import numpy as np

from .coloring import color_bipartite_multigraph
from .errors import SchedulingError, StructuralError
from .model import (
    INT64_MAX, Blocks, Instance, Schedule, as_rows, check_rows, commodity_columns,
    int_column, integer_document, lowest_terms, node_ids, outside, square_sums, unit_parcels,
)
from .rational import parse_rational

ORDER_CHOICES = ("lex", "residual", "sums", "random")
TRACE_FORMAT = "coflow-trace-v1"
# The row columns of a trace document, in triple order.
TRACE_COLUMNS = ("from", "to", "rate")


class TraceReplay(NamedTuple):
    """What walking a trace's matchings over its scale gives: ``senders[t]`` /
    ``receivers[t]`` are the row and column sums of the residual before step
    t, t = 0..horizon, as tuples that a certificate shares, and ``failure``
    is the first way the matchings are not a greedy run of the instance (None
    for a genuine run). ``total`` is the run's total completion time over the
    scale."""

    senders: tuple[tuple[int, ...], ...]
    receivers: tuple[tuple[int, ...], ...]
    failure: str | None
    total: int


@dataclass(frozen=True)
class GreedyTrace:
    """A greedy run: its instance and the matching shipped at each step,
    each a tuple of (sender, receiver, rate) triples. Every rate is an
    integer numerator over ``scale``, a multiple of the instance's
    denominator, so a node's cap of 1 is ``scale``. The certificate reads the
    run off one integer replay, :attr:`replay`."""

    instance: Instance
    scale: int
    matchings: tuple[tuple[tuple[int, int, int], ...], ...]

    @property
    def horizon(self) -> int:
        return len(self.matchings)

    @property
    def total_completion(self) -> Fraction:
        return Fraction(self.replay.total, self.scale)

    def _demands(self) -> list[int]:
        """The demands, row-major, as numerators over ``scale``."""
        column, den = self.instance.scaled_demands
        return [x * (self.scale // den) for x in column.tolist()]

    @cached_property
    def replay(self) -> TraceReplay:
        n, cap = self.instance.n, self.scale
        residual = self._demands()
        rows, cols = map(tuple, square_sums(residual, n))
        senders, receivers = [rows], [cols]
        failure = None
        total = 0
        for t, triples in enumerate(self.matchings):
            sent, received = [0] * n, [0] * n
            for i, j, p in triples:
                if failure is None and p > residual[i * n + j]:
                    failure = f"step {t} ships more than the residual of ({i},{j})"
                residual[i * n + j] -= p
                sent[i] += p
                received[j] += p
            total += (t + 1) * sum(sent)
            rows = tuple(map(sub, rows, sent))
            cols = tuple(map(sub, cols, received))
            senders.append(rows)
            receivers.append(cols)
            failure = failure or _not_maximal(t, residual, n, sent, received, cap)
        if failure is None and any(residual):
            failure = "the matchings leave demand unshipped"
        return TraceReplay(tuple(senders), tuple(receivers), failure, total)

    @property
    def residuals(self) -> tuple:
        """The residual ``Fraction`` matrix before each step, and after the
        last: a read-only view, rebuilt from the matchings on each use. Each
        step rebuilds only the rows its matching ships from, and every entry
        comes from the instance's ``fractions`` memo, so equal entries of two
        traces' views are the same object."""
        n = self.instance.n
        value = self.instance.fractions(self.scale).__getitem__
        residual = self._demands()
        view = list(as_rows(list(map(value, residual)), n))
        rows = list(map(list, view))
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

    def to_json(self) -> dict:
        """The trace document: the triples in matching order as three
        columns, ``counts[t]`` of them in matching t, each rate a numerator
        over ``scale``. Every field is a JSON integer or a list of them."""
        triples = list(chain.from_iterable(self.matchings))
        doc = {
            "format": TRACE_FORMAT,
            "n": self.instance.n,
            "scale": self.scale,
            "counts": list(map(len, self.matchings)),
        }
        doc.update((key, list(map(itemgetter(k), triples))) for k, key in enumerate(TRACE_COLUMNS))
        return doc

    @staticmethod
    def from_json(obj: dict, instance: Instance) -> "GreedyTrace":
        """Read a trace document, or the matchings document earlier versions
        wrote (``{"n", "matchings"}``, one ``[sender, receiver, "p/q"]`` list
        per triple, and no ``format`` key); any stored residuals are ignored.
        The scale is the lcm of the instance's denominator and the rates'
        lowest one. Each matching must be a fractional matching (see
        ``_check_matching``) of nodes in 0..n-1."""
        n = instance.n
        if isinstance(obj, dict) and "format" in obj:
            declared, scale, counts, *columns = integer_document(
                obj, "trace", TRACE_FORMAT, ("n", "scale"), ("counts", *TRACE_COLUMNS)
            )
            check_rows("trace", declared, n, counts, columns)
        else:
            counts, columns, scale = _matchings_document(obj, n)
        senders, receivers, rates = columns
        rates, scale = lowest_terms(rates, scale)
        common = lcm(instance.scaled_demands[1], scale)
        if common != scale:
            rates = [x * (common // scale) for x in rates]
        bounds = list(accumulate(counts, initial=0))
        nodes = [node_ids(int_column(c), n) for c in (senders, receivers)]
        bad = outside(nodes[0], n) | outside(nodes[1], n)
        if bad.any():
            r = int(bad.argmax())
            raise StructuralError(
                f"matching {bisect_right(bounds, r) - 1}: node outside 0..{n - 1}"
                f" in ({senders[r]},{receivers[r]})"
            )
        if not _clearly_matchings(counts, *nodes, rates, n, common):
            for a, b in zip(bounds, bounds[1:]):
                _check_matching(senders[a:b], receivers[a:b], rates[a:b], n, common)
        triples = list(zip(senders, receivers, rates))
        matchings = tuple(tuple(triples[a:b]) for a, b in zip(bounds, bounds[1:]))
        return GreedyTrace(instance, common, matchings)


def _matchings_document(obj, n: int) -> tuple[list[int], list[list[int]], int]:
    """The counts, the sender, receiver and rate columns, and the rates'
    scale, of a matchings document: rates are parsed once per distinct
    ``"p/q"`` and written over the lcm of their denominators."""
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
    rates = {p: parse_rational(p) for p in set(map(itemgetter(2), rows))}
    scale = lcm(*(q.denominator for q in rates.values()))
    num = {p: q.numerator * (scale // q.denominator) for p, q in rates.items()}
    columns = [list(map(itemgetter(0), rows)), list(map(itemgetter(1), rows)),
               [num[x[2]] for x in rows]]
    return list(map(len, raw)), columns, scale


def _check_matching(senders: list, receivers: list, rates: list, n: int, cap: int) -> None:
    """Refuse a matching, given as columns, with a self-loop, a non-positive
    rate, a repeated pair, or a node whose rates in or out add up to more
    than ``cap``, a rate of 1."""
    seen = set()
    out, into = [0] * n, [0] * n
    for s, r, p in zip(senders, receivers, rates):
        if s == r:
            raise StructuralError(f"self-loop ({s},{r}) in fractional matching")
        if p <= 0:
            raise StructuralError(f"non-positive rate on ({s},{r})")
        if s * n + r in seen:
            raise StructuralError(f"duplicate pair ({s},{r})")
        seen.add(s * n + r)
        out[s] += p
        into[r] += p
    for v, total in chain(enumerate(out), enumerate(into)):
        if total > cap:
            raise StructuralError(f"node {v} exceeds matching cap 1")


def _clearly_matchings(counts: list, s: np.ndarray, r: np.ndarray, rates: list,
                       n: int, cap: int) -> bool:
    """True when one int64 pass over the whole trace shows every matching to
    keep ``_check_matching``'s rules. False when a matching breaks one, and
    when a rate or a node's total might not fit in int64 or the table of
    (matching, node) totals would outgrow the rows: ``_check_matching`` then
    looks at each matching. ``s`` and ``r`` are the sender and receiver
    columns, int64 and in 0..n-1."""
    if not rates:
        return True
    steps = len(counts)
    rate = int_column(rates)
    if (rate.dtype == object or steps * n > 16 * len(rates) or steps * n * n > INT64_MAX
            or int(rate.max()) * max(counts) > INT64_MAX):
        return False
    if (s == r).any() or (rate <= 0).any():
        return False
    first = np.repeat(np.arange(0, steps * n, n, dtype=np.int64), counts)  # step * n
    pairs = np.sort((first + s) * n + r)
    if (pairs[1:] == pairs[:-1]).any():
        return False
    for nodes in (s, r):
        total = np.zeros(steps * n, np.int64)
        np.add.at(total, first + nodes, rate)
        if int(total.max()) > cap:
            return False
    return True


def _not_maximal(t, residual, n, sent, received, cap) -> str | None:
    """Name the first pair, row-major, that matching t left with residual
    and with room at both ends."""
    open_receivers = [j for j in range(n) if received[j] != cap]
    for i in range(n):
        if sent[i] != cap:
            for j in open_receivers:
                if residual[i * n + j]:
                    return f"matching {t} is not maximal: ({i},{j}) could take more"
    return None


def _pair_order(live: list[int], residual: list[int], n: int, order: str, rng) -> list[int]:
    """The flat indices ``i * n + j`` of the live pairs, in the order the
    matching visits them; ``live`` is in flat-index order."""
    if order == "lex":
        return live
    if order == "residual":
        return sorted(live, key=lambda k: (-residual[k], k))
    if order == "sums":
        rows, cols = square_sums(residual, n)
        return sorted(live, key=lambda k: (-(rows[k // n] + cols[k % n]), k))
    if order == "random":
        pairs = live[:]
        rng.shuffle(pairs)
        return pairs
    raise ValueError(f"unknown pair order {order!r}")


def greedy_schedule(
    instance: Instance, order: str = "lex", seed: int | None = None
) -> tuple[Schedule, GreedyTrace]:
    """Repeat maximal fractional matchings on the residuals until empty.

    Each matching visits the pairs with residual left in the given order;
    each pair takes the largest rate its residual and the two endpoint caps
    allow, so any pair left short has a saturated sender or receiver.
    """
    rng = random.Random(seed) if order == "random" else None
    n = instance.n
    column, scale = instance.scaled_demands
    residual = column.tolist()
    live = [k for k, x in enumerate(residual) if x]
    matchings = []
    # Defensive bound; greedy provably finishes well before it.
    horizon_cap = -(-sum(residual) // scale) + n**2
    while live:
        if len(matchings) >= horizon_cap:
            raise SchedulingError("greedy exceeded its defensive horizon")
        sent, received = [0] * n, [0] * n
        triples = []
        for k in _pair_order(live, residual, n, order, rng):
            i, j = divmod(k, n)
            rate = min(residual[k], scale - sent[i], scale - received[j])
            if rate > 0:
                triples.append((i, j, rate))
                residual[k] -= rate
                sent[i] += rate
                received[j] += rate
        matchings.append(triples)
        live = [k for k in live if residual[k]]
    trace = GreedyTrace(instance, scale, tuple(map(tuple, matchings)))
    # Row r ships rate r of the flattened matchings; it is its own commodity.
    # Each pair's rates add up to its demand, so no factor of scale divides
    # every rate: scale is already the least common denominator.
    triples = [x for m in matchings for x in m]
    table = int_column([p for _, _, p in triples])
    src, dst = (np.array([x[k] for x in triples], np.int64) for k in (0, 1))
    bounds = np.cumsum([0] + list(map(len, matchings))).tolist()
    blocks = Blocks()
    for t, (a, b) in enumerate(zip(bounds, bounds[1:])):
        blocks.add(t, 1, src[a:b], dst[a:b], np.arange(a, b), np.arange(a, b))
    return blocks.schedule(n, len(matchings), src, dst, table, scale), trace


def edge_coloring_schedule(instance: Instance) -> Schedule:
    """Optimal direct integral makespan via bipartite edge coloring.

    Demands are rounded up to integers; the multigraph with multiplicity
    ``ceil(D_ij)`` is colored with exactly max-degree colors, and each
    color is one step. Every edge ships 1, except the highest-colored edge
    of each pair (i, j), which ships what remains of D_ij.
    """
    n = instance.n
    origin, dest, demand, scale = commodity_columns(instance)
    count, last, one, table = unit_parcels(demand, scale)
    edge = np.repeat(np.arange(origin.size), count)  # the commodity of each edge
    pairs = list(zip(origin[edge].tolist(), dest[edge].tolist()))
    color = np.array(color_bipartite_multigraph(n, pairs), np.int64)
    top = np.zeros(origin.size, np.int64)
    np.maximum.at(top, edge, color)
    code = np.where(color == top[edge], last[edge], one)
    order = np.argsort(color, kind="stable")
    edge, color, code = edge[order], color[order], code[order]
    horizon = int(color[-1]) + 1 if color.size else 0
    bounds = np.searchsorted(color, np.arange(horizon + 1)).tolist()
    blocks = Blocks()
    for c, (a, b) in enumerate(zip(bounds, bounds[1:])):
        sel = edge[a:b]
        blocks.add(c, 1, origin[sel], dest[sel], sel, code[a:b])
    return blocks.schedule(n, horizon, origin, dest, table, scale)


def smeared_fractional_schedule(instance: Instance) -> Schedule:
    """Optimal fractional makespan: ship D / ceil(B) in each of ceil(B) steps."""
    horizon = ceil(instance.load_bound)
    origin, dest, demand, scale = commodity_columns(instance)
    keys, code = np.unique(demand, return_inverse=True)
    keys = keys.tolist()
    # Each step ships d / (scale * horizon); the least common denominator of
    # those is den / g.
    den = scale * horizon
    g = gcd(den, *keys)
    table = int_column([x // g for x in keys])
    blocks = Blocks()
    blocks.add(0, horizon, origin, dest, np.arange(origin.size), code)
    return blocks.schedule(instance.n, horizon, origin, dest, table, den // g if keys else 1)
