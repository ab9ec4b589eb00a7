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
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from math import ceil, gcd, lcm
from operator import sub
from typing import NamedTuple

import numpy as np

from .coloring import color_bipartite_multigraph
from .errors import SchedulingError, StructuralError
from .model import (
    Blocks, Instance, Schedule, as_rows, commodity_columns, int_column, over_scale,
    square_sums, unit_parcels,
)
from .rational import parse_rational, render_rational

ORDER_CHOICES = ("lex", "residual", "sums", "random")


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
        last: a read-only view, rebuilt from the matchings on each use."""
        n = self.instance.n
        residual = self._demands()
        out = []
        for triples in [*self.matchings, ()]:
            out.append(as_rows(over_scale(residual, self.scale), n))
            for i, j, p in triples:
                residual[i * n + j] -= p
        return tuple(out)

    def to_json(self) -> dict:
        render = cache(lambda p: render_rational(Fraction(p, self.scale)))
        return {
            "n": self.instance.n,
            "matchings": [
                [[s, r, render(p)] for s, r, p in m]
                for m in self.matchings
            ],
        }

    @staticmethod
    def from_json(obj: dict, instance: Instance) -> "GreedyTrace":
        """Read the matchings of a trace whose ``n`` is ``instance.n``; any
        stored residuals are ignored. The scale is the lcm of the instance's
        denominator and the rates'. Each matching must be a fractional
        matching (see ``_check_matching``)."""
        n = instance.n
        if not isinstance(obj, dict) or type(obj.get("n")) is not int or obj["n"] != n:
            raise StructuralError(f"greedy trace does not name the instance's n={n}")
        raw = obj.get("matchings")
        if not isinstance(raw, list):
            raise StructuralError("greedy trace needs a list of matchings")
        texts = {}  # each distinct rate, in order of first use
        for t, trip in enumerate(raw):
            if not isinstance(trip, list):
                raise StructuralError(f"matching {t} is not a list of triples")
            for x in trip:
                if not (isinstance(x, list) and len(x) == 3 and type(x[0]) is int
                        and type(x[1]) is int and type(x[2]) in (str, int)):
                    raise StructuralError(
                        f"matching {t}: {x!r} is not [sender, receiver, rate]"
                    )
                if not (0 <= x[0] < n and 0 <= x[1] < n):
                    raise StructuralError(
                        f"matching {t}: node outside 0..{n - 1} in {x!r}"
                    )
                texts[x[2]] = None
        rates = {p: parse_rational(p) for p in texts}
        scale = lcm(instance.scaled_demands[1], *(q.denominator for q in rates.values()))
        num = {p: q.numerator * (scale // q.denominator) for p, q in rates.items()}
        matchings = []
        for trip in raw:
            triples = tuple((s, r, num[p]) for s, r, p in trip)
            _check_matching(triples, n, scale)
            matchings.append(triples)
        return GreedyTrace(instance, scale, tuple(matchings))


def _check_matching(triples: tuple[tuple[int, int, int], ...], n: int, cap: int) -> None:
    """Refuse a self-loop, a non-positive rate, a repeated pair, or a node
    whose rates in or out add up to more than ``cap``, a rate of 1."""
    seen = set()
    out, into = [0] * n, [0] * n
    for s, r, p in triples:
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
    blocks = Blocks(1)
    for t, (a, b) in enumerate(zip(bounds, bounds[1:])):
        blocks.add(t, src[a:b], dst[a:b], np.arange(a, b), np.arange(a, b))
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
    blocks = Blocks(1)
    for c, (a, b) in enumerate(zip(bounds, bounds[1:])):
        sel = edge[a:b]
        blocks.add(c, origin[sel], dest[sel], sel, code[a:b])
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
    blocks = Blocks(horizon)
    blocks.add(0, origin, dest, np.arange(origin.size), code)
    return blocks.schedule(instance.n, horizon, origin, dest, table, den // g if keys else 1)
