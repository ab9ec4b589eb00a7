"""Direct-routing schedulers.

Three algorithms, all shipping every parcel straight from its origin to
its destination:

* greedy maximal fractional matching, driven by the residual demand matrix
  (the average-completion-time workhorse);
* integral makespan via bipartite multigraph edge coloring;
* fractional makespan by smearing the demand matrix uniformly over
  ``ceil(load_bound)`` steps.

Each builds its schedule's columns through ``model.Blocks``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil

import numpy as np

from .coloring import color_bipartite_multigraph
from .errors import NegativeDemandError, SchedulingError, StructuralError
from .model import (
    Blocks, FractionalMatching, Instance, Schedule, commodity_columns, matrix_col_sums,
    matrix_row_sums, scaled_column, unit_parcels,
)
from .rational import rational_parser, rational_renderer

ORDER_CHOICES = ("lex", "residual", "sums", "random")


@dataclass(frozen=True)
class GreedyTrace:
    """A greedy run: its instance and the matching shipped at each step.

    Everything else the dual certificate needs is derived by one replay of
    the matchings over ``instance.demands``: ``residuals[t]`` is the
    residual matrix before step ``t`` (so ``residuals[0]`` is the input and
    ``residuals[horizon]`` is all zero for a finished run), and
    ``sender_residual[t][i]`` / ``receiver_residual[t][j]`` are its row and
    column sums.
    """

    instance: Instance
    matchings: tuple[FractionalMatching, ...]

    @property
    def horizon(self) -> int:
        return len(self.matchings)

    @property
    def total_completion(self) -> Fraction:
        total = Fraction(0)
        for t, m in enumerate(self.matchings):
            total += (t + 1) * m.total_rate
        return total

    @cached_property
    def _replay(self) -> tuple[tuple, tuple, tuple]:
        residual = [list(row) for row in self.instance.demands]
        rows = matrix_row_sums(self.instance.demands)
        cols = matrix_col_sums(self.instance.demands)
        residuals = [tuple(map(tuple, residual))]
        senders = [tuple(rows)]
        receivers = [tuple(cols)]
        for matching in self.matchings:
            for i, j, p in matching.triples:
                residual[i][j] -= p
                rows[i] -= p
                cols[j] -= p
            residuals.append(tuple(map(tuple, residual)))
            senders.append(tuple(rows))
            receivers.append(tuple(cols))
        return tuple(residuals), tuple(senders), tuple(receivers)

    @property
    def residuals(self) -> tuple:
        return self._replay[0]

    @property
    def sender_residual(self) -> tuple:
        return self._replay[1]

    @property
    def receiver_residual(self) -> tuple:
        return self._replay[2]

    def to_json(self) -> dict:
        render = rational_renderer()
        return {
            "n": self.instance.n,
            "matchings": [
                [[s, r, render(p)] for s, r, p in m.triples]
                for m in self.matchings
            ],
        }

    @staticmethod
    def from_json(obj: dict, instance: Instance) -> "GreedyTrace":
        """Read the matchings of a trace whose ``n`` is ``instance.n``; any
        stored residuals are ignored."""
        parse = rational_parser()
        n = instance.n
        if not isinstance(obj, dict) or obj.get("n") != n:
            raise StructuralError(f"greedy trace does not name the instance's n={n}")
        raw = obj.get("matchings")
        if not isinstance(raw, list):
            raise StructuralError("greedy trace needs a list of matchings")
        matchings = []
        for t, trip in enumerate(raw):
            if not isinstance(trip, list):
                raise StructuralError(f"matching {t} is not a list of triples")
            triples = []
            for x in trip:
                if not (isinstance(x, list) and len(x) == 3
                        and type(x[0]) is int and type(x[1]) is int):
                    raise StructuralError(
                        f"matching {t}: {x!r} is not [sender, receiver, rate]"
                    )
                s, r, p = x
                if not (0 <= s < n and 0 <= r < n):
                    raise StructuralError(
                        f"matching {t}: node outside 0..{n - 1} in {x!r}"
                    )
                triples.append((s, r, parse(p)))
            matchings.append(FractionalMatching(tuple(triples)))
        return GreedyTrace(instance=instance, matchings=tuple(matchings))


def _pair_order(residual, order: str, rng) -> list[tuple[int, int]]:
    n = len(residual)
    pairs = [
        (i, j) for i in range(n) for j in range(n) if i != j and residual[i][j] > 0
    ]
    if order == "lex":
        return pairs
    if order == "residual":
        return sorted(pairs, key=lambda p: (-residual[p[0]][p[1]], p))
    if order == "sums":
        rows = matrix_row_sums(residual)
        cols = matrix_col_sums(residual)
        return sorted(pairs, key=lambda p: (-(rows[p[0]] + cols[p[1]]), p))
    if order == "random":
        rng.shuffle(pairs)
        return pairs
    raise ValueError(f"unknown pair order {order!r}")


def maximal_fractional_matching(
    residual, cap: Fraction = Fraction(1), order: str = "lex", rng=None
) -> FractionalMatching:
    """Greedy maximal fractional matching of a residual demand matrix.

    Pairs are visited in the configured order; each receives the largest
    rate its residual and the two endpoint caps allow. The result is
    maximal: any pair left short has a saturated sender or receiver.
    """
    cap = Fraction(cap)
    if cap <= 0:
        raise NegativeDemandError("matching cap must be positive")
    n = len(residual)
    sent = [Fraction(0)] * n
    received = [Fraction(0)] * n
    triples = []
    for i, j in _pair_order(residual, order, rng):
        rate = min(residual[i][j], cap - sent[i], cap - received[j])
        if rate > 0:
            triples.append((i, j, rate))
            sent[i] += rate
            received[j] += rate
    return FractionalMatching(tuple(triples), cap=cap)


def greedy_schedule(
    instance: Instance, order: str = "lex", seed: int | None = None
) -> tuple[Schedule, GreedyTrace]:
    """Repeat maximal fractional matchings on the residuals until empty."""
    rng = random.Random(seed) if order == "random" else None
    residual = [list(row) for row in instance.demands]
    matchings = []
    # Defensive bound; greedy provably finishes well before it.
    horizon_cap = ceil(instance.total_demand) + instance.n**2
    while any(x > 0 for row in residual for x in row):
        if len(matchings) >= horizon_cap:
            raise SchedulingError("greedy exceeded its defensive horizon")
        matching = maximal_fractional_matching(residual, order=order, rng=rng)
        for i, j, p in matching.triples:
            residual[i][j] -= p
        matchings.append(matching)
    trace = GreedyTrace(instance=instance, matchings=tuple(matchings))
    # Row r ships rate r of the flattened matchings; it is its own commodity.
    triples = [x for m in matchings for x in m.triples]
    src, dst = (np.array([x[k] for x in triples], np.int64) for k in (0, 1))
    table, scale = scaled_column([p for _, _, p in triples])
    bounds = np.cumsum([0] + [len(m.triples) for m in matchings]).tolist()
    blocks = Blocks(1)
    for t, (a, b) in enumerate(zip(bounds, bounds[1:])):
        blocks.add(t, src[a:b], dst[a:b], np.arange(a, b), np.arange(a, b))
    return blocks.schedule(instance.n, len(matchings), src, dst, table, scale), trace


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
    table, scale = scaled_column([Fraction(x, scale * horizon) for x in keys.tolist()])
    blocks = Blocks(horizon)
    blocks.add(0, origin, dest, np.arange(origin.size), code)
    return blocks.schedule(instance.n, horizon, origin, dest, table, scale)
