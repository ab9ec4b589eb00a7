"""Row-by-row schedulers: the independent reference for the columns that
round robin, smeared, edge coloring and greedy emit.

Each loop builds one ``Transfer`` of ``Fraction``s per row, collects the
rows per step and hands them to ``schedule_from_steps``, which builds the
columns row by row: the loops the schedulers ran before they emitted columns,
so the reference gives the rows, their amounts and their order.
``row_document`` and ``matrix_document`` write the documents that earlier
versions of ``Schedule.to_json`` and ``Instance.to_json`` wrote, for the
readers' tests.
"""

from fractions import Fraction
from itertools import chain, islice
from math import ceil
from operator import itemgetter

from coflow.coloring import color_bipartite_multigraph
from coflow.direct import greedy_schedule
from coflow.indirect import _regime_load
from coflow.model import Schedule, Transfer, int_column, over_scale, scaled_column
from coflow.rational import render_rational


def schedule_from_steps(n, step_transfers):
    """The schedule whose step s moves the (src, dst, origin, dest, amount)
    rows ``step_transfers[s]``, in that order."""
    rows = list(chain.from_iterable(step_transfers))
    amount, scale = scaled_column(list(map(itemgetter(4), rows)))
    return Schedule(
        n,
        list(map(len, step_transfers)),
        *(int_column(list(map(itemgetter(field), rows))) for field in range(4)),
        amount,
        scale,
    )


def round_robin(instance, nominal_load=None):
    n = instance.n
    load = _regime_load(instance, nominal_load)
    max_entry = max((d for _, _, d in instance.commodities()), default=Fraction(0))
    m = max(ceil(load / n), ceil(max_entry), 1)
    steps = [[] for _ in range((n - 1) * m)]
    for i, j, demand in instance.commodities():
        start = ((j - i) % n - 1) * m
        remaining = demand
        for slot in range(start, start + m):
            amount = min(Fraction(1), remaining)
            if amount <= 0:
                break
            remaining -= amount
            steps[slot].append(Transfer(i, j, i, j, amount))
    return schedule_from_steps(n, steps)


def smeared(instance):
    horizon = ceil(instance.load_bound)
    if horizon == 0:
        return schedule_from_steps(instance.n, [])
    transfers = [
        Transfer(i, j, i, j, d / horizon) for i, j, d in instance.commodities()
    ]
    return schedule_from_steps(instance.n, [list(transfers) for _ in range(horizon)])


def edge_coloring(instance):
    n = instance.n
    edges = []
    for i, j, d in instance.commodities():
        edges.extend([(i, j)] * ceil(d))
    colors = color_bipartite_multigraph(n, edges)
    color_classes = [[] for _ in range(max(colors, default=-1) + 1)]
    for edge, color in zip(edges, colors):
        color_classes[color].append(edge)
    remaining = [list(row) for row in instance.demands]
    steps = []
    for cls in color_classes:
        transfers = []
        for i, j in cls:
            amount = min(Fraction(1), remaining[i][j])
            if amount > 0:
                remaining[i][j] -= amount
                transfers.append(Transfer(i, j, i, j, amount))
        steps.append(transfers)
    return schedule_from_steps(n, steps)


def greedy(instance):
    """The schedule of greedy's trace, one step per matching."""
    _, trace = greedy_schedule(instance)
    steps = [
        [Transfer(i, j, i, j, Fraction(p, trace.scale)) for i, j, p in m]
        for m in trace.matchings
    ]
    return schedule_from_steps(instance.n, steps)


def row_document(schedule):
    """The row document earlier versions wrote for ``schedule``: one dict per
    transfer and one ``"p/q"`` string per amount, with no ``format`` key.
    ``Schedule.from_json`` still reads it."""
    rows = [
        {"from": a, "to": b, "commodity": [u, v], "amount": x}
        for a, b, u, v, x in zip(
            schedule.src.tolist(), schedule.dst.tolist(), schedule.origin.tolist(),
            schedule.dest.tolist(),
            over_scale(schedule.amount.tolist(), schedule.scale, render_rational),
        )
    ]
    rows = iter(rows)
    return {
        "horizon": schedule.horizon,
        "steps": [{"transfers": list(islice(rows, c))} for c in schedule.counts.tolist()],
    }


def matrix_document(instance):
    """The matrix document earlier versions wrote for ``instance``: one
    ``"p/q"`` string per entry, row by row, with no ``format`` key.
    ``Instance.from_json`` still reads it."""
    return {"n": instance.n,
            "demands": [[render_rational(x) for x in row] for row in instance.demands]}
