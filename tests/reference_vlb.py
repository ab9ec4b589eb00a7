"""Per-share Valiant lifting: the independent reference for the merged
flow trees that ``coflow.indirect.vlb_lift`` emits.

Every commodity (u, v) is split into n shares of demand/n, one per
intermediate node w. Share w walks the offset digits of (w - u) mod n
from u to w in phase 1 and those of (v - w) mod n from w to v in phase 2,
one parcel per hop, each hop split evenly over the m repetitions of its
round (``reference_routes.rounds``). The destination is a sink: a phase-1
walk that reaches v stops there, and that share skips phase 2.

``merged_rows`` sums the walks of each commodity into one row per (step,
edge), in the order the merged trees are emitted: per step, commodity by
commodity, and within a commodity phase-1 edges by the offset of their
tail from u and phase-2 edges by the offset of v from their head.
"""

from collections import defaultdict
from fractions import Fraction

from coflow.model import Transfer
from reference_rows import schedule_from_steps
from reference_routes import rounds, walk


def share_hops(n, q, u, v):
    """(phase, k, s, src, dst) of every hop of every share of (u, v)."""
    hops = []
    for w in range(n):
        first, end = walk(n, q, u, w, stop=v)
        hops += [(0, *hop) for hop in first]
        if end != v:
            hops += [(1, *hop) for hop in walk(n, q, w, v)[0]]
    return hops


def per_share_sums(instance, q: int, load) -> dict:
    """Summed amounts per (step, src, dst, origin, dest) of the per-share
    walks over the offset digits in radix q for load bound ``load``: each
    hop moves demand / n, a 1/m part of it in each of its round's m slots."""
    n = instance.n
    table, horizon = rounds(n, q, load)
    parts: dict = defaultdict(int)  # the parts summed, per key and m
    for u, v, _ in instance.commodities():
        for phase, k, s, x, y in share_hops(n, q, u, v):
            start, m = table[k, s]
            for slot in range(start + phase * horizon, start + phase * horizon + m):
                parts[(slot, x, y, u, v), m] += 1
    demands = instance.demands
    return {key: demands[key[3]][key[4]] * count / (n * m) for (key, m), count in parts.items()}


def merged_sums(schedule) -> dict:
    """The same sums for an emitted schedule."""
    sums: dict = defaultdict(Fraction)
    for s, step in enumerate(schedule.steps):
        for t in step.transfers:
            sums[(s, t.src, t.dst, t.origin, t.dest)] += t.amount
    return dict(sums)


def merged_rows(instance, q: int, load):
    """The merged flow trees of every commodity, one commodity at a time,
    as a schedule."""
    n = instance.n
    table, horizon = rounds(n, q, load)
    steps: list[list[Transfer]] = [[] for _ in range(2 * horizon)]
    for u, v, demand in instance.commodities():
        counts: dict = defaultdict(int)
        for hop in share_hops(n, q, u, v):
            counts[hop] += 1
        order = lambda h: (h[0], h[1], h[2], (h[3] - u) % n if h[0] == 0 else (v - h[4]) % n)
        for hop in sorted(counts, key=order):
            phase, k, s, x, y = hop
            start, m = table[k, s]
            amount = demand * counts[hop] / (n * m)
            for slot in range(start, start + m):
                steps[slot + phase * horizon].append(Transfer(x, y, u, v, amount))
    return schedule_from_steps(n, steps)
