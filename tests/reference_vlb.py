"""Per-share Valiant lifting: the independent reference for the merged
flow trees that ``coflow.indirect.vlb_lift`` emits.

Every commodity (u, v) is split into n shares of demand/n, one per
intermediate node w. Share w walks from u to w in phase 1 and from w to v
in phase 2, one parcel per hop, each hop fixing the next coordinate (least
significant first) and split evenly over the m repetitions of its matching.
The destination is a sink: a phase-1 walk that reaches v stops there, and
that share skips phase 2.
"""

from collections import defaultdict
from fractions import Fraction


def walk(q: int, d: int, a: int, b: int, stop: int):
    """Hops (slot index within the phase, src, dst) of the coordinate-fixing
    route from a to b, cut short where it reaches ``stop``; and where it
    ended."""
    hops = []
    cur = a
    for i in range(d):
        if cur == stop:
            break
        p = q**i
        ci, bi = cur // p % q, b // p % q
        if ci != bi:
            nxt = cur + (bi - ci) * p
            hops.append((i * (q - 1) + (bi - ci) % q - 1, cur, nxt))
            cur = nxt
    return hops, cur


def per_share_sums(instance, q: int, d: int, m: int) -> dict:
    """Summed amounts per (step, src, dst, origin, dest) of the per-share
    walk over the base scheme (base q, dimension d, multiplicity m)."""
    n = instance.n
    horizon = d * (q - 1) * m
    sums: dict = defaultdict(Fraction)

    def route(a, b, u, v, share, offset):
        hops, end = walk(q, d, a, b, stop=v)
        for slot, x, y in hops:
            for k in range(m):
                sums[(slot * m + k + offset, x, y, u, v)] += share / m
        return end

    for u, v, demand in instance.commodities():
        share = demand / n
        for w in range(n):
            if route(u, w, u, v, share, 0) != v:
                route(w, v, u, v, share, horizon)
    return dict(sums)


def merged_sums(schedule) -> dict:
    """The same sums for an emitted schedule."""
    sums: dict = defaultdict(Fraction)
    for s, step in enumerate(schedule.steps):
        for t in step.transfers:
            sums[(s, t.src, t.dst, t.origin, t.dest)] += t.amount
    return dict(sums)
