"""Per-share Valiant lifting: the independent reference for the merged
flow trees that ``coflow.indirect.vlb_lift`` emits.

Every commodity (u, v) is split into n shares of demand/n, one per
intermediate node w. Share w walks from u to w in phase 1 and from w to v
in phase 2, one parcel per hop, each hop fixing the next coordinate (least
significant first) and split evenly over the m repetitions of its matching.
The destination is a sink: a phase-1 walk that reaches v stops there, and
that share skips phase 2.

``merged_rows`` is the per-commodity loop that emitted the merged trees
before ``vlb_lift`` emitted columns: the reference for its rows and their
order.
"""

from collections import defaultdict
from fractions import Fraction

from coflow.model import Transfer
from reference_rows import schedule_from_steps


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


def merged_rows(instance, scheme):
    """The merged flow trees of every commodity over ``scheme``, one
    commodity at a time, as a schedule."""
    n = instance.n
    q, d, m, horizon = scheme.base, scheme.d, scheme.multiplicity, scheme.horizon
    pw = [q**i for i in range(d + 1)]
    steps: list[list[Transfer]] = [[] for _ in range(2 * horizon)]
    new = tuple.__new__

    def put(slot, transfers):  # one matching's m repetitions share the rows
        for k in range(slot, slot + m):
            steps[k].extend(transfers)

    for u, v, demand in instance.commodities():
        num, den = demand.numerator, demand.denominator * n * m
        top = max(i for i in range(d) if u // pw[i] % q != v // pw[i] % q)
        span, v_low = pw[top + 1], v % pw[top + 1]
        for i in range(d):
            p = pw[i]
            # Phase 1: hi + y*p + lo is first reached at coordinate i, from
            # hi + ui*p + lo; for i > top, v holds whatever is bound below it.
            ui, hi = u // p % q, u - u % (p * q)
            lows = range(p) if i <= top else [lo for lo in range(p) if lo % span != v_low]
            amount = Fraction(num * pw[d - i - 1], den)
            for y in range(q):
                if y != ui:
                    put((i * (q - 1) + (y - ui) % q - 1) * m, [
                        new(Transfer, (hi + ui * p + lo, hi + y * p + lo, u, v, amount))
                        for lo in lows
                    ])
            # Phase 2: the edge that fixes coordinate i to v's carries the
            # shares of the q^i nodes that agree with its tail above i, less
            # those v absorbed in phase 1.
            vi, low = v // p % q, v % p
            amount = Fraction(num * (p if i <= top else p - pw[i - top - 1]), den)
            for x in range(q):
                if x != vi:
                    put((i * (q - 1) + (vi - x) % q - 1) * m + horizon, [
                        new(Transfer, (h + x * p + low, h + vi * p + low, u, v, amount))
                        for h in range(0, n, p * q)
                    ])
    return schedule_from_steps(n, steps)
