"""Per-commodity offset-digit walks: the independent reference for the
columns that ``coflow.indirect`` emits for the hypercube, elementary-basis
and grid routes.

Commodity (i, j) writes its offset (j - i) mod n in radix q and, for each
nonzero digit s at position k (least significant first), hops from x to
x + s*q^k mod n in round (k, s). The rounds run in (k, s) order, round
(k, s) repeated m(k, s) = max(1, ceil(B c / n)) times, c the number of
offsets in [0, n) whose digit k is s; each hop's flow splits evenly over
the repetitions. ``rounds`` counts c by enumerating the offsets, and
``route_directly`` collects the rows per step, so the reference gives the
rows and their order.
"""

from collections import Counter
from fractions import Fraction
from math import ceil

from coflow.model import Transfer
from reference_rows import schedule_from_steps


def rounds(n: int, q: int, load) -> tuple[dict, int]:
    """{(k, s): (first slot, m)} for every round, and the horizon."""
    d = 1
    while q**d < n:
        d += 1
    counts = Counter((k, r // q**k % q) for r in range(n) for k in range(d))
    table, slot = {}, 0
    for k, s in sorted(counts):
        if s:
            m = max(1, ceil(Fraction(load) * counts[k, s] / n))
            table[k, s] = (slot, m)
            slot += m
    return table, slot


def walk(n: int, q: int, a: int, b: int, stop: int | None = None):
    """Hops (k, s, src, dst) of the offset-digit route from a to b, cut
    short where it reaches ``stop``; and where it ended."""
    hops = []
    cur, r, k = a, (b - a) % n, 0
    while r and cur != stop:
        s = r % q
        if s:
            nxt = (cur + s * q**k) % n
            hops.append((k, s, cur, nxt))
            cur = nxt
        r //= q
        k += 1
    return hops, cur


def route_directly(instance, q: int, load):
    """Route every commodity from its origin to its destination."""
    table, horizon = rounds(instance.n, q, load)
    steps = [[] for _ in range(horizon)]
    for i, j, demand in instance.commodities():
        for k, s, x, y in walk(instance.n, q, i, j)[0]:
            start, m = table[k, s]
            for slot in range(start, start + m):
                steps[slot].append(Transfer(x, y, i, j, demand / m))
    return schedule_from_steps(instance.n, steps)
