"""Indirect integral routing schemes over fixed connection schedules.

A connection scheme fixes an ordered list of integral matchings (with
repetitions) and routes every (source, destination) pair over them. The
schemes:

* round robin: every nonzero cyclic shift, repeated ceil(B/n) times;
* hypercube: one matching per bit, for n a power of two;
* elementary basis: d-digit coordinate shifts mod n^(1/d), each matching
  repeated ceil(B / n^(1/d)) times;
* grid: the two-phase row/column scheme on a sqrt(n) x sqrt(n) grid;
* VLB lifting: run the hypercube (B <= 2) or the elementary basis twice,
  spreading every commodity uniformly over all intermediate nodes, to
  handle arbitrary demand matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt
from operator import itemgetter

import numpy as np

from .errors import StructuralError, UnsupportedSizeError
from .model import Instance, Schedule, Transfer, scaled_column, schedule_from_steps
from .rational import ceil_frac

# VLB expands the rows of a run of commodities at a time, about this many,
# so that its temporaries stay small next to the schedule.
_CHUNK_ROWS = 1 << 16


def _integer_root(n: int, d: int) -> int | None:
    """Exact d-th root of n, or None."""
    q = round(n ** (1.0 / d))
    for cand in (q - 1, q, q + 1):
        if cand >= 1 and cand**d == n:
            return cand
    return None


class ElementaryBasisScheme:
    """d-dimensional coordinate-shift schedule, base q = n^(1/d).

    Matching (i, s) adds s to coordinate i mod q; matchings are ordered by
    coordinate then shift, each repeated ``multiplicity`` times. Routing
    fixes coordinates in schedule order and splits each hop's flow equally
    over the repetitions of its matching. Base 2 with multiplicity 1 is
    exactly the hypercube schedule.
    """

    def __init__(self, n: int, d: int, multiplicity: int):
        q = _integer_root(n, d)
        if q is None or q < 2:
            suggested = (ceil(n ** (1.0 / d))) ** d
            raise UnsupportedSizeError(
                f"n={n} is not a perfect {d}-th power", suggested_n=max(suggested, 2**d)
            )
        self.d = d
        self.base = q
        self.multiplicity = multiplicity
        self.horizon = d * (q - 1) * multiplicity


def hypercube_scheme(n: int) -> ElementaryBasisScheme:
    d = n.bit_length() - 1
    if n < 2 or 2**d != n:
        raise UnsupportedSizeError(
            f"n={n} is not a power of 2", suggested_n=2 ** max(d + 1, 1)
        )
    return ElementaryBasisScheme(n, d, 1)


def _regime_load(instance: Instance, nominal_load: Fraction | None) -> Fraction:
    """The load bound B that regime choices use.

    ``nominal_load`` may overstate the instance's load bound (e.g. the
    nominal B of a diagonal-free uniform instance) but never understate it:
    schemes sized for a smaller B overload their edges.
    """
    if nominal_load is None:
        return instance.load_bound
    load = Fraction(nominal_load)
    if load < instance.load_bound:
        raise StructuralError(
            f"nominal load {load} below the instance load bound {instance.load_bound}"
        )
    return load


def _elementary_scheme(
    n: int, load: Fraction, d: int | None = None
) -> ElementaryBasisScheme:
    """Elementary-basis scheme for load ``load``; ``d`` defaults to the
    smallest dimension with B^d >= n (the regime choice for 2 <= B <= n)."""
    if d is None:
        if load <= 1:
            raise StructuralError("dimension choice needs load bound > 1")
        d = 1
        while load**d < n:
            d += 1
    q = _integer_root(n, d)
    if q is None:
        return ElementaryBasisScheme(n, d, 1)  # raises with a suggestion
    return ElementaryBasisScheme(n, d, max(ceil_frac(load / q), 1))


def _commodities(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Origin and destination columns of every commodity, in
    ``commodities()`` order, and their demands as integer numerators over
    the instance's common denominator, with that denominator."""
    column, scale = instance.scaled_demands
    cells = np.flatnonzero(column > 0)
    return cells // instance.n, cells % instance.n, column[cells], scale


class _Blocks:
    """The rows of a connection schedule, one block per matching.

    A block holds the rows one matching carries, in commodity order, and
    fills the matching's ``multiplicity`` consecutive slots. Blocks may be
    added in pieces, each piece a run of commodities in order; ``schedule``
    sorts the pieces by slot, stably, so the rows come out sorted by (slot,
    commodity, position).
    """

    def __init__(self, multiplicity: int):
        self.multiplicity = multiplicity
        self.pieces: list[tuple] = []

    def add(self, slot: int, src, dst, commodity, amount) -> None:
        """Rows src -> dst of the given commodities (indices into the
        commodity columns) with the given amounts (indices into the amount
        table), in the ``multiplicity`` slots from ``slot`` on."""
        for k in range(slot, slot + self.multiplicity):
            self.pieces.append((k, src, dst, commodity, amount))

    def schedule(self, n, horizon, origin, dest, table, scale) -> Schedule:
        pieces = sorted(self.pieces, key=itemgetter(0))
        self.pieces = []
        empty = np.zeros(0, np.int64)
        slots, srcs, dsts, comms, amounts = (
            list(field) for field in zip((0, empty, empty, empty, empty), *pieces)
        )
        del pieces
        step = np.repeat(np.array(slots, np.int64), list(map(len, srcs)))
        # Each column is joined and its pieces dropped before the next, so
        # that the pieces and the columns are not all alive at once.
        src = np.concatenate(srcs)
        del srcs
        dst = np.concatenate(dsts)
        del dsts
        commodity = np.concatenate(comms)
        del comms
        origin, dest = origin[commodity], dest[commodity]
        del commodity
        amount = table[np.concatenate(amounts)]
        return Schedule(n, horizon, step, src, dst, origin, dest, amount, scale)


def _route_directly(instance: Instance, scheme: ElementaryBasisScheme) -> Schedule:
    """Route every commodity from its origin to its destination, fixing
    coordinates in schedule order; each hop's flow splits equally over the
    repetitions of its matching. Rows are emitted one matching at a time,
    vectorized over the commodities."""
    q, d, m = scheme.base, scheme.d, scheme.multiplicity
    origin, dest, table, scale = _commodities(instance)
    if m > 1:
        table, scale = scaled_column([Fraction(x, scale * m) for x in table.tolist()])
    blocks = _Blocks(m)
    cur = origin.copy()
    p = 1
    for i in range(d):
        delta = (dest // p % q - origin // p % q) * p
        shift = delta // p % q
        hops = np.flatnonzero(shift)
        hops = hops[np.argsort(shift[hops], kind="stable")]
        ends = np.cumsum(np.bincount(shift[hops], minlength=q)).tolist()
        for t in range(1, q):
            sel = hops[ends[t - 1]:ends[t]]
            if sel.size:
                src = cur[sel]
                blocks.add((i * (q - 1) + t - 1) * m, src, src + delta[sel], sel, sel)
        cur += delta
        p *= q
    return blocks.schedule(instance.n, scheme.horizon, origin, dest, table, scale)


def round_robin_schedule(
    instance: Instance, nominal_load: Fraction | None = None
) -> Schedule:
    """Direct round-robin schedule; intended for the B >= n regime.

    Shift s = 1..n-1 (the identity is all self-loops) owns ``m`` consecutive
    steps, m = ceil(B/n), bumped when an individual demand exceeds its
    dedicated slot capacity (only possible outside the uniform regime).
    """
    n = instance.n
    load = _regime_load(instance, nominal_load)
    max_entry = max((d for _, _, d in instance.commodities()), default=Fraction(0))
    m = max(ceil_frac(load / n), ceil_frac(max_entry), 1)
    steps: list[list[Transfer]] = [[] for _ in range((n - 1) * m)]
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


def hypercube_schedule(instance: Instance) -> Schedule:
    """Bit-fixing routes over one matching per bit; intended for B <= 2."""
    return _route_directly(instance, hypercube_scheme(instance.n))


def elementary_basis_schedule(
    instance: Instance,
    d: int | None = None,
    nominal_load: Fraction | None = None,
) -> Schedule:
    """Coordinate-fixing routes over the elementary-basis schedule.

    ``d`` defaults to the smallest dimension with B^d >= n (the regime
    choice for 2 <= B <= n); n^(1/d) must be an integer.
    """
    load = _regime_load(instance, nominal_load)
    return _route_directly(instance, _elementary_scheme(instance.n, load, d))


def grid_schedule(instance: Instance) -> Schedule:
    """Two-phase grid scheme for uniform demands with entry c, c*sqrt(n) <= 1.

    Phase 1 subphase k shifts data k rows down to the row of its final
    destination; phase 2 subphase k shifts it k columns across to the
    destination itself. Node ids are row * sqrt(n) + column.
    """
    n = instance.n
    side = isqrt(n)
    if side * side != n:
        raise UnsupportedSizeError(
            f"n={n} is not a perfect square", suggested_n=(side + 1) ** 2
        )
    entries = {d for _, _, d in instance.commodities()}
    if len(entries) > 1:
        raise StructuralError("grid scheme needs uniform off-diagonal demands")
    if entries:
        c = entries.pop()
        if c * side > 1:
            raise StructuralError(
                f"grid scheme infeasible: entry {c} exceeds 1/sqrt(n)"
            )
    horizon = 2 * (side - 1)
    steps: list[list[Transfer]] = [[] for _ in range(horizon)]
    for i, j, demand in instance.commodities():
        ri, ci = divmod(i, side)
        rj, cj = divmod(j, side)
        mid = rj * side + ci  # destination row, source column
        if ri != rj:
            k = (rj - ri) % side
            steps[k - 1].append(Transfer(i, mid, i, j, demand))
        if ci != cj:
            k = (cj - ci) % side
            steps[(side - 1) + (k - 1)].append(Transfer(mid, j, i, j, demand))
    return schedule_from_steps(n, steps)


def vlb_lift(instance: Instance, nominal_load: Fraction | None = None) -> Schedule:
    """Valiant lifting: run a base scheme twice over doubled matchings.

    The base is the hypercube for B <= 2 and the elementary basis
    otherwise. Each commodity (u, v) is split into n shares of demand/n,
    one per intermediate node w, and emitted as two merged flow trees with
    one row per (step, edge, commodity):

    * phase 1 spreads the shares from u, fixing coordinates in schedule
      order; the edge into a node first reached at coordinate i carries
      the q^(d-i-1) shares bound for the nodes below it. v is a sink: it
      forwards nothing, so the shares bound for its subtree (the w that
      agree with v on coordinates 0..top, top being the highest coordinate
      where u and v differ) are delivered when they reach v;
    * phase 2 converges every other share, u's included, onto v; masses
      merge where their coordinate-fixing routes meet.

    Makespan is exactly twice the base scheme's horizon whenever demand is
    nonzero. Rows are emitted one matching at a time, vectorized over runs
    of commodities.
    """
    n = instance.n
    load = _regime_load(instance, nominal_load)
    scheme = hypercube_scheme(n) if load <= 2 else _elementary_scheme(n, load)
    q, d, m, horizon = scheme.base, scheme.d, scheme.multiplicity, scheme.horizon
    pw = [q**i for i in range(d + 1)]
    origin, dest, demands, scale = _commodities(instance)
    blocks = _Blocks(m)
    every = np.arange(origin.size)
    # Each row moves demand * k / (n*m) for a factor k of its level; the
    # amount table has one entry per (distinct demand, k), so commodities
    # with equal demands share their entries.
    group_of: dict[int, int] = {}
    group = np.fromiter(
        (group_of.setdefault(x, len(group_of)) for x in demands.tolist()),
        np.int64, demands.size,
    )
    factors = sorted({pw[i] - (pw[j] if j < i else 0) for i in range(d) for j in range(i + 1)})
    used = np.zeros(len(group_of) * len(factors), bool)

    def codes(k):  # amount-table index of every commodity for factor(s) k
        code = group * len(factors) + np.searchsorted(factors, k)
        used[code] = True
        return code

    # top: the highest coordinate where u and v differ. For i > top, v
    # absorbs the phase-1 shares bound for the w below it in the tree: the
    # lows lo with lo % span == v % span.
    top = np.zeros(origin.size, np.int64)
    for i in range(d):
        top[origin // pw[i] % q != dest // pw[i] % q] = i
    powers = np.array(pw, np.int64)
    span = powers[top + 1]
    v_low = dest % span
    for i in range(d):
        p = pw[i]
        # Phase 1: hi + y*p + lo is first reached at coordinate i, from
        # hi + ui*p + lo = u - u % p + lo.
        code = codes(pw[d - i - 1])
        chunk = max(1, _CHUNK_ROWS // p)
        for c0 in range(0, origin.size, chunk):
            cm = np.repeat(every[c0:c0 + chunk], p)
            lo = np.resize(np.arange(p), cm.size)
            keep = (top[cm] >= i) | (lo % span[cm] != v_low[cm])
            cm, lo = cm[keep], lo[keep]
            src = (origin - origin % p)[cm] + lo
            ui = (origin // p % q)[cm]
            amount = code[cm]
            for t in range(1, q):
                blocks.add((i * (q - 1) + t - 1) * m, src, src + ((ui + t) % q - ui) * p,
                           cm, amount)
        # Phase 2: the edge that fixes coordinate i to v's carries the
        # shares of the q^i nodes that agree with its tail above i, less
        # those v absorbed in phase 1. Its head is h + v % (p*q) for each
        # multiple h of p*q.
        code = codes(np.where(top >= i, p, p - powers[np.maximum(i - top - 1, 0)]))
        heads = n // (p * q)
        chunk = max(1, _CHUNK_ROWS // heads)
        for c0 in range(0, origin.size, chunk):
            cm = np.repeat(every[c0:c0 + chunk], heads)
            dst = np.resize(np.arange(0, n, p * q), cm.size) + (dest % (p * q))[cm]
            vi = (dest // p % q)[cm]
            amount = code[cm]
            for t in range(1, q):
                blocks.add((i * (q - 1) + t - 1) * m + horizon,
                           dst + ((vi - t) % q - vi) * p, dst, cm, amount)
    keys, kinds = list(group_of), len(factors)
    entries = np.flatnonzero(used).tolist()
    column, scale = scaled_column([
        Fraction(keys[e // kinds] * factors[e % kinds], scale * n * m) for e in entries
    ])
    table = np.zeros(used.size, column.dtype)
    table[entries] = column
    return blocks.schedule(n, 2 * horizon, origin, dest, table, scale)


def auto_schedule(
    instance: Instance, nominal_load: Fraction | None = None
) -> Schedule:
    """Dispatch on the load bound B per the three worst-case regimes.

    B >= n: round robin (direct). Otherwise: VLB, over the hypercube for
    B <= 2 and over the elementary basis schedule above that.
    ``nominal_load`` may overstate the actual load bound to steer the
    regime choice (e.g. the nominal B of a diagonal-free uniform instance).
    """
    load = _regime_load(instance, nominal_load)
    if load >= instance.n:
        return round_robin_schedule(instance, nominal_load=load)
    return vlb_lift(instance, nominal_load=load)
