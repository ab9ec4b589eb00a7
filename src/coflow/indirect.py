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

Each scheme emits its rows into ``model.Blocks`` one matching at a time,
vectorized over the commodities.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt

import numpy as np

from .errors import StructuralError, UnsupportedSizeError
from .model import (
    Blocks, Instance, Schedule, commodity_columns, scaled_column, unit_parcels,
)

# VLB expands the rows of a run of commodities at a time, about this many,
# so that its temporaries stay small next to the schedule.
_CHUNK_ROWS = 1 << 16


class ElementaryBasisScheme:
    """d-dimensional coordinate-shift schedule, base q = n^(1/d), for load
    bound ``load``.

    Matching (i, s) adds s to coordinate i mod q; matchings are ordered by
    coordinate then shift, each repeated ``multiplicity`` = ceil(load / q)
    times (at least once). Routing fixes coordinates in schedule order and
    splits each hop's flow equally over the repetitions of its matching.
    Base 2 with multiplicity 1 is exactly the hypercube schedule.
    """

    def __init__(self, n: int, d: int, load: Fraction | int = 1):
        if d < 1:
            raise StructuralError(f"dimension must be at least 1, got d={d}")
        if n.bit_length() <= d:  # 2**d > n: not even base 2 fits
            raise StructuralError(f"dimension d={d} needs at least 2**{d} nodes, got n={n}")
        root = round(n ** (1.0 / d))
        q = next((c for c in (root - 1, root, root + 1) if c >= 2 and c**d == n), None)
        if q is None:
            raise UnsupportedSizeError(
                f"n={n} is not a perfect {d}-th power", suggested_n=ceil(n ** (1.0 / d)) ** d
            )
        self.d = d
        self.base = q
        self.multiplicity = max(ceil(Fraction(load) / q), 1)
        self.horizon = d * (q - 1) * self.multiplicity


def hypercube_scheme(n: int) -> ElementaryBasisScheme:
    d = n.bit_length() - 1
    if n < 2 or 2**d != n:
        raise UnsupportedSizeError(
            f"n={n} is not a power of 2", suggested_n=2 ** max(d + 1, 1)
        )
    return ElementaryBasisScheme(n, d)


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
    return ElementaryBasisScheme(n, d, load)


def _shift_groups(shift: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Each nonzero value t of ``shift``, ascending, with the indices where
    it occurs, in order."""
    hops = np.flatnonzero(shift)
    hops = hops[np.argsort(shift[hops], kind="stable")]
    values, starts = np.unique(shift[hops], return_index=True)
    return list(zip(values.tolist(), np.split(hops, starts[1:])))


def _route_directly(instance: Instance, scheme: ElementaryBasisScheme) -> Schedule:
    """Route every commodity from its origin to its destination, fixing
    coordinates in schedule order; each hop's flow splits equally over the
    repetitions of its matching. Rows are emitted one matching at a time,
    vectorized over the commodities."""
    q, d, m = scheme.base, scheme.d, scheme.multiplicity
    origin, dest, table, scale = commodity_columns(instance)
    if m > 1:
        table, scale = scaled_column([Fraction(x, scale * m) for x in table.tolist()])
    blocks = Blocks(m)
    cur = origin.copy()
    p = 1
    for i in range(d):
        delta = (dest // p % q - origin // p % q) * p
        for t, sel in _shift_groups(delta // p % q):
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
    The k-th step of commodity (i, j), on shift j - i, carries min(1, d - k).
    """
    n = instance.n
    load = _regime_load(instance, nominal_load)
    origin, dest, demand, scale = commodity_columns(instance)
    count, last, one, table = unit_parcels(demand, scale)
    parcels = int(count.max(initial=0))
    m = max(ceil(load / n), parcels, 1)
    shift = (dest - origin) % n
    blocks = Blocks(1)
    live = np.arange(origin.size)  # the commodities with more than k parcels
    for k in range(parcels):
        live = live[count[live] > k]
        for s, sel in _shift_groups(shift[live]):
            sel = live[sel]
            code = np.where(count[sel] > k + 1, one, last[sel])
            blocks.add((s - 1) * m + k, origin[sel], dest[sel], sel, code)
    return blocks.schedule(n, (n - 1) * m, origin, dest, table, scale)


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
    origin, dest, demand, scale = commodity_columns(instance)
    entries = np.unique(demand).tolist()
    if len(entries) > 1:
        raise StructuralError("grid scheme needs uniform off-diagonal demands")
    if entries and entries[0] * side > scale:
        c = Fraction(entries[0], scale)
        raise StructuralError(f"grid scheme infeasible: entry {c} exceeds 1/sqrt(n)")
    ri, ci = origin // side, origin % side
    rj, cj = dest // side, dest % side
    mid = rj * side + ci  # destination row, source column
    blocks = Blocks(1)
    phases = ((origin, mid, (rj - ri) % side), (mid, dest, (cj - ci) % side))
    for phase, (src, dst, shift) in enumerate(phases):
        for k, sel in _shift_groups(shift):
            blocks.add(phase * (side - 1) + k - 1, src[sel], dst[sel], sel, sel)
    return blocks.schedule(n, 2 * (side - 1), origin, dest, demand, scale)


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
    origin, dest, demands, scale = commodity_columns(instance)
    blocks = Blocks(m)
    every = np.arange(origin.size)
    # Each row moves demand * k / (n*m) for a factor k of its level; the
    # amount table has one entry per (distinct demand, k), so commodities
    # with equal demands share their entries.
    keys, group = np.unique(demands, return_inverse=True)
    factors = sorted({pw[i] - (pw[j] if j < i else 0) for i in range(d) for j in range(i + 1)})
    used = np.zeros(keys.size * len(factors), bool)

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
    keys, kinds = keys.tolist(), len(factors)
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
