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

from .errors import StructuralError, UnsupportedSizeError
from .model import Instance, Schedule, Transfer, schedule_from_steps
from .rational import ceil_frac


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

    # The digit walk is the hot path for large hypercube and elementary-
    # basis schedules (millions of transfers), so it avoids per-hop objects
    # and uses tuple.__new__ directly.
    def emit(self, steps, origin, dest, a, b, amount, offset) -> None:
        """Append the transfers routing ``amount`` of (origin, dest) from
        node a to node b onto ``steps``, shifted by ``offset`` slots."""
        q, m, d = self.base, self.multiplicity, self.d
        new = tuple.__new__
        cur = a
        da, db = a, b
        pw = 1
        if m == 1:
            for i in range(d):
                ai = da % q
                bi = db % q
                da //= q
                db //= q
                if ai != bi:
                    nxt = cur + (bi - ai) * pw
                    slot = i * (q - 1) + (bi - ai) % q - 1 + offset
                    steps[slot].append(
                        new(Transfer, (cur, nxt, origin, dest, amount))
                    )
                    cur = nxt
                pw *= q
            return
        amt = amount / m
        for i in range(d):
            ai = da % q
            bi = db % q
            da //= q
            db //= q
            if ai != bi:
                nxt = cur + (bi - ai) * pw
                base_slot = (i * (q - 1) + (bi - ai) % q - 1) * m + offset
                for k in range(m):
                    steps[base_slot + k].append(
                        new(Transfer, (cur, nxt, origin, dest, amt))
                    )
                cur = nxt
            pw *= q


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


def _route_directly(instance: Instance, scheme: ElementaryBasisScheme) -> Schedule:
    """Route every commodity from its origin to its destination."""
    steps: list[list[Transfer]] = [[] for _ in range(scheme.horizon)]
    emit = scheme.emit
    for i, j, demand in instance.commodities():
        emit(steps, i, j, i, j, demand, 0)
    return schedule_from_steps(instance.n, steps)


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
    nonzero.
    """
    n = instance.n
    load = _regime_load(instance, nominal_load)
    scheme = hypercube_scheme(n) if load <= 2 else _elementary_scheme(n, load)
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
