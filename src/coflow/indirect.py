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

from .errors import DimensionError, StructuralError, UnsupportedSizeError
from .model import Instance, Schedule, Transfer, make_instance, schedule_from_steps
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


def _schedule_from_routes(
    n: int, scheme: ElementaryBasisScheme, horizon: int, offset_pairs
) -> Schedule:
    """Assemble per-step transfers from per-commodity routed flow.

    ``offset_pairs`` yields (origin, dest, start_node, end_node, amount,
    slot_offset) tuples; the scheme routes (start, end) over its matchings.
    """
    steps: list[list[Transfer]] = [[] for _ in range(horizon)]
    emit = scheme.emit
    for origin, dest, a, b, amount, offset in offset_pairs:
        emit(steps, origin, dest, a, b, amount, offset)
    return schedule_from_steps(n, steps)


def _route_directly(instance: Instance, scheme: ElementaryBasisScheme) -> Schedule:
    """Route every commodity from its origin to its destination."""
    pairs = ((i, j, i, j, d, 0) for i, j, d in instance.commodities())
    return _schedule_from_routes(instance.n, scheme, scheme.horizon, pairs)


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
    otherwise. Phase 1 spreads each commodity (u, v) in shares of 1/n to
    every intermediate node; phase 2 routes each share on to v. Shares
    whose intermediate already is u (or v) skip phase 1 (or phase 2).
    Makespan is exactly twice the base scheme's horizon whenever demand is
    nonzero.
    """
    n = instance.n
    load = _regime_load(instance, nominal_load)
    scheme = hypercube_scheme(n) if load <= 2 else _elementary_scheme(n, load)
    horizon = scheme.horizon

    def pairs():
        for u, v, demand in instance.commodities():
            share = demand / n
            for w in range(n):
                if w != u and w != v:
                    yield (u, v, u, w, share, 0)
                    yield (u, v, w, v, share, horizon)
                elif w == v:
                    yield (u, v, u, v, share, 0)  # delivered in phase 1
                else:  # w == u: waits at u, moves only in phase 2
                    yield (u, v, u, v, share, horizon)

    return _schedule_from_routes(n, scheme, 2 * horizon, pairs())


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


def pad_instance(instance: Instance, new_n: int) -> Instance:
    """Embed an instance into a larger node count with zero extra demand."""
    if new_n < instance.n:
        raise DimensionError(f"cannot pad from n={instance.n} down to {new_n}")
    demands = [
        [
            instance.demands[i][j] if i < instance.n and j < instance.n else Fraction(0)
            for j in range(new_n)
        ]
        for i in range(new_n)
    ]
    return make_instance(new_n, demands)
