"""Indirect integral routing schemes over fixed connection schedules.

A connection scheme fixes an ordered list of integral matchings (with
repetitions) and a routing rule mapping any (source, destination) pair to
hops over those matchings. The schemes:

* round robin: every nonzero cyclic shift, repeated ceil(B/n) times;
* hypercube: one matching per bit, for n a power of two;
* elementary basis: d-digit coordinate shifts mod n^(1/d), each matching
  repeated ceil(B / n^(1/d)) times;
* grid: the two-phase row/column scheme on a sqrt(n) x sqrt(n) grid;
* VLB lifting: run a scheme twice, spreading every commodity uniformly
  over all intermediate nodes, to handle arbitrary demand matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isqrt

from .errors import StructuralError, UnsupportedSizeError
from .model import (
    Instance,
    IntegralMatching,
    Schedule,
    Transfer,
    schedule_from_steps,
)
from .rational import ceil_frac


def _integer_root(n: int, d: int) -> int | None:
    """Exact d-th root of n, or None."""
    q = round(n ** (1.0 / d))
    for cand in (q - 1, q, q + 1):
        if cand >= 1 and cand**d == n:
            return cand
    return None


@dataclass(frozen=True)
class Hop:
    """One physical hop of a route: ``shares`` lists (slot, fraction)."""

    src: int
    dst: int
    shares: tuple[tuple[int, Fraction], ...]


class ConnectionScheme:
    """Fixed matching sequence plus a routing rule. Subclasses fill both."""

    n: int
    horizon: int
    descriptor: dict

    def matchings(self) -> list[IntegralMatching]:
        raise NotImplementedError

    def route(self, u: int, v: int) -> list[Hop]:
        """Hops (in slot order) moving one unit from u to v; each hop's
        shares sum to 1 and every share's slot strictly precedes the next
        hop's earliest slot plus one."""
        raise NotImplementedError

    def emit(self, steps, origin, dest, a, b, amount, offset) -> None:
        """Append the transfers routing ``amount`` of (origin, dest) from
        node a to node b onto ``steps``, shifted by ``offset`` slots."""
        for hop in self.route(a, b):
            for slot, share in hop.shares:
                steps[slot + offset].append(
                    Transfer(hop.src, hop.dst, origin, dest, amount * share)
                )


class RoundRobinScheme(ConnectionScheme):
    """Shifts s = 1..n-1 (identity omitted: it is all self-loops), each
    repeated ``multiplicity`` times. Every pair is directly connected."""

    def __init__(self, n: int, multiplicity: int):
        self.n = n
        self.multiplicity = multiplicity
        self.horizon = (n - 1) * multiplicity
        self.descriptor = {
            "scheme": "round-robin", "multiplicity": multiplicity,
        }

    def matchings(self) -> list[IntegralMatching]:
        out = []
        for s in range(1, self.n):
            m = IntegralMatching(
                tuple((u, (u + s) % self.n) for u in range(self.n))
            )
            out.extend([m] * self.multiplicity)
        return out

    def slot_block(self, u: int, v: int) -> range:
        shift = (v - u) % self.n
        start = (shift - 1) * self.multiplicity
        return range(start, start + self.multiplicity)

    def route(self, u: int, v: int) -> list[Hop]:
        m = self.multiplicity
        share = Fraction(1, m)
        shares = tuple((slot, share) for slot in self.slot_block(u, v))
        return [Hop(u, v, shares)]


class ElementaryBasisScheme(ConnectionScheme):
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
        self.n = n
        self.d = d
        self.base = q
        self.multiplicity = multiplicity
        self.horizon = d * (q - 1) * multiplicity
        self.descriptor = {
            "scheme": "elementary-basis", "d": d, "base": q,
            "multiplicity": multiplicity,
        }

    def digits(self, u: int) -> list[int]:
        q = self.base
        return [(u // q**k) % q for k in range(self.d)]

    def matchings(self) -> list[IntegralMatching]:
        out = []
        for i in range(self.d):
            for s in range(1, self.base):
                step = s * self.base**i
                edges = []
                for u in range(self.n):
                    di = (u // self.base**i) % self.base
                    v = u - di * self.base**i + ((di + s) % self.base) * self.base**i
                    edges.append((u, v))
                m = IntegralMatching(tuple(edges))
                out.extend([m] * self.multiplicity)
        return out

    def route(self, u: int, v: int) -> list[Hop]:
        q, m = self.base, self.multiplicity
        du, dv = self.digits(u), self.digits(v)
        cur = u
        share = Fraction(1, m)
        hops = []
        for i in range(self.d):
            if du[i] == dv[i]:
                continue
            s = (dv[i] - du[i]) % q
            nxt = cur + (dv[i] - du[i]) * q**i
            base_slot = (i * (q - 1) + (s - 1)) * m
            shares = tuple((base_slot + k, share) for k in range(m))
            hops.append(Hop(cur, nxt, shares))
            cur = nxt
        return hops

    # Inlined digit walk; this is the hot path for large hypercube and
    # elementary-basis schedules (millions of transfers), so it avoids
    # Hop/Fraction allocations and uses tuple.__new__ directly.
    def emit(self, steps, origin, dest, a, b, amount, offset) -> None:
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
    scheme = ElementaryBasisScheme(n, d, 1)
    scheme.descriptor = {"scheme": "hypercube", "dimensions": d}
    return scheme


def _schedule_from_routes(
    instance: Instance,
    scheme: ConnectionScheme,
    horizon: int,
    offset_pairs,
) -> Schedule:
    """Assemble per-step transfers from per-commodity routed flow.

    ``offset_pairs`` yields (origin, dest, start_node, end_node, amount,
    slot_offset) tuples; the scheme routes (start, end) over its matchings.
    """
    steps: list[list[Transfer]] = [[] for _ in range(horizon)]
    emit = scheme.emit
    for origin, dest, a, b, amount, offset in offset_pairs:
        emit(steps, origin, dest, a, b, amount, offset)
    return schedule_from_steps(instance.n, steps)


def round_robin_schedule(
    instance: Instance, nominal_load: Fraction | None = None
) -> Schedule:
    """Direct round-robin schedule; intended for the B >= n regime.

    Multiplicity is ceil(B/n), bumped when an individual demand exceeds its
    dedicated slot capacity (only possible outside the uniform regime).
    """
    n = instance.n
    load = Fraction(nominal_load if nominal_load is not None else instance.load_bound)
    m = max(ceil_frac(load / n), 1)
    max_entry = max((d for _, _, d in instance.commodities()), default=Fraction(0))
    m = max(m, ceil_frac(max_entry))
    scheme = RoundRobinScheme(n, m)
    steps: list[list[Transfer]] = [[] for _ in range(scheme.horizon)]
    for i, j, demand in instance.commodities():
        remaining = demand
        for slot in scheme.slot_block(i, j):
            amount = min(Fraction(1), remaining)
            if amount <= 0:
                break
            remaining -= amount
            steps[slot].append(Transfer(i, j, i, j, amount))
    return schedule_from_steps(n, steps)


def hypercube_schedule(instance: Instance) -> Schedule:
    """Bit-fixing routes over one matching per bit; intended for B <= 2."""
    scheme = hypercube_scheme(instance.n)
    pairs = (
        (i, j, i, j, d, 0) for i, j, d in instance.commodities()
    )
    return _schedule_from_routes(instance, scheme, scheme.horizon, pairs)


def elementary_basis_schedule(
    instance: Instance,
    d: int | None = None,
    nominal_load: Fraction | None = None,
) -> Schedule:
    """Coordinate-fixing routes over the elementary-basis schedule.

    ``d`` defaults to the smallest dimension with B^d >= n (the regime
    choice for 2 <= B <= n); n^(1/d) must be an integer.
    """
    load = Fraction(nominal_load if nominal_load is not None else instance.load_bound)
    if d is None:
        d = _auto_dimension(instance.n, load)
    scheme = _elementary_scheme(instance.n, d, load)
    pairs = (
        (i, j, i, j, dem, 0) for i, j, dem in instance.commodities()
    )
    return _schedule_from_routes(instance, scheme, scheme.horizon, pairs)


def _auto_dimension(n: int, load: Fraction) -> int:
    if load <= 1:
        raise StructuralError("dimension choice needs load bound > 1")
    d = 1
    while Fraction(load) ** d < n:
        d += 1
    return d


def _elementary_scheme(n: int, d: int, load: Fraction) -> ElementaryBasisScheme:
    q = _integer_root(n, d)
    if q is None:
        return ElementaryBasisScheme(n, d, 1)  # raises with a suggestion
    m = max(ceil_frac(load / q), 1)
    return ElementaryBasisScheme(n, d, m)


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


def _build_scheme(scheme_id: str, n: int, load: Fraction) -> ConnectionScheme:
    if scheme_id == "hypercube":
        return hypercube_scheme(n)
    if scheme_id == "elementary-basis":
        return _elementary_scheme(n, _auto_dimension(n, load), load)
    if scheme_id == "round-robin":
        return RoundRobinScheme(n, max(ceil_frac(load / n), 1))
    raise ValueError(f"unknown scheme id {scheme_id!r}")


def vlb_lift(
    instance: Instance,
    unif_scheme: str,
    nominal_load: Fraction | None = None,
) -> Schedule:
    """Valiant lifting: run ``unif_scheme`` twice over doubled matchings.

    Phase 1 spreads each commodity (u, v) in shares of 1/n to every
    intermediate node; phase 2 routes each share on to v. Shares whose
    intermediate already is u (or v) skip phase 1 (or phase 2). Makespan is
    exactly twice the base scheme's horizon whenever demand is nonzero.
    """
    n = instance.n
    load = Fraction(nominal_load if nominal_load is not None else instance.load_bound)
    scheme = _build_scheme(unif_scheme, n, load)
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

    return _schedule_from_routes(instance, scheme, 2 * horizon, pairs())


def auto_schedule(
    instance: Instance, nominal_load: Fraction | None = None
) -> Schedule:
    """Dispatch on the load bound B per the three worst-case regimes.

    B >= n: round robin (direct). B <= 2: VLB over the hypercube.
    Otherwise: VLB over the elementary basis schedule. ``nominal_load``
    may overstate the actual load bound to steer the regime choice (e.g.
    the nominal B of a diagonal-free uniform instance).
    """
    load = Fraction(nominal_load if nominal_load is not None else instance.load_bound)
    if load < instance.load_bound:
        raise StructuralError("nominal load below the instance load bound")
    n = instance.n
    if load >= n:
        return round_robin_schedule(instance, nominal_load=load)
    if load <= 2:
        return vlb_lift(instance, "hypercube", nominal_load=load)
    return vlb_lift(instance, "elementary-basis", nominal_load=load)


def pad_instance(instance: Instance, new_n: int) -> Instance:
    """Embed an instance into a larger node count with zero extra demand."""
    from .errors import DimensionError
    from .model import make_instance

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
