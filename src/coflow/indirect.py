"""Indirect integral routing schemes over fixed connection schedules.

A connection scheme fixes an ordered list of integral matchings (with
repetitions) and routes every (source, destination) pair over them. The
schemes:

* round robin: every nonzero cyclic shift, repeated ceil(B/n) times;
* offset digits (:class:`CyclicScheme`), for every n: the hypercube in
  radix 2, the elementary basis in radix ceil(n^(1/d)), and the grid in
  radix ceil(n^(1/2));
* VLB lifting: the offset digits twice, spreading every commodity uniformly
  over all intermediate nodes, to handle arbitrary demand matrices.

Round robin ships unit parcels through ``model.parcel_schedule``, each in
the slot of its shift and index; the offset-digit schemes give
``model.Blocks`` the rows of one commodity per offset, one matching at a
time, each row a factor of its commodity's demand.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt, lcm

import numpy as np

from .errors import StructuralError
from .model import (
    Blocks, Instance, Schedule, capped, commodity_columns, parcel_schedule, unit_parcels,
)

class CyclicScheme:
    """Offset-digit routes on Z_n in radix ``q`` for load bound ``load``
    (the index algorithm of Bruck, Ho, Kipnis, Upfal and Weathersby, 1997).

    Commodity (i, j) writes its offset (j - i) mod n in d radix-q digits, d
    the digit count of n - 1, and for each nonzero digit s at position k it
    hops from x to x + s*q^k mod n in round (k, s). Digit k has shifts
    1..q-1, the top digit 1..ceil(n / q^(d-1)) - 1. ``rounds[k]`` lists
    (s, first slot, m) in schedule order: round (k, s) carries the c(k, s)
    offsets in [0, n) whose digit k is s, so it is repeated m = max(1,
    ceil(B c(k, s) / n)) times and each hop splits its flow evenly over the
    repetitions. At n = q^d every c is q^(d-1): m is ceil(B/q) and the
    horizon d (q-1) ceil(B/q).
    """

    def __init__(self, n: int, q: int, load: Fraction):
        self.powers = [1]
        while self.powers[-1] < n:
            self.powers.append(self.powers[-1] * q)
        self.rounds: list[list[tuple[int, int, int]]] = []
        slot = 0
        for p, span in zip(self.powers, self.powers[1:]):
            digit = []
            for s in range(1, min(q, -(-n // p))):
                count = n // span * p + min(p, max(0, n % span - s * p))
                m = max(1, -(-load.numerator * count // (load.denominator * n)))
                digit.append((s, slot, m))
                slot += m
            self.rounds.append(digit)
        self.horizon = slot
        self.lcm = lcm(*(m for digit in self.rounds for _, _, m in digit))


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


def regime_dimension(n: int, load: Fraction) -> int:
    """The least d with B^d >= n, for B > 2 (so d < n): the elementary
    basis's dimension in the regime 2 < B < n."""
    return next(d for d in range(1, n) if load**d >= n)


def _elementary_radix(n: int, load: Fraction) -> int:
    """The radix of the elementary basis: 2 for B <= 2, as B^d >= n gives
    2^d >= n (and B <= 1 has no such d); above that the least q with
    q^d >= n, d the smallest dimension with B^d >= n."""
    if load <= 2:
        return 2
    d, q = regime_dimension(n, load), 2
    while q**d < n:
        q += 1
    return q


def _route_directly(instance: Instance, q: int) -> Schedule:
    """Route every commodity over the offset digits in radix q, least
    significant first, each hop split equally over its round's repetitions.
    A round carries one commodity per offset it serves, so the scheme is
    sized for n times the largest demand: the nominal B of a uniform
    instance, and enough for any. A commodity of offset r stands at origin +
    (r mod q^k) before digit k."""
    n, (demands, scale) = instance.n, instance.scaled_demands
    scheme = CyclicScheme(n, q, Fraction(n * int(demands.max()), scale))
    blocks = Blocks(instance, scheme.lcm)
    for p, rounds in zip(scheme.powers, scheme.rounds):
        for s, start, m in rounds:
            r = np.flatnonzero(np.arange(n) // p % q == s)
            blocks.add(start, m, r, r % p, r % p + s * p, scheme.lcm // m)
    return blocks.schedule(scheme.horizon)


def round_robin_schedule(
    instance: Instance, nominal_load: Fraction | None = None
) -> Schedule:
    """Direct round-robin schedule; intended for the B >= n regime.

    Shift s = 1..n-1 (the identity is all self-loops) owns ``m`` consecutive
    steps, m = ceil(B/n), bumped when an individual demand exceeds its
    dedicated slot capacity (only possible outside the uniform regime).
    The k-th step of commodity (i, j), on shift j - i, carries min(1, d - k).
    A horizon past ``MAX_PARCELS`` raises ``StructuralError``.
    """
    n = instance.n
    load = _regime_load(instance, nominal_load)
    origin, dest, _, _ = commodity_columns(instance)
    parcel, k = unit_parcels(instance)
    m = max(ceil(load / n), int(k.max(initial=-1)) + 1, 1)
    capped((n - 1) * m, "steps")
    shift = (dest - origin) % n
    return parcel_schedule(instance, (n - 1) * m, parcel, (shift[parcel] - 1) * m + k)


def hypercube_schedule(instance: Instance) -> Schedule:
    """Bit-fixing routes: the offset digits in radix 2; intended for B <= 2."""
    return _route_directly(instance, 2)


def elementary_basis_schedule(
    instance: Instance, nominal_load: Fraction | None = None
) -> Schedule:
    """Offset-digit routes in radix the least q with q^d >= n, d the
    smallest dimension with B^d >= n (the regime choice for 2 < B <= n), and
    in radix 2 for B <= 2."""
    load = _regime_load(instance, nominal_load)
    return _route_directly(instance, _elementary_radix(instance.n, load))


def grid_schedule(instance: Instance) -> Schedule:
    """Two offset digits in radix the least q with q^2 >= n: a row shift,
    then a column shift."""
    return _route_directly(instance, isqrt(instance.n - 1) + 1)


def vlb_lift(instance: Instance, nominal_load: Fraction | None = None) -> Schedule:
    """Valiant lifting: run the offset digits twice, in radix 2 for B <= 2
    and over the elementary basis otherwise.

    Each commodity (u, v) is split into n shares of demand/n, one per
    intermediate node w, and emitted as two merged flow trees with one row
    per (step, edge, commodity):

    * phase 1 spreads the shares from u over the digits of r = (w - u) mod n:
      the edge of round (k, s) out of u + lo, lo < q^k, carries the shares
      with r = lo + s q^k mod q^(k+1), counted from n. v is a sink: the
      shares whose walk reaches v (r = (v - u) mod n modulo q^(top+1), top
      its highest nonzero digit) are delivered there;
    * phase 2 converges every other share onto v over the digits of
      r' = (v - w) mod n: the edge of round (k, s) into v - h, h a multiple
      of q^(k+1), carries the r' in [h + s q^k, h + (s+1) q^k), less those
      v absorbed in phase 1.

    Makespan is exactly twice the base scheme's horizon whenever demand is
    nonzero. Each round is one piece of template rows per offset.
    """
    n = instance.n
    load = _regime_load(instance, nominal_load)
    q = _elementary_radix(n, load)
    scheme = CyclicScheme(n, q, load)
    pw, horizon = scheme.powers, scheme.horizon
    # Each row moves demand * shares / (n m), m its round's multiplicity.
    blocks = Blocks(instance, n * scheme.lcm)
    # Per offset (v - u) mod n, one per row: q^(top+1), and the count of
    # shares w = u + offset + t*span, t = 1..absorbed, that phase 1 delivers
    # at v besides w = v, which has nothing left to route.
    offset = np.arange(1, n)[:, None]
    span = np.array(pw)[np.searchsorted(pw, offset, side="right")]
    absorbed = (n - 1 - offset) // span
    for p, rounds in zip(pw, scheme.rounds):
        for s, start, m in rounds:
            # Phase 1: from u + lo to u + lo + s p, for each lo below both p
            # and n - s p, except the lo whose walk passed v (offset mod span).
            lo = np.arange(min(p, n - s * p))
            count = (n - 1 - s * p - lo) // (p * q) + 1
            r, lo = np.nonzero(lo % span != offset)
            blocks.add(start, m, r + 1, lo, lo + s * p, count[lo] * (scheme.lcm // m))
            # Phase 2: from v - h - s p to v - h, h a multiple of q^(k+1). The
            # offsets v absorbed, n - t*span for t = 1..absorbed, in [low, high)
            # number min(absorbed, (n - low) // span) - min(absorbed, (n - high) // span).
            h = np.arange(0, n - s * p, p * q)
            low, high = h + s * p, np.minimum(h + s * p + p, n)
            shares = (high - low) - (np.minimum(absorbed, (n - low) // span)
                                     - np.minimum(absorbed, (n - high) // span))
            r, i = np.nonzero(shares > 0)
            blocks.add(start + horizon, m, r + 1, r + 1 - h[i] - s * p, r + 1 - h[i],
                       shares[r, i] * (scheme.lcm // m))
    return blocks.schedule(2 * horizon)


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
