"""Dual-fitting certificates for greedy runs, and worst-case bound values.

A greedy run's certificate is the residual sums of its trace's integer replay
(``GreedyTrace.replay``): with R_i sender i's initial residual and S_ti its
residual before step t, the sender-bound dual sets alpha_ij = R_i and
beta_it = S_ti / 4, and the receiver-bound dual does the same with column
sums. The check compares every sum to the replay and checks both duals'
feasibility and the half-of-greedy objective bound on integers; together with
weak duality they certify the approximation ratio of a concrete run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .direct import GreedyTrace
from .errors import StructuralError
from .indirect import regime_dimension
from .model import Instance, over_scale
from .rational import render_rational


def _objective(sums: tuple, scale: int) -> int:
    """sum_ij D_ij alpha_ij - sum beta, times 4 scale^2: 4 sum R^2 - scale sum S."""
    return 4 * sum(x * x for x in sums[0]) - scale * sum(map(sum, sums))


@dataclass(frozen=True)
class DualCertificate:
    """Both duals of a greedy run over ``scale``: ``senders[t][i]`` and
    ``receivers[t][j]`` are sender i's and receiver j's residual before step
    t, t = 0..T. alpha_S[i] (alpha_ij for every j) and alpha_R[j] (alpha_ij
    for every i) are senders[0][i] and receivers[0][j] over scale;
    beta_S[i][t] and beta_R[j][t] are the sums over 4 scale."""

    scale: int
    senders: tuple[tuple[int, ...], ...]
    receivers: tuple[tuple[int, ...], ...]

    @property
    def obj_ds(self) -> Fraction:
        return Fraction(_objective(self.senders, self.scale), 4 * self.scale * self.scale)

    @property
    def obj_dr(self) -> Fraction:
        return Fraction(_objective(self.receivers, self.scale), 4 * self.scale * self.scale)

    def to_json(self) -> dict:
        alpha = lambda sums: over_scale(sums[0], self.scale, render_rational)
        beta = lambda sums: [  # [node][t]
            over_scale(node, 4 * self.scale, render_rational) for node in zip(*sums)
        ]
        return {
            "alpha_S": alpha(self.senders),
            "beta_S": beta(self.senders),
            "alpha_R": alpha(self.receivers),
            "beta_R": beta(self.receivers),
            "obj_DS": render_rational(self.obj_ds),
            "obj_DR": render_rational(self.obj_dr),
        }


def build_certificate(trace: GreedyTrace) -> DualCertificate:
    """The certificate of a greedy trace: its replay's residual sums."""
    replay = trace.replay
    return DualCertificate(trace.scale, replay.senders, replay.receivers)


@dataclass(frozen=True)
class CertificateReport:
    """``obj_sum`` is None for a certificate whose scale or table shape is
    not its trace's. :attr:`ok` is derived: no failures."""

    failures: tuple[str, ...]
    total_completion: Fraction
    obj_sum: Fraction | None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "failures": list(self.failures),
            "total_completion": render_rational(self.total_completion),
            "obj_DS_plus_DR": None if self.obj_sum is None else render_rational(self.obj_sum),
        }


def _shaped_like(table, like: tuple) -> bool:
    """True iff ``table`` is a tuple of int tuples shaped like ``like``."""
    return type(table) is tuple and len(table) == len(like) and all(
        type(row) is tuple and len(row) == len(r) and all(type(x) is int for x in row)
        for row, r in zip(table, like)
    )


def check_certificate(
    instance: Instance, trace: GreedyTrace, cert: DualCertificate
) -> CertificateReport:
    """Exact check of the trace against the instance, of the certificate
    against the trace's replay, of dual feasibility and of the half-of-greedy
    bound, all on the replay's integers.

    The trace must replay a greedy run of ``instance``: every rate fits its
    residual, every matching is maximal against its residual, and the run
    ships all demand. The certificate's scale and sums must be the replay's.
    Reports the first violation per check, node-major, rather than raising.
    """
    replay = trace.replay
    alg = trace.total_completion
    failures = []
    if trace.instance != instance:
        failures.append("the trace does not follow from the instance")
    elif replay.failure:
        failures.append(replay.failure)
    scale = cert.scale
    if not (type(scale) is int and scale == trace.scale
            and _shaped_like(cert.senders, replay.senders)
            and _shaped_like(cert.receivers, replay.receivers)):
        failures.append("the certificate's scale or table shape does not match the trace")
        return CertificateReport(tuple(failures), alg, None)

    n, steps = len(replay.senders[0]), len(replay.senders)
    first = lambda bad: next(((i, t) for i in range(n) for t in range(steps) if bad(i, t)), None)
    for side, sums, like in (("S", cert.senders, replay.senders),
                             ("R", cert.receivers, replay.receivers)):
        at = sums != like and first(lambda i, t: sums[t][i] != like[t][i])
        if at:
            failures.append(f"beta_{side}[{at[0]}][{at[1]}] does not match the trace")
        # alpha - t > 4 beta: more than t steps at the cap from the start.
        at = first(lambda i, t: sums[0][i] - t * scale > sums[t][i])
        if at:
            failures.append(f"D{side} infeasible at (i={at[0]}, t={at[1]})")

    both = _objective(cert.senders, scale) + _objective(cert.receivers, scale)
    obj_sum = Fraction(both, 4 * scale * scale)
    if 2 * obj_sum < alg:
        failures.append(
            f"dual objective sum {obj_sum} below half of greedy value {alg}"
        )
    return CertificateReport(tuple(failures), alg, obj_sum)


@dataclass(frozen=True)
class BoundsReport:
    """Computable makespan bound values for a node count and load bound.

    ``log_lb`` is the path-counting bound (smallest L with 2^L >= n);
    ``max_lb`` is the larger of it and ``ceil_load``, so every ratio taken
    against it divides by an exact bound. ``upper_formula`` is the regime
    schemes' makespan bound, exact: (n-1)ceil(B/n) for B >= n, 2 log_lb for
    B <= 2, and 2B(d+1) otherwise, d the least dimension with B^d >= n.
    """

    n: int
    load: Fraction
    ceil_load: int
    log_lb: int
    max_lb: Fraction
    upper_formula: Fraction

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "B": render_rational(self.load),
            "ceil_B": self.ceil_load,
            "log_lb": self.log_lb,
            "max_lb": render_rational(self.max_lb),
            "upper_formula": render_rational(self.upper_formula),
        }


def lower_bounds(n: int, load: Fraction | int) -> BoundsReport:
    """All computable lower bounds for (n, B), plus the upper-bound formula.

    The bounds are proven for the uniform-demand regime; on other instances
    treat them as informational. ``upper_formula`` bounds the ``auto``
    makespan for B <= 2 at every n, for B >= n, and in between at n = q^d;
    between the powers the elementary basis's least radix can exceed it.
    """
    load = Fraction(load)
    if n < 2 or load <= 0:
        raise StructuralError("need n >= 2 and B > 0")
    ceil_load = ceil(load)
    log_lb = (n - 1).bit_length()  # ceil(log2 n)
    max_lb = Fraction(max(ceil_load, log_lb))

    if load >= n:
        upper = Fraction((n - 1) * ceil(load / n))
    elif load <= 2:
        upper = Fraction(2 * log_lb)
    else:  # 2B(d + 1), d the least dimension with B^d >= n, as the scheme picks
        upper = 2 * load * (regime_dimension(n, load) + 1)
    return BoundsReport(
        n=n,
        load=load,
        ceil_load=ceil_load,
        log_lb=log_lb,
        max_lb=max_lb,
        upper_formula=upper,
    )
