"""Dual-fitting certificates for greedy runs, and worst-case bound values.

The certificate is built from the greedy residual trace: the alpha value
of pair (i, j) is sender i's initial residual, and the beta value of
(i, t) is a quarter of sender i's residual before step t. Feasibility of
both dual programs plus the half-of-greedy objective bound are checked
exactly; together with weak duality they certify the approximation ratio
of a concrete run.

The trace's residual sums come from its integer replay
(``GreedyTrace.replay``); the certificate's entries are ``Fraction``s, and
the check reads any certificate, not only a built one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .direct import GreedyTrace
from .errors import StructuralError
from .model import Instance
from .rational import ceil_frac, render_rational


@dataclass(frozen=True)
class DualCertificate:
    """Alpha/beta vectors for the sender- and receiver-bound duals."""

    alpha_s: tuple  # [i][j]
    beta_s: tuple  # [i][t], t = 0..T
    alpha_r: tuple  # [i][j]
    beta_r: tuple  # [j][t]
    obj_ds: Fraction
    obj_dr: Fraction

    def to_json(self) -> dict:
        mat = lambda m: [[render_rational(x) for x in row] for row in m]
        return {
            "alpha_S": mat(self.alpha_s),
            "beta_S": mat(self.beta_s),
            "alpha_R": mat(self.alpha_r),
            "beta_R": mat(self.beta_r),
            "obj_DS": render_rational(self.obj_ds),
            "obj_DR": render_rational(self.obj_dr),
        }


def build_certificate(trace: GreedyTrace) -> DualCertificate:
    """Populate the dual solutions from a completed greedy trace.

    With R_i node i's initial residual and S_ti its residual before step t,
    over the replay's denominator den, sum_ij D_ij alpha_ij - sum beta is
    (4 sum R_i^2 - den sum S_ti) / (4 den^2).
    """
    n = trace.instance.n
    replay = trace.replay
    den = replay.scale
    alpha = cache(lambda x: Fraction(x, den))
    beta = cache(lambda x: Fraction(x, 4 * den))
    rows, cols = replay.senders[0], replay.receivers[0]
    alpha_s = tuple((a,) * n for a in map(alpha, rows))
    alpha_r = (tuple(map(alpha, cols)),) * n
    beta_s = tuple(tuple(map(beta, node)) for node in zip(*replay.senders))
    beta_r = tuple(tuple(map(beta, node)) for node in zip(*replay.receivers))
    objective = lambda start, sums: Fraction(
        4 * sum(x * x for x in start) - den * sum(map(sum, sums)), 4 * den * den
    )
    obj_ds = objective(rows, replay.senders)
    obj_dr = objective(cols, replay.receivers)
    return DualCertificate(alpha_s, beta_s, alpha_r, beta_r, obj_ds, obj_dr)


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    failures: tuple[str, ...]
    total_completion: Fraction
    obj_sum: Fraction

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "failures": list(self.failures),
            "total_completion": render_rational(self.total_completion),
            "obj_DS_plus_DR": render_rational(self.obj_sum),
        }


def _replay_failures(instance: Instance, trace: GreedyTrace) -> list[str]:
    """Check the greedy run the trace's matchings replay from ``instance``.

    Every rate must fit its residual, every matching must be maximal
    against its residual, and the run must ship all demand. This binds the
    trace, and any certificate built from it, to the instance.
    """
    if trace.instance != instance:
        return ["the trace does not follow from the instance"]
    failure = trace.replay.failure
    return [failure] if failure else []


def check_certificate(
    instance: Instance, trace: GreedyTrace, cert: DualCertificate
) -> CertificateReport:
    """Exact check of the trace against the instance, dual feasibility and
    the half-of-greedy bound.

    Reports the first violated inequality per check rather than raising.
    """
    n = instance.n
    horizon = trace.horizon
    failures = _replay_failures(instance, trace)

    def first_dual_violation(alpha, beta, tag):
        # Only the largest alpha of node i can violate first; the j scan
        # runs only to name the first violating index.
        for i in range(n):
            column = [alpha[i][j] if tag == "DS" else alpha[j][i] for j in range(n)]
            top = max(column)
            for t in range(horizon + 1):
                bound = 4 * beta[i][t]
                if top - t > bound:
                    j = next(j for j, a in enumerate(column) if a - t > bound)
                    return f"{tag} infeasible at (i={i}, j={j}, t={t})"
        return None

    for tag, alpha, beta in (("DS", cert.alpha_s, cert.beta_s), ("DR", cert.alpha_r, cert.beta_r)):
        msg = first_dual_violation(alpha, beta, tag)
        if msg:
            failures.append(msg)

    alg = trace.total_completion
    obj_sum = cert.obj_ds + cert.obj_dr
    if 2 * obj_sum < alg:
        failures.append(
            f"dual objective sum {obj_sum} below half of greedy value {alg}"
        )

    # Residual identity: 4*beta_S[i][t] is sender i's residual, which can
    # drop by at most one per step; both over the replay's denominator.
    replay = trace.replay
    for i in range(n):
        for t in range(horizon + 1):
            residual = 4 * cert.beta_s[i][t] * replay.scale
            if residual != replay.senders[t][i]:
                failures.append(f"beta_S[{i}][{t}] does not match the trace")
                break
            if residual < replay.senders[0][i] - t * replay.scale:
                failures.append(f"sender {i} residual dropped too fast by t={t}")
                break

    return CertificateReport(
        ok=not failures,
        failures=tuple(failures),
        total_completion=alg,
        obj_sum=obj_sum,
    )


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


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def lower_bounds(n: int, load: Fraction | int) -> BoundsReport:
    """All computable lower bounds for (n, B), plus the upper-bound formula.

    The bounds are proven for the uniform-demand regime; on other instances
    treat them as informational.
    """
    load = Fraction(load)
    if n < 2 or load <= 0:
        raise StructuralError("need n >= 2 and B > 0")
    ceil_load = ceil_frac(load)
    log_lb = _ceil_log2(n)
    max_lb = Fraction(max(ceil_load, log_lb))

    if load >= n:
        upper = Fraction((n - 1) * ceil_frac(load / n))
    elif load <= 2:
        upper = Fraction(2 * log_lb)
    else:  # 2B(d + 1), d the least dimension with B^d >= n, as the scheme picks
        d = 1
        while load**d < n:
            d += 1
        upper = 2 * load * (d + 1)
    return BoundsReport(
        n=n,
        load=load,
        ceil_load=ceil_load,
        log_lb=log_lb,
        max_lb=max_lb,
        upper_formula=upper,
    )


def path_count_feasible(length: int, hops: int, n: int) -> bool:
    """True iff sum_{i=1..h} C(L, i) >= n/2, in exact integer arithmetic.

    A makespan L consistent with reaching n/2 destinations within h
    physical hops must satisfy this counting inequality.
    """
    if length < 0 or hops < 0:
        raise StructuralError("L and h must be nonnegative")
    count = sum(comb(length, i) for i in range(1, hops + 1))
    return 2 * count >= n
