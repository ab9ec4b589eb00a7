"""Dual-fitting certificates for greedy runs, and worst-case bound values.

The certificate is built from the greedy residual trace: the alpha value
of pair (i, j) is sender i's initial residual, and the beta value of
(i, t) is a quarter of sender i's residual before step t. Feasibility of
both dual programs plus the half-of-greedy objective bound are checked
exactly; together with weak duality they certify the approximation ratio
of a concrete run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .direct import GreedyTrace
from .errors import StructuralError
from .model import (
    Instance,
    Metrics,
    Schedule,
    compute_metrics,
    matrix_col_sums,
    matrix_row_sums,
)
from .rational import ceil_frac, render_decimal, render_rational
from .verifier import verify


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
    """Populate the dual solutions from a completed greedy trace."""
    inst = trace.instance
    n = inst.n
    horizon = trace.horizon
    if len(trace.sender_residual) != horizon + 1:
        raise StructuralError("greedy trace needs one residual per matching, plus one")
    final = trace.residuals[-1]
    if any(x != 0 for row in final for x in row):
        raise StructuralError("greedy trace is incomplete: residual nonzero")

    alpha_s = tuple(
        tuple(trace.sender_residual[0][i] for _ in range(n)) for i in range(n)
    )
    alpha_r = tuple(
        tuple(trace.receiver_residual[0][j] for j in range(n)) for _ in range(n)
    )
    beta_s = tuple(
        tuple(trace.sender_residual[t][i] / 4 for t in range(horizon + 1))
        for i in range(n)
    )
    beta_r = tuple(
        tuple(trace.receiver_residual[t][j] / 4 for t in range(horizon + 1))
        for j in range(n)
    )
    obj_ds = sum(
        (inst.demands[i][j] * alpha_s[i][j] for i in range(n) for j in range(n)),
        Fraction(0),
    ) - sum((b for row in beta_s for b in row), Fraction(0))
    obj_dr = sum(
        (inst.demands[i][j] * alpha_r[i][j] for i in range(n) for j in range(n)),
        Fraction(0),
    ) - sum((b for row in beta_r for b in row), Fraction(0))
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
    """Re-derive the greedy run from ``instance`` and the trace's matchings.

    Every rate must fit its residual, every matching must be maximal
    against its residual, the derived residuals and their row and column
    sums must equal the trace's, and the run must ship all demand. This
    binds the trace, and any certificate built from it, to the instance.
    """
    n = instance.n
    horizon = trace.horizon
    lengths = {len(trace.residuals), len(trace.sender_residual),
               len(trace.receiver_residual)}
    if lengths != {horizon + 1}:
        return [f"trace has {len(trace.residuals)} residuals for {horizon} matchings"]
    residual = [list(row) for row in instance.demands]
    rows = matrix_row_sums(instance.demands)
    cols = matrix_col_sums(instance.demands)
    positive = {(i, j) for i, j, _ in instance.commodities()}
    for t in range(horizon + 1):
        if tuple(map(tuple, residual)) != trace.residuals[t]:
            return [f"residual before step {t} does not follow from the instance"]
        if (tuple(rows) != trace.sender_residual[t]
                or tuple(cols) != trace.receiver_residual[t]):
            return [f"residual sums before step {t} do not match the trace"]
        if t == horizon:
            break
        matching = trace.matchings[t]
        sent: dict[int, Fraction] = {}
        received: dict[int, Fraction] = {}
        for i, j, p in matching.triples:
            if not (0 <= i < n and 0 <= j < n) or p > residual[i][j]:
                return [f"step {t} ships more than the residual of ({i},{j})"]
            residual[i][j] -= p
            if not residual[i][j]:
                positive.discard((i, j))
            sent[i] = sent.get(i, 0) + p
            received[j] = received.get(j, 0) + p
        for i, p in sent.items():
            rows[i] -= p
        for j, p in received.items():
            cols[j] -= p
        # Maximal: every pair still short has a saturated endpoint.
        full_s = {i for i, p in sent.items() if p == matching.cap}
        full_r = {j for j, p in received.items() if p == matching.cap}
        for i, j in positive:
            if i not in full_s and j not in full_r:
                return [f"matching {t} is not maximal: ({i},{j}) could take more"]
    if positive:
        return ["the matchings leave demand unshipped"]
    return []


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
        for i in range(n):
            for t in range(horizon + 1):
                bound = 4 * beta[i][t]
                for j in range(n):
                    a = alpha[i][j] if tag == "DS" else alpha[j][i]
                    if a - t > bound:
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
    # drop by at most one per step.
    for i in range(n):
        for t in range(horizon + 1):
            if 4 * cert.beta_s[i][t] != trace.sender_residual[t][i]:
                failures.append(f"beta_S[{i}][{t}] does not match the trace")
                break
            if 4 * cert.beta_s[i][t] < trace.sender_residual[0][i] - t:
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

    ``log_lb`` is the path-counting bound (smallest L with 2^L >= n) and is
    exact; ``mid_lb`` is the averaging bound B*d/2 with d = log2(n) /
    (3 log2(B)), reported only for 2 <= B <= n and computed through a
    float-backed rational, so it is informational, never an exact oracle.
    """

    n: int
    load: Fraction
    ceil_load: int
    log_lb: int
    mid_lb: Fraction | None
    max_lb: Fraction
    upper_formula: Fraction

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "B": render_rational(self.load),
            "ceil_B": self.ceil_load,
            "log_lb": self.log_lb,
            "mid_lb": None if self.mid_lb is None else render_rational(self.mid_lb),
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
    mid_lb = None
    if 2 <= load <= n:
        d = Fraction(math.log2(n) / (3 * math.log2(float(load)))).limit_denominator(
            10**6
        )
        mid_lb = load * d / 2
    candidates = [Fraction(ceil_load), Fraction(log_lb)]
    if mid_lb is not None:
        candidates.append(mid_lb)
    max_lb = max(candidates)

    if load >= n:
        upper = Fraction((n - 1) * ceil_frac(load / n))
    elif load <= 2:
        upper = Fraction(2 * log_lb)
    else:
        ratio = Fraction(
            math.log2(n) / math.log2(float(load))
        ).limit_denominator(10**6)
        upper = 2 * load * (ratio + 1)
    return BoundsReport(
        n=n,
        load=load,
        ceil_load=ceil_load,
        log_lb=log_lb,
        mid_lb=mid_lb,
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


@dataclass(frozen=True)
class GapReport:
    metrics: Metrics
    bounds: BoundsReport
    ratio_makespan: Fraction
    ratio_avg: Fraction

    def to_json(self) -> dict:
        return {
            "makespan": self.metrics.makespan,
            "average_completion": render_rational(self.metrics.average_completion),
            "max_lb": render_rational(self.bounds.max_lb),
            "ratio_makespan": render_rational(self.ratio_makespan),
            "ratio_makespan_decimal": render_decimal(self.ratio_makespan),
            "ratio_avg": render_rational(self.ratio_avg),
            "ratio_avg_decimal": render_decimal(self.ratio_avg),
        }


def compare(
    instance: Instance, schedule: Schedule, bounds: BoundsReport | None = None
) -> GapReport:
    """Ratios of achieved makespan and average completion to the best bound."""
    report = verify(instance, schedule)
    if not report.feasible:
        raise StructuralError("refusing to compare an infeasible schedule")
    if bounds is None:
        bounds = lower_bounds(instance.n, instance.load_bound)
    metrics = compute_metrics(instance, schedule)
    denom = bounds.max_lb
    ratio_mk = Fraction(metrics.makespan) / denom
    ratio_avg = metrics.average_completion / denom
    return GapReport(
        metrics=metrics, bounds=bounds, ratio_makespan=ratio_mk, ratio_avg=ratio_avg
    )
