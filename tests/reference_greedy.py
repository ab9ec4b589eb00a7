"""Greedy, its trace replay and the dual certificate on ``Fraction`` matrices:
the independent reference for the integer greedy, replay and certificate.

These are the loops the package ran before it moved the direct quadrant onto
integer numerators: every residual, row sum, rate and objective is a
``Fraction``, and the schedule is built row by row through
``schedule_from_steps``. The reference gives the matchings, their order, the
first failure of a replay and every certificate value, and
``check_matching`` is the per-matching walk that names the first way a
matching is not a fractional matching.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import ceil

import numpy as np

from coflow import direct
from coflow.certificates import CertificateReport
from coflow.direct import GreedyTrace
from coflow.errors import NegativeDemandError, SchedulingError, StructuralError
from coflow.model import Schedule, Transfer, scaled_column
from coflow.rational import render_rational
from reference_rows import schedule_from_steps


# The orders in which a matching may visit the pairs with residual left:
# row-major (the package's one order), by residual, by the pair's row and
# column sums, and shuffled by a seed.
ORDERS = ("lex", "residual", "sums", "random")


def greedy_trace(instance, order, seed=None):
    """A greedy run of ``instance`` whose matchings visit the pairs in
    ``order``, as a ``GreedyTrace``: the package's own run for the row-major
    order, and this module's run for the others."""
    if order == "lex":
        return direct.greedy_schedule(instance)[1]
    return GreedyTrace(instance, greedy_schedule(instance, order, seed)[0])


def fraction_matchings(trace):
    """A ``GreedyTrace``'s matchings with each rate a ``Fraction``."""
    return tuple(
        tuple((i, j, Fraction(p, trace.scale)) for i, j, p in m) for m in trace.matchings
    )


def integer_trace(instance, matchings):
    """The ``GreedyTrace`` of matchings with ``Fraction`` rates: one step per
    matching, the rates over their lowest scale."""
    rows = [x for m in matchings for x in m]
    rate, scale = scaled_column([p for _, _, p in rows])
    src, dst = (np.array([x[k] for x in rows], np.int64) for k in (0, 1))
    schedule = Schedule(instance.n, list(map(len, matchings)), src, dst, src, dst, rate, scale)
    return GreedyTrace(instance, schedule)


def check_matching(senders, receivers, rates, n, cap):
    """Refuse a matching, given as columns, with a self-loop, a non-positive
    rate, a repeated pair, or a node whose rates in or out add up to more
    than ``cap``, a rate of 1."""
    seen = set()
    out, into = [0] * n, [0] * n
    for s, r, p in zip(senders, receivers, rates):
        if s == r:
            raise StructuralError(f"self-loop ({s},{r}) in fractional matching")
        if p <= 0:
            raise StructuralError(f"non-positive rate on ({s},{r})")
        if s * n + r in seen:
            raise StructuralError(f"duplicate pair ({s},{r})")
        seen.add(s * n + r)
        out[s] += p
        into[r] += p
    for v, total in chain(enumerate(out), enumerate(into)):
        if total > cap:
            raise StructuralError(f"node {v} exceeds matching cap 1")


def matrix_row_sums(m):
    return [sum(row, Fraction(0)) for row in m]


def matrix_col_sums(m):
    n = len(m)
    return [sum((m[i][j] for i in range(n)), Fraction(0)) for j in range(n)]


class FractionTrace:
    """A greedy run replayed on ``Fraction`` matrices: ``residuals[t]`` is the
    residual before step t, ``sender_residual[t]``/``receiver_residual[t]``
    its row and column sums. A trace with an empty matching, or with more
    matchings than ceil(total demand), which no greedy run has, fails before
    its replay: ``early_failure`` names it, and its sums stop at t = 0."""

    def __init__(self, instance, matchings):
        self.instance = instance
        self.matchings = tuple(tuple(m) for m in matchings)
        residual = [list(row) for row in instance.demands]
        rows = matrix_row_sums(instance.demands)
        cols = matrix_col_sums(instance.demands)
        residuals = [tuple(map(tuple, residual))]
        senders = [tuple(rows)]
        receivers = [tuple(cols)]
        for matching in self.matchings:
            for i, j, p in matching:
                residual[i][j] -= p
                rows[i] -= p
                cols[j] -= p
            residuals.append(tuple(map(tuple, residual)))
            senders.append(tuple(rows))
            receivers.append(tuple(cols))
        empty = next((t for t, m in enumerate(self.matchings) if not m), None)
        most = ceil(instance.total_demand)
        self.early_failure = (
            f"matching {empty} is empty" if empty is not None
            else f"more matchings than ceil(total demand) = {most}" if self.horizon > most
            else None
        )
        if self.early_failure:
            senders, receivers = senders[:1], receivers[:1]
        self.residuals = tuple(residuals)
        self.sender_residual = tuple(senders)
        self.receiver_residual = tuple(receivers)

    @property
    def horizon(self):
        return len(self.matchings)

    @property
    def total_completion(self):
        total = Fraction(0)
        for t, m in enumerate(self.matchings):
            total += (t + 1) * sum((p for _, _, p in m), Fraction(0))
        return total

    def to_json(self):
        return {
            "n": self.instance.n,
            "matchings": [[[s, r, render_rational(p)] for s, r, p in m] for m in self.matchings],
        }


def _pair_order(residual, order, rng):
    n = len(residual)
    pairs = [
        (i, j) for i in range(n) for j in range(n) if i != j and residual[i][j] > 0
    ]
    if order == "lex":
        return pairs
    if order == "residual":
        return sorted(pairs, key=lambda p: (-residual[p[0]][p[1]], p))
    if order == "sums":
        rows = matrix_row_sums(residual)
        cols = matrix_col_sums(residual)
        return sorted(pairs, key=lambda p: (-(rows[p[0]] + cols[p[1]]), p))
    if order == "random":
        rng.shuffle(pairs)
        return pairs
    raise ValueError(f"unknown pair order {order!r}")


def maximal_fractional_matching(residual, cap=Fraction(1), order="lex", rng=None):
    """Greedy maximal fractional matching of a residual demand matrix: each
    pair, in the configured order, takes the largest rate its residual and
    the two endpoint caps allow."""
    cap = Fraction(cap)
    if cap <= 0:
        raise NegativeDemandError("matching cap must be positive")
    n = len(residual)
    sent = [Fraction(0)] * n
    received = [Fraction(0)] * n
    triples = []
    for i, j in _pair_order(residual, order, rng):
        rate = min(residual[i][j], cap - sent[i], cap - received[j])
        if rate > 0:
            triples.append((i, j, rate))
            sent[i] += rate
            received[j] += rate
    return tuple(triples)


def greedy_schedule(instance, order="lex", seed=None):
    """Repeat maximal fractional matchings on the residuals until empty;
    the schedule has one step per matching."""
    rng = random.Random(seed) if order == "random" else None
    residual = [list(row) for row in instance.demands]
    matchings = []
    horizon_cap = ceil(instance.total_demand) + instance.n**2
    while any(x > 0 for row in residual for x in row):
        if len(matchings) >= horizon_cap:
            raise SchedulingError("greedy exceeded its defensive horizon")
        matching = maximal_fractional_matching(residual, order=order, rng=rng)
        for i, j, p in matching:
            residual[i][j] -= p
        matchings.append(matching)
    steps = [[Transfer(i, j, i, j, p) for i, j, p in m] for m in matchings]
    return schedule_from_steps(instance.n, steps), FractionTrace(instance, matchings)


@dataclass(frozen=True)
class FractionCertificate:
    """The dual solutions of a greedy trace as ``Fraction`` matrices, with
    the demands their objectives weigh alpha by."""

    demands: tuple
    alpha_s: tuple  # [i][j]
    beta_s: tuple  # [i][t], t = 0..T
    alpha_r: tuple  # [i][j]
    beta_r: tuple  # [j][t]

    @property
    def obj_ds(self):
        return _objective(self.demands, self.alpha_s, self.beta_s)

    @property
    def obj_dr(self):
        return _objective(self.demands, self.alpha_r, self.beta_r)

    def to_json(self):
        """The wire form: alpha_S[i] and alpha_R[j] are one value per node,
        read off the matrices' first column and first row."""
        mat = lambda m: [[render_rational(x) for x in row] for row in m]
        return {
            "alpha_S": [render_rational(row[0]) for row in self.alpha_s],
            "beta_S": mat(self.beta_s),
            "alpha_R": [render_rational(x) for x in self.alpha_r[0]],
            "beta_R": mat(self.beta_r),
            "obj_DS": render_rational(self.obj_ds),
            "obj_DR": render_rational(self.obj_dr),
        }


def _objective(demands, alpha, beta):
    """sum_ij D_ij alpha_ij - sum beta."""
    n = len(demands)
    return sum(
        (demands[i][j] * alpha[i][j] for i in range(n) for j in range(n)),
        Fraction(0),
    ) - sum((b for row in beta for b in row), Fraction(0))


def build_certificate(trace):
    """The dual solutions of a greedy trace, on ``Fraction`` matrices."""
    n = trace.instance.n
    steps = len(trace.sender_residual)
    alpha_s = tuple(
        tuple(trace.sender_residual[0][i] for _ in range(n)) for i in range(n)
    )
    alpha_r = tuple(
        tuple(trace.receiver_residual[0][j] for j in range(n)) for _ in range(n)
    )
    beta_s = tuple(
        tuple(trace.sender_residual[t][i] / 4 for t in range(steps))
        for i in range(n)
    )
    beta_r = tuple(
        tuple(trace.receiver_residual[t][j] / 4 for t in range(steps))
        for j in range(n)
    )
    return FractionCertificate(trace.instance.demands, alpha_s, beta_s, alpha_r, beta_r)


def replay_failures(instance, trace):
    """The first failure of the greedy run the trace's matchings replay from
    ``instance``: an empty matching or too many of them, a rate above its
    residual, a matching that is not maximal, or demand left unshipped."""
    if trace.instance != instance:
        return ["the trace does not follow from the instance"]
    if trace.early_failure:
        return [trace.early_failure]
    n = instance.n
    residuals = trace.residuals
    senders, receivers = trace.sender_residual, trace.receiver_residual
    for t, matching in enumerate(trace.matchings):
        before = residuals[t]
        for i, j, p in matching:
            if p > before[i][j]:
                return [f"step {t} ships more than the residual of ({i},{j})"]
        full_s = {i for i in range(n) if senders[t][i] - senders[t + 1][i] == 1}
        full_r = {j for j in range(n) if receivers[t][j] - receivers[t + 1][j] == 1}
        after = residuals[t + 1]
        for i in range(n):
            if i not in full_s:
                for j in range(n):
                    if after[i][j] and j not in full_r:
                        return [f"matching {t} is not maximal: ({i},{j}) could take more"]
    if any(x for row in residuals[-1] for x in row):
        return ["the matchings leave demand unshipped"]
    return []


def check_certificate(instance, trace, cert):
    """The trace against the instance, the certificate against the trace,
    dual feasibility and the half-of-greedy bound, on ``Fraction`` values.

    The certificate must be consistent (alpha_S[i][j] = 4 beta_S[i][0] and
    alpha_R[i][j] = 4 beta_R[j][0]) and its betas must be a quarter of the
    trace's residual sums; the objectives are recomputed from the matrices."""
    n = instance.n
    steps = len(trace.sender_residual)
    failures = replay_failures(instance, trace)
    alg = trace.total_completion
    shaped = lambda m, width: len(m) == n and all(len(row) == width for row in m)
    if not (shaped(cert.alpha_s, n) and shaped(cert.alpha_r, n)
            and shaped(cert.beta_s, steps) and shaped(cert.beta_r, steps)):
        failures.append("the certificate's scale or table shape does not match the trace")
        return CertificateReport(tuple(failures), alg, None)

    pairs = [(i, j) for i in range(n) for j in range(n)]
    bad = next(((i, j) for i, j in pairs if cert.alpha_s[i][j] != 4 * cert.beta_s[i][0]), None)
    if bad:
        failures.append(f"alpha_S[{bad[0]}][{bad[1]}] is not 4 beta_S[{bad[0]}][0]")
    bad = next(((i, j) for i, j in pairs if cert.alpha_r[i][j] != 4 * cert.beta_r[j][0]), None)
    if bad:
        failures.append(f"alpha_R[{bad[0]}][{bad[1]}] is not 4 beta_R[{bad[1]}][0]")
    for side, sums in (("S", trace.sender_residual), ("R", trace.receiver_residual)):
        alpha, beta = (cert.alpha_s, cert.beta_s) if side == "S" else (cert.alpha_r, cert.beta_r)
        for i in range(n):
            t = next((t for t in range(steps) if 4 * beta[i][t] != sums[t][i]), None)
            if t is not None:
                failures.append(f"beta_{side}[{i}][{t}] does not match the trace")
                break
        violation = next((
            (i, t) for i in range(n) for t in range(steps) for j in range(n)
            if (alpha[i][j] if side == "S" else alpha[j][i]) - t > 4 * beta[i][t]
        ), None)
        if violation:
            failures.append(f"D{side} infeasible at (i={violation[0]}, t={violation[1]})")

    obj_sum = cert.obj_ds + cert.obj_dr
    if 2 * obj_sum < alg:
        failures.append(
            f"dual objective sum {obj_sum} below half of greedy value {alg}"
        )
    return CertificateReport(
        failures=tuple(failures),
        total_completion=alg,
        obj_sum=obj_sum,
    )
