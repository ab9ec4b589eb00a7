"""Acceptance checks: guarantees and worst-case formulas, exact where stated.

Collected in one module so the headline claims are auditable in one place.
Everything is exact rational arithmetic except wall-clock budgets.
"""

import time
from fractions import Fraction as F
from math import lcm, log2

import pytest

from conftest import corpus_instance, corpus_runs, CORPUS_SIZE
from coflow.certificates import build_certificate, check_certificate, lower_bounds
from coflow.direct import edge_coloring_schedule, greedy_schedule
from coflow.generators import random_sparse_instance
from coflow.indirect import (
    elementary_basis_schedule,
    grid_schedule,
    hypercube_schedule,
    round_robin_schedule,
    vlb_lift,
)
from coflow.model import compute_metrics, make_instance, uniform_instance
from coflow.verifier import verify

import random


def _feasible_metrics(instance, schedule):
    report = verify(instance, schedule)
    assert report.feasible, report.violations[:3]
    assert report.max_edge_load <= 1
    return compute_metrics(instance, schedule)


# --- Theorem: greedy is a 16-approximation for direct fractional routing ---


def test_greedy_sixteen_approximation_corpus():
    start = time.monotonic()
    corpus_runs.cache_clear()
    runs = corpus_runs()
    elapsed = time.monotonic() - start
    assert len(runs) >= 200
    worst = F(0)
    for inst, trace, opt_direct, _, _ in runs:
        assert opt_direct > 0
        ratio = trace.total_completion / opt_direct
        assert ratio <= 16  # exact rational comparison
        worst = max(worst, ratio)
    assert worst < 8  # far from the proven constant in practice
    assert elapsed < 120


def test_dual_certificates_on_corpus():
    # Feasibility of both duals and weak duality hold on every run as-is.
    # The half-of-greedy bound needs the model's integer-demand premise, so
    # it is checked on the lcm-rescaled runs (see the two-line scale below);
    # sub-unit counterexample: demands [[0,1/4],[0,0]].
    for inst, trace, _, opt_s, opt_r in corpus_runs():
        cert = build_certificate(trace)
        report = check_certificate(inst, trace, cert)
        assert not any("infeasible" in f for f in report.failures)
        assert cert.obj_ds <= opt_s  # weak duality, exact
        assert cert.obj_dr <= opt_r
    for k in range(CORPUS_SIZE):
        inst = corpus_instance(k)
        scale = lcm(*{x.denominator for row in inst.demands for x in row})
        scaled = make_instance(inst.n, [[x * scale for x in row] for row in inst.demands])
        _, trace = greedy_schedule(scaled)
        report = check_certificate(scaled, trace, build_certificate(trace))
        assert report.ok, report.failures
        assert 2 * report.obj_sum >= report.total_completion


def test_relaxation_chain_on_corpus():
    # Capped one-sided relaxations cost at most 4x the direct optimum.
    for _, _, opt_direct, opt_s, opt_r in corpus_runs():
        assert opt_s <= 4 * opt_direct
        assert opt_r <= 4 * opt_direct


# --- Worst-case makespan regimes on uniform demands ---


def test_hypercube_regime_through_n_1024():
    start = time.monotonic()
    for exp in range(1, 11):
        n = 2**exp
        inst = uniform_instance(n, F(2))
        metrics = _feasible_metrics(inst, hypercube_schedule(inst))
        assert metrics.makespan == exp  # log2(n), exactly the lower bound
        assert lower_bounds(n, F(2)).log_lb == exp
    assert time.monotonic() - start < 60


ELEMENTARY_CASES = [(16, 4, 2), (81, 3, 4), (256, 4, 4), (1024, 32, 2)]


@pytest.mark.parametrize("n,b,d", ELEMENTARY_CASES)
def test_elementary_basis_regime(n, b, d):
    q = round(n ** (1 / d))
    assert q**d == n
    inst = uniform_instance(n, F(b))
    sched = elementary_basis_schedule(inst, nominal_load=F(b))
    metrics = _feasible_metrics(inst, sched)
    expected = d * (q - 1) * -(-b // q)
    assert metrics.makespan == expected
    assert metrics.makespan <= 2 * b * (log2(n) / log2(b) + 1)


@pytest.mark.parametrize("n,b", [(4, 8), (8, 64)])
def test_round_robin_regime(n, b):
    inst = uniform_instance(n, F(b))
    metrics = _feasible_metrics(inst, round_robin_schedule(inst, nominal_load=F(b)))
    assert metrics.makespan == (n - 1) * (b // n)
    assert metrics.makespan <= 2 * b


def test_vlb_doubles_makespan_on_random_instances():
    rng = random.Random(7)
    checked = 0
    for _ in range(50):
        if rng.random() < 0.5:
            n = rng.choice([4, 8, 16])
            load = rng.choice([F(1), F(3, 2), F(2)])
            base, base_horizon = "hypercube", round(log2(n))
        else:
            n, load = rng.choice([(9, F(3)), (16, F(4)), (27, F(3))])
            q = 3 if n in (9, 27) else 4
            d = {9: 2, 27: 3, 16: 2}[n]
            base, base_horizon = "elementary-basis", d * (q - 1)
        inst = random_sparse_instance(n, load, seed=rng.randrange(10**6))
        metrics = _feasible_metrics(inst, vlb_lift(inst, nominal_load=load))
        assert metrics.makespan == 2 * base_horizon
        checked += 1
    assert checked == 50


def test_grid_scheme_phases_and_boundary():
    # The grid is the two-digit elementary basis: at n=9, radix 3, the low
    # digit shifts by 1 and 2, then the high digit by 3 and 6.
    inst = make_instance(
        9, [[F(0) if i == j else F(1, 54) for j in range(9)] for i in range(9)]
    )
    sched = grid_schedule(inst)
    metrics = _feasible_metrics(inst, sched)
    assert metrics.makespan == 4
    for s, step in enumerate(sched.steps):
        for t in step.transfers:
            assert (t.dst - t.src) % 9 == [1, 2, 3, 6][s]
    boundary = make_instance(
        9, [[F(0) if i == j else F(1, 3) for j in range(9)] for i in range(9)]
    )
    bm = _feasible_metrics(boundary, grid_schedule(boundary))
    assert bm.makespan == 4


def test_edge_coloring_hits_degree_bound():
    for trial in range(100):
        rng = random.Random(5000 + trial)
        n = rng.randint(2, 8)
        demands = [
            [
                F(rng.randint(1, 4)) if i != j and rng.random() < 0.5 else F(0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        if not any(x > 0 for row in demands for x in row):
            demands[0][1] = F(2)
        inst = make_instance(n, demands)
        sched = edge_coloring_schedule(inst)
        metrics = _feasible_metrics(inst, sched)
        degree = max(
            max(sum(row) for row in demands),
            max(sum(demands[i][j] for i in range(n)) for j in range(n)),
        )
        assert metrics.makespan == degree
        report = verify(inst, sched)
        assert report.is_direct and report.is_integral


def test_schedules_respect_computed_lower_bounds():
    # ceil of the actual load and the log2 reachability bound hold for every
    # feasible uniform-demand schedule above.
    cases = [
        (uniform_instance(64, F(2)), hypercube_schedule),
        (uniform_instance(81, F(3)), lambda i: elementary_basis_schedule(i, nominal_load=F(3))),
        (uniform_instance(8, F(64)), lambda i: round_robin_schedule(i, nominal_load=F(64))),
        (uniform_instance(9, F(1)), grid_schedule),
    ]
    for inst, build in cases:
        metrics = _feasible_metrics(inst, build(inst))
        mk = metrics.makespan
        ceil_load = -((-inst.load_bound.numerator) // inst.load_bound.denominator)
        assert mk >= ceil_load
        assert 2**mk >= inst.n  # data from one source reaches <= 2^T nodes
        bounds = lower_bounds(inst.n, inst.load_bound)
        assert mk >= bounds.log_lb or inst.load_bound >= inst.n
