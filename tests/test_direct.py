"""Direct schedulers: greedy maximal matchings, edge-coloring, smearing."""

import random
from fractions import Fraction as F

import pytest
import reference_greedy
from hypothesis import given, settings, strategies as st

from coflow.direct import (
    ORDER_CHOICES,
    GreedyTrace,
    edge_coloring_schedule,
    greedy_schedule,
    smeared_fractional_schedule,
)
from coflow.model import compute_metrics, make_instance, uniform_instance
from coflow.verifier import verify


def random_instance(seed, n_max=5, int_only=False):
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    while True:
        demands = [
            [
                (
                    F(rng.randint(1, 3))
                    if int_only
                    else F(rng.randint(1, 6), rng.randint(1, 4))
                )
                if i != j and rng.random() < 0.6
                else F(0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        if any(x > 0 for row in demands for x in row):
            return make_instance(n, demands)


def test_greedy_two_node_residual_trace():
    inst = make_instance(2, [[0, F(3, 2)], [0, 0]])
    sched, trace = greedy_schedule(inst)
    assert trace.horizon == 2
    assert trace.residuals[0][0][1] == F(3, 2)
    assert trace.residuals[1][0][1] == F(1, 2)
    assert trace.residuals[2][0][1] == F(0)
    assert trace.total_completion == F(2)  # 1*1 + 2*(1/2)
    assert compute_metrics(inst, sched).total_completion == F(2)
    assert verify(inst, sched).feasible


def test_greedy_is_direct():
    inst = uniform_instance(4, 3)
    sched, _ = greedy_schedule(inst)
    report = verify(inst, sched)
    assert report.is_direct
    assert report.feasible


@pytest.mark.parametrize("order", ORDER_CHOICES)
def test_greedy_orders_all_finish(order):
    inst = random_instance(7)
    sched, trace = greedy_schedule(inst, order=order, seed=0)
    assert all(x == 0 for row in trace.residuals[-1] for x in row)
    assert verify(inst, sched).feasible


def test_greedy_random_order_reproducible():
    inst = random_instance(11)
    a, _ = greedy_schedule(inst, order="random", seed=42)
    b, _ = greedy_schedule(inst, order="random", seed=42)
    assert a == b


def test_matching_is_maximal():
    # any pair left short by the first matching must have a saturated endpoint
    for seed in range(30):
        inst = random_instance(seed)
        n = inst.n
        _, trace = greedy_schedule(inst)
        sent = [F(0)] * n
        recv = [F(0)] * n
        got = {}
        for i, j, p in reference_greedy.fraction_matchings(trace)[0]:
            sent[i] += p
            recv[j] += p
            got[(i, j)] = p
        assert max(sent + recv) <= 1
        for i, j, d in inst.commodities():
            if got.get((i, j), F(0)) < min(d, F(1)):
                assert sent[i] == 1 or recv[j] == 1


def test_trace_json_round_trip():
    inst = random_instance(3)
    _, trace = greedy_schedule(inst)
    again = GreedyTrace.from_json(trace.to_json(), inst)
    assert again.residuals == trace.residuals
    assert again.matchings == trace.matchings
    assert again.total_completion == trace.total_completion


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_greedy_progress_every_step(seed):
    # maximality means a nonempty residual always yields a nonempty matching
    inst = random_instance(seed)
    _, trace = greedy_schedule(inst)
    for t, m in enumerate(trace.matchings):
        assert sum(p for _, _, p in m) > 0
        assert any(x > 0 for row in trace.residuals[t] for x in row)


def test_edge_coloring_schedule_integral_and_tight():
    for seed in range(25):
        inst = random_instance(seed, n_max=8, int_only=True)
        sched = edge_coloring_schedule(inst)
        r = verify(inst, sched)
        assert r.feasible
        assert r.is_integral and r.is_direct
        # makespan equals the multigraph degree: max over nodes of
        # ceil-demand row/column sums
        ceil_rows = [
            sum(-((-d.numerator) // d.denominator) for d in row)
            for row in inst.demands
        ]
        ceil_cols = [
            sum(
                -((-inst.demands[i][j].numerator) // inst.demands[i][j].denominator)
                for i in range(inst.n)
            )
            for j in range(inst.n)
        ]
        delta = max(ceil_rows + ceil_cols)
        assert compute_metrics(inst, sched).makespan == delta


def test_smeared_schedule_flat_and_tight():
    inst = uniform_instance(4, 2)
    sched = smeared_fractional_schedule(inst)
    r = verify(inst, sched)
    assert r.feasible and r.is_direct and not r.is_integral
    m = compute_metrics(inst, sched)
    assert m.makespan == 2  # ceil(B)
    # every step ships D/T of every commodity: load is exactly B'/T each step
    assert r.max_edge_load == F(1, 4)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_smeared_feasible_on_random_instances(seed):
    inst = random_instance(seed)
    sched = smeared_fractional_schedule(inst)
    r = verify(inst, sched)
    assert r.feasible
    assert r.max_edge_load <= 1
