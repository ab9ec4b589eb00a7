"""Verifier behavior: violation detection, demand accounting, and agreement
between the vectorized fast path and the pure-Python reference loop."""

import random
from fractions import Fraction as F

import coflow.verifier
import pytest
from hypothesis import given, settings, strategies as st

from coflow.direct import greedy_schedule
from coflow.errors import StructuralError
from coflow.indirect import hypercube_schedule
from coflow.model import (
    Transfer,
    compute_metrics,
    make_instance,
    schedule_from_steps,
    uniform_instance,
)
from coflow.verifier import classify, verify


def _reference_verify(instance, schedule):
    """Force the fallback loop (the semantic source of truth)."""
    old = coflow.verifier._fast_verify
    coflow.verifier._fast_verify = lambda *a, **k: None
    try:
        return verify(instance, schedule)
    finally:
        coflow.verifier._fast_verify = old


def test_feasible_direct_schedule():
    inst = make_instance(2, [[0, F(3, 2)], [0, 0]])
    sched = schedule_from_steps(
        2, [[Transfer(0, 1, 0, 1, F(1))], [Transfer(0, 1, 0, 1, F(1, 2))]]
    )
    r = verify(inst, sched)
    assert r.feasible
    assert not r.violations
    assert r.max_edge_load == F(1)
    assert r.is_direct and r.is_integral
    assert all(x == 0 for row in r.unmet_demand for x in row)


def test_unmet_demand_reported():
    inst = make_instance(2, [[0, 1], [0, 0]])
    sched = schedule_from_steps(1, [[Transfer(0, 1, 0, 1, F(1, 4))]])
    r = verify(inst, sched)
    assert not r.feasible
    assert not r.violations  # under-delivery is not a violation
    assert r.unmet_demand[0][1] == F(3, 4)


def test_capacity_violation():
    inst = make_instance(2, [[0, 2], [0, 0]])
    sched = schedule_from_steps(1, [[Transfer(0, 1, 0, 1, F(3, 2))]])
    r = verify(inst, sched)
    assert not r.feasible
    assert any(v.kind == "capacity" for v in r.violations)
    assert r.max_edge_load == F(3, 2)


def test_node_rate_violation_across_edges():
    inst = uniform_instance(3, 2)
    sched = schedule_from_steps(
        3, [[Transfer(0, 1, 0, 1, F(2, 3)), Transfer(0, 2, 0, 2, F(2, 3))]]
    )
    r = verify(inst, sched)
    assert any(v.kind == "node_rate" for v in r.violations)
    assert not r.is_integral


def test_conservation_violation_teleport():
    # (2,3) data arrives at node 3 only at time 1, so it cannot leave 3
    # during step 0; leaving at step 1 is fine.
    inst = uniform_instance(4, 4)
    bad = schedule_from_steps(
        4,
        [
            [Transfer(2, 3, 2, 1, F(1, 2)), Transfer(3, 1, 2, 1, F(1, 2))],
        ],
    )
    r = verify(inst, bad)
    assert any(v.kind == "conservation" for v in r.violations)
    good = schedule_from_steps(
        4,
        [
            [Transfer(2, 3, 2, 1, F(1, 2))],
            [Transfer(3, 1, 2, 1, F(1, 2))],
        ],
    )
    assert not verify(inst, good).violations  # partial delivery, no violation


def test_self_loop_and_bad_commodity():
    inst = uniform_instance(3, 3)
    r = verify(inst, schedule_from_steps(3, [[Transfer(1, 1, 0, 1, F(1, 2))]]))
    assert any(v.kind == "node_range" for v in r.violations)
    r = verify(inst, schedule_from_steps(3, [[Transfer(0, 1, 2, 2, F(1, 2))]]))
    assert any(v.kind == "commodity" for v in r.violations)


def test_out_of_range_nodes_fall_back_to_the_reference_loop():
    # Node ids outside 0..n-1 would index the int64 path's arrays out of
    # place; both int64 paths must refuse them so the exact loops report.
    inst = uniform_instance(3, 3)
    for t in (Transfer(0, 3, 0, 1, F(1, 2)), Transfer(-1, 1, 0, 1, F(1, 2))):
        r = verify(inst, schedule_from_steps(3, [[t]]))
        assert any(v.kind == "node_range" for v in r.violations)
        with pytest.raises(StructuralError):
            compute_metrics(inst, schedule_from_steps(3, [[t]]))
    bad_dest = schedule_from_steps(3, [[Transfer(0, 1, 0, 3, F(1, 2))]])
    assert any(v.kind == "commodity" for v in verify(inst, bad_dest).violations)
    with pytest.raises(StructuralError):
        compute_metrics(inst, bad_dest)


def test_empty_schedule_on_zero_demand_instance():
    inst = make_instance(2, [[0, 1], [0, 0]])
    r = verify(inst, schedule_from_steps(2, []))
    assert not r.feasible
    assert r.unmet_demand[0][1] == F(1)


def test_shipping_more_than_demand_breaks_conservation():
    # the origin only ever holds its demand, so over-shipping drains it negative
    inst = make_instance(2, [[0, F(1, 2)], [0, 0]])
    sched = schedule_from_steps(1, [[Transfer(0, 1, 0, 1, F(1))]])
    r = verify(inst, sched)
    assert any(v.kind == "conservation" for v in r.violations)


def test_classify_quadrants():
    inst = uniform_instance(4, 2)
    sched = hypercube_schedule(inst)
    direct, integral = classify(sched)
    assert integral and not direct
    g, _ = greedy_schedule(inst)
    direct, integral = classify(g)
    assert direct and not integral  # fractional matchings split nodes


def test_report_json_shape():
    inst = make_instance(2, [[0, 1], [0, 0]])
    r = verify(inst, schedule_from_steps(1, [[Transfer(0, 1, 0, 1, F(1))]]))
    obj = r.to_json()
    assert obj["feasible"] is True
    assert obj["max_edge_load"] == "1"
    assert obj["violations"] == []


def test_fast_path_taken_for_large_clean_schedule():
    inst = uniform_instance(16, 2)
    sched = hypercube_schedule(inst)
    fast = verify(inst, sched)
    ref = _reference_verify(inst, sched)
    assert fast == ref


def test_big_denominators_fall_back_exactly():
    # amounts with a ~2**70 common denominator exceed the int64 guard
    big = F(1, 2**70 + 1)
    inst = make_instance(2, [[0, 2 * big], [0, 0]])
    sched = schedule_from_steps(
        2, [[Transfer(0, 1, 0, 1, big)], [Transfer(0, 1, 0, 1, big)]]
    )
    r = verify(inst, sched)
    assert r.feasible and r.max_edge_load == big


transfer_st = st.builds(
    Transfer,
    src=st.integers(0, 3),
    dst=st.integers(0, 3),
    origin=st.integers(0, 3),
    dest=st.integers(0, 3),
    amount=st.fractions(min_value=F(1, 6), max_value=2, max_denominator=6),
)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.lists(transfer_st, max_size=6), min_size=1, max_size=4),
    seed=st.integers(0, 10**6),
)
def test_fast_and_reference_paths_agree(steps, seed):
    rng = random.Random(seed)
    demands = [
        [F(rng.randint(0, 4), rng.randint(1, 4)) if i != j else F(0) for j in range(4)]
        for i in range(4)
    ]
    inst = make_instance(4, demands)
    sched = schedule_from_steps(4, steps)
    fast = verify(inst, sched)
    ref = _reference_verify(inst, sched)
    assert fast.feasible == ref.feasible
    assert fast.max_edge_load == ref.max_edge_load
    assert fast.unmet_demand == ref.unmet_demand
    assert fast.is_integral == ref.is_integral
    assert fast.is_direct == ref.is_direct
    if fast.feasible:
        assert fast.violations == ref.violations == ()
