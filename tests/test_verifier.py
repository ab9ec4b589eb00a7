"""Verifier behavior: violation detection, demand accounting, and agreement
between the vectorized pass and the per-row reference loop."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_rows import schedule_from_steps
from reference_verify import verify as _reference_verify

from coflow import verifier
from coflow.direct import greedy_schedule
from coflow.errors import StructuralError
from coflow.indirect import auto_schedule, hypercube_schedule
from coflow.model import (
    INSTANCE_FORMAT,
    Instance,
    Transfer,
    common_scale,
    compute_metrics,
    make_instance,
    uniform_instance,
)
from coflow.verifier import verify


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


def test_leaving_the_destination_is_a_sink_violation():
    # (0, 1) reaches 1, leaves for 2 and comes back: conservation holds and
    # the demand is met, but the destination must absorb what reaches it.
    inst = make_instance(3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    sched = schedule_from_steps(
        3,
        [[Transfer(0, 1, 0, 1, F(1))], [Transfer(1, 2, 0, 1, F(1))],
         [Transfer(2, 1, 0, 1, F(1))]],
    )
    for check in (verify, _reference_verify):
        r = check(inst, sched)
        assert not r.feasible
        assert [(v.kind, v.step, v.where) for v in r.violations] == [
            ("sink", 1, (0, 1, 1))
        ]
        assert r.unmet_demand[0][1] == 0


def test_self_loop_and_bad_commodity():
    inst = uniform_instance(3, 3)
    r = verify(inst, schedule_from_steps(3, [[Transfer(1, 1, 0, 1, F(1, 2))]]))
    assert any(v.kind == "node_range" for v in r.violations)
    r = verify(inst, schedule_from_steps(3, [[Transfer(0, 1, 2, 2, F(1, 2))]]))
    assert any(v.kind == "commodity" for v in r.violations)


def test_out_of_range_nodes_fall_back_to_the_reference_loop():
    # Node ids outside 0..n-1 must not index the verifier's arrays: verify
    # reports them and metrics refuses them.
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
    report = verify(inst, hypercube_schedule(inst))
    assert report.is_integral and not report.is_direct
    g, _ = greedy_schedule(inst)
    report = verify(inst, g)
    assert report.is_direct and not report.is_integral  # fractional matchings split nodes


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


def test_node_ids_beyond_int64_are_reported():
    # The pass keeps node ids in int64 columns; ids that do not fit are out
    # of range, and must be reported rather than overflow the conversion.
    inst = uniform_instance(3, 3)
    huge = 2**70
    cases = [
        (Transfer(huge, 1, 0, 1, F(1, 2)), "node_range", (huge, 1)),
        (Transfer(0, -huge, 0, 1, F(1, 2)), "node_range", (0, -huge)),
        (Transfer(0, 1, -huge, 1, F(1, 2)), "commodity", (-huge, 1)),
        (Transfer(0, 1, 0, huge, F(1, 2)), "commodity", (0, huge)),
    ]
    for t, kind, where in cases:
        sched = schedule_from_steps(3, [[Transfer(0, 1, 0, 1, F(1, 3)), t]])
        r = verify(inst, sched)
        assert [(v.kind, v.step, v.where) for v in r.violations] == [(kind, 0, where)]
        assert r == _reference_verify(inst, sched)


# A prime above 2**64: amounts over multiples of it make the common
# denominator, and so the scaled amounts, too large for int64.
BIG_PRIME = 2**64 + 13
NODE = st.integers(-1, 4)  # n = 4, so -1 and 4 are out of range

small_amount_st = st.fractions(min_value=F(-1, 2), max_value=2, max_denominator=6)
big_amount_st = st.builds(
    lambda num, den: F(num, den * BIG_PRIME),
    st.integers(-BIG_PRIME, 2 * BIG_PRIME),
    st.integers(1, 6),
)
amount_st = st.one_of(st.just(F(0)), small_amount_st, big_amount_st)
transfer_st = st.builds(
    Transfer, src=NODE, dst=NODE, origin=NODE, dest=NODE, amount=amount_st
)
steps_st = st.lists(st.lists(transfer_st, max_size=8), max_size=5)


def _random_schedules(steps, seed, big_demands):
    """A random 4-node instance (small or beyond-int64 denominators) and the
    schedule of ``steps``."""
    rng = random.Random(seed)
    den = BIG_PRIME if big_demands else 1
    demands = [
        [F(rng.randint(0, 4), rng.randint(1, 4) * den) if i != j else F(0)
         for j in range(4)]
        for i in range(4)
    ]
    return make_instance(4, demands), schedule_from_steps(4, steps)


def _sorted_violations(report):
    return sorted(report.violations, key=lambda v: (v.step, v.kind, v.where, v.detail))


@settings(max_examples=150, deadline=None)
@given(
    steps=steps_st,
    seed=st.integers(0, 10**6),
    big_demands=st.booleans(),
)
def test_fast_and_reference_paths_agree(steps, seed, big_demands):
    inst, sched = _random_schedules(steps, seed, big_demands)
    fast = verify(inst, sched)
    ref = _reference_verify(inst, sched)
    assert _sorted_violations(fast) == _sorted_violations(ref)
    assert fast == ref  # the whole report, violations in the loop's order


@st.composite
def forged_schedules(draw):
    """A genuine schedule of a random instance (small or beyond-int64
    denominators), then a few of its rows forged: moved to another step,
    rerouted, resized or duplicated."""
    n = draw(st.integers(3, 6))
    rng = random.Random(draw(st.integers(0, 10**6)))
    den = BIG_PRIME if draw(st.booleans()) else 1
    demands = [
        [F(rng.randint(0, 3), rng.randint(1, 3) * den) if i != j else F(0) for j in range(n)]
        for i in range(n)
    ]
    demands[0][1] = demands[0][1] or F(1, den)
    inst = make_instance(n, demands)
    build = draw(st.sampled_from([hypercube_schedule, auto_schedule,
                                  lambda inst: greedy_schedule(inst)[0]]))
    steps = [list(step.transfers) for step in build(inst).steps]
    rows = [(s, k) for s, step in enumerate(steps) for k in range(len(step))]
    for _ in range(draw(st.integers(0, 3))):
        s, k = rows[draw(st.integers(0, len(rows) - 1))]
        t = steps[s][k]
        edit = draw(st.sampled_from(["move", "reroute", "resize", "duplicate"]))
        if edit == "move":
            steps[draw(st.integers(0, len(steps) - 1))].append(t)
            steps[s][k] = t._replace(amount=F(0))  # kept in place, reported as non-positive
        elif edit == "reroute":
            steps[s][k] = t._replace(dst=draw(st.integers(0, n - 1)))
        elif edit == "resize":
            steps[s][k] = t._replace(amount=t.amount * draw(st.sampled_from([F(1, 2), 2, -1])))
        else:
            steps[s].insert(k, t)
    return inst, schedule_from_steps(n, steps)


@settings(max_examples=150, deadline=None)
@given(
    case=st.one_of(
        forged_schedules(),
        st.builds(_random_schedules, steps_st, st.integers(0, 10**6), st.booleans()),
    ),
    batch=st.integers(1, 8),
)
def test_batched_conservation_agrees_with_the_reference(case, batch):
    # With batches of a few events, most batches hold one commodity, most
    # commodities span several BATCHes, and the cuts fall everywhere.
    inst, sched = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "BATCH", batch)
        fast = verify(inst, sched)
    assert fast == _reference_verify(inst, sched)  # violations in the loop's order


@pytest.mark.parametrize("big", [False, True])
def test_a_commodity_larger_than_a_batch(big, monkeypatch):
    # Commodity (0, 1) ships four rows of 1/8 a step over three steps: 24
    # events against a batch of 4, beside small commodities on either side,
    # and its demand of 1/2 is overdrawn from step 1 on.
    den = BIG_PRIME if big else 1
    inst = make_instance(3, [[0, F(1, 2 * den), F(1, 4 * den)], [F(1, 4 * den), 0, 0], [0, 0, 0]])
    eighth, quarter = F(1, 8 * den), F(1, 4 * den)
    steps = [
        [Transfer(0, 1, 0, 1, eighth)] * 4 + [Transfer(0, 2, 0, 2, quarter)],
        [Transfer(0, 1, 0, 1, eighth)] * 4 + [Transfer(1, 0, 1, 0, quarter)],
        [Transfer(0, 1, 0, 1, eighth)] * 4 + [Transfer(0, 2, 0, 2, quarter)],
    ]
    sched = schedule_from_steps(3, steps)
    monkeypatch.setattr(verifier, "BATCH", 4)
    rows = Counter((t.origin, t.dest) for step in sched.steps for t in step.transfers)
    assert 2 * max(rows.values()) > verifier.BATCH  # two balance events a row
    assert (common_scale(inst, sched)[1].dtype == object) is big
    report = verify(inst, sched)
    assert [(v.kind, v.step) for v in report.violations] == (
        [("conservation", 1)] * 4 + [("conservation", 2)] * 5
    )
    assert report == _reference_verify(inst, sched)


def test_verify_peak_stays_below_the_schedule():
    # Conservation's temporaries are bounded by a batch, so what verify holds
    # beyond a live VLB schedule stays below the schedule's own columns.
    inst = uniform_instance(64, 2)
    sched = auto_schedule(inst, nominal_load=F(2))
    columns = sum(c.nbytes for c in (sched.counts, sched.step, sched.src, sched.dst,
                                     sched.origin, sched.dest, sched.amount))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = verify(inst, sched)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.feasible
    assert peak < columns


def _sparse_instance(n, demands):
    """The n-node instance with demand d at each (i, j): d of ``demands``,
    and 0 elsewhere."""
    column = np.zeros(n * n, np.int64)
    for (i, j), d in demands.items():
        column[i * n + j] = d
    return Instance.from_json({"format": INSTANCE_FORMAT, "n": n, "scale": 1, "demands": column})


def test_conservation_keys_past_int32_stay_apart():
    # At n = 2048 the keys of (0, 1) and (1024, 1), (pair*n + node) with
    # pairs 1 and 2^21 + 1, differ by 2^32 at every node, and both pairs fall
    # in one batch. (1024, 1) relays through node 5; (0, 1) leaves node 5,
    # where it holds none, before that relay moves on. In int32 the relay's
    # arrival would pay for the forged row.
    n = 2048
    inst = _sparse_instance(n, {(0, 1): 1, (1024, 1): 1})
    sched = schedule_from_steps(n, [
        [Transfer(1024, 5, 1024, 1, F(1))],
        [Transfer(5, 1, 0, 1, F(1))],
        [Transfer(5, 1, 1024, 1, F(1))],
    ])
    report = verify(inst, sched)
    assert [(v.kind, v.step, v.where) for v in report.violations] == [
        ("conservation", 1, (0, 1, 5))]
    # The unmet demand compares as columns: no n x n Fraction view is built.
    assert report == _reference_verify(inst, sched)
    assert "unmet_demand" not in vars(report)


def test_edge_keys_past_int32_keep_their_step():
    # At n = 1024 a row in step 2100 has the edge key (2100*n + src)*n + dst
    # above 2^31: its capacity and node-rate records keep step 2100, after
    # those of step 0.
    n = 1024
    inst = _sparse_instance(n, {(0, 1): 2, (0, 2): 1, (3, 4): 2})
    steps = [[] for _ in range(2101)]
    steps[0] = [Transfer(3, 4, 3, 4, F(1)), Transfer(3, 4, 3, 4, F(1))]
    steps[2100] = [Transfer(0, 1, 0, 1, F(1)), Transfer(0, 2, 0, 2, F(1)),
                   Transfer(0, 1, 0, 1, F(1))]
    sched = schedule_from_steps(n, steps)
    assert (2100 * n + 0) * n + 1 > 2**31
    report = verify(inst, sched)
    assert [(v.kind, v.step, v.where) for v in report.violations] == [
        ("capacity", 0, (3, 4)), ("node_rate", 0, (3,)), ("node_rate", 0, (4,)),
        ("capacity", 2100, (0, 1)), ("node_rate", 2100, (0,)), ("node_rate", 2100, (1,)),
    ]
    assert report == _reference_verify(inst, sched)
