"""Direct schedulers: greedy maximal matchings, edge-coloring, smearing."""

import json
import random
from fractions import Fraction as F

import numpy as np
import pytest
import reference_greedy
from hypothesis import given, settings, strategies as st

from coflow.certificates import build_certificate, check_certificate
from coflow.direct import (
    GreedyTrace,
    _matching_fault,
    edge_coloring_schedule,
    greedy_schedule,
    smeared_fractional_schedule,
)
from coflow.errors import StructuralError
from coflow.generators import FAMILIES, generate
from coflow.model import (
    Schedule, compute_metrics, int_column, make_instance, uniform_instance,
)
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


@pytest.mark.parametrize("order", reference_greedy.ORDERS)
def test_greedy_orders_all_finish(order):
    inst = random_instance(7)
    trace = reference_greedy.greedy_trace(inst, order, 0)
    assert all(x == 0 for row in trace.residuals[-1] for x in row)
    assert verify(inst, trace.schedule).feasible


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
    assert again == trace
    assert again.residuals == trace.residuals
    assert again.matchings == trace.matchings
    assert again.total_completion == trace.total_completion


def test_trace_document():
    inst = make_instance(3, [[0, F(1, 2), 0], [0, 0, 1], [F(1, 3), 0, 0]])
    _, trace = greedy_schedule(inst)
    assert trace.to_json() == {
        "format": "coflow-trace-v1", "n": 3, "scale": 6, "counts": [3],
        "from": [0, 1, 2], "to": [1, 2, 0], "rate": [3, 6, 2],
    }
    # Rates over a multiple of the lowest scale are reduced to it, and the
    # trace's scale is the lcm of it and the instance's denominator.
    doc = {"format": "coflow-trace-v1", "n": 3, "scale": 12, "counts": [3],
           "from": [0, 1, 2], "to": [1, 2, 0], "rate": [6, 12, 4]}
    assert GreedyTrace.from_json(doc, inst) == trace
    half = make_instance(2, [[0, F(1, 2)], [0, 0]])
    doc = {"format": "coflow-trace-v1", "n": 2, "scale": 3, "counts": [1, 1],
           "from": [0, 0], "to": [1, 1], "rate": [1, 1]}
    again = GreedyTrace.from_json(doc, half)
    assert again == reference_greedy.integer_trace(half, (((0, 1, F(1, 3)),),) * 2)
    assert (again.scale, again.schedule.scale) == (6, 3)
    assert again.matchings == (((0, 1, 2),), ((0, 1, 2),))


def trace_instances():
    rng = random.Random(5)
    primes = [p for p in range(100, 1000) if all(p % k for k in range(2, 32))]
    wide = make_instance(12, [
        [F(0) if i == j or rng.random() < 0.5 else F(rng.randint(1, 13), rng.choice(primes))
         for j in range(12)] for i in range(12)
    ])
    return [random_instance(seed) for seed in range(8)] + [uniform_instance(8, F(7, 3)), wide]


@pytest.mark.parametrize("order", reference_greedy.ORDERS)
def test_traces_round_trip_through_both_documents(order):
    for inst in trace_instances():
        trace = reference_greedy.greedy_trace(inst, order, 3)
        again = GreedyTrace.from_json(json.loads(json.dumps(trace.to_json())), inst)
        assert again == trace
        want = reference_greedy.FractionTrace(inst, reference_greedy.fraction_matchings(trace))
        assert GreedyTrace.from_json(json.loads(json.dumps(want.to_json())), inst) == trace
        assert again.residuals == want.residuals


def test_residual_views_share_their_entries():
    inst = trace_instances()[-1]
    _, a = greedy_schedule(inst)
    b = GreedyTrace.from_json(json.loads(json.dumps(a.to_json())), inst)
    view_a, view_b = a.residuals, b.residuals
    assert view_a is not view_b
    assert all(
        x is y
        for t in range(a.horizon + 1)
        for row_a, row_b in zip(view_a[t], view_b[t])
        for x, y in zip(row_a, row_b)
    )
    assert view_a[0] == inst.demands
    assert all(x is y for row, want in zip(view_a[0], inst.demands) for x, y in zip(row, want))
    # Another run of the instance starts from the same entries.
    c = reference_greedy.greedy_trace(inst, "residual")
    assert c.residuals[0][0][1] is view_a[0][0][1]


def matching_cases(n_max, matchings_max, rows_max):
    """(n, matchings, cap): up to ``matchings_max`` matchings of up to
    ``rows_max`` random (sender, receiver, rate) triples on n <= n_max nodes."""
    return st.integers(2, n_max).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(-1, 4)), max_size=rows_max),
                 max_size=matchings_max),
        st.integers(1, 4),
    ))


@settings(max_examples=300, deadline=None)
@given(st.one_of(matching_cases(4, 3, 8),
                 # More (matching, node) cells than rows: mostly empty matchings.
                 matching_cases(40, 24, 2)),
       st.sampled_from((1, 2**70)))
def test_numpy_matching_pass_agrees_with_the_matching_check(case, factor):
    # The one-pass check names the fault the per-matching walk meets first;
    # rates and cap times 2**70 take the pass onto Python ints.
    n, matchings, cap = case
    rows = [x for m in matchings for x in m]
    counts = list(map(len, matchings))
    senders, receivers, rates = ([x[k] for x in rows] for k in range(3))
    rates = [p * factor for p in rates]
    want = None
    try:
        bounds = [0, *np.cumsum(counts).tolist()]
        for a, b in zip(bounds, bounds[1:]):
            reference_greedy.check_matching(
                senders[a:b], receivers[a:b], rates[a:b], n, cap * factor
            )
    except StructuralError as exc:
        want = str(exc)
    step = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    columns = (np.array(senders, np.int64), np.array(receivers, np.int64), int_column(rates))
    assert _matching_fault(step, *columns, n, cap * factor) == want


def test_greedy_trace_holds_its_schedule():
    inst = random_instance(4)
    sched, trace = greedy_schedule(inst)
    assert trace.schedule is sched
    assert trace.horizon == sched.horizon
    assert trace.scale == sched.scale == inst.scaled_demands[1]


def test_trace_refuses_a_node_outside_the_instance():
    # A trace built in code is checked as a trace file is: receiver -2 on
    # n=3 would wrap into receiver 1's sums.
    inst = make_instance(3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    sched, _ = greedy_schedule(inst)
    dst = sched.dst.copy()
    dst[1] = -2
    forged = Schedule(3, sched.counts, sched.src, dst, sched.src, dst, sched.amount, sched.scale)
    with pytest.raises(StructuralError, match=r"^matching 0: node outside 0\.\.2 in \(1,-2\)$"):
        GreedyTrace(inst, forged)


def test_trace_built_in_code_is_checked_as_a_trace_file_is():
    # Step 1 ships 0 -> 1 and 0 -> 2 at 3/4 each: node 0 sends 3/2, so the
    # step is not a fractional matching, built in code or read from a file.
    inst = make_instance(5, [[0, F(3, 4), F(3, 4), 0, 0], [0] * 5, [0] * 5,
                             [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    matchings = (((3, 1, F(1)), (4, 2, F(1))), ((0, 1, F(3, 4)), (0, 2, F(3, 4))))
    with pytest.raises(StructuralError, match="^node 0 exceeds matching cap 1$"):
        reference_greedy.integer_trace(inst, matchings)
    doc = {"format": "coflow-trace-v1", "n": 5, "scale": 4, "counts": [2, 2],
           "from": [3, 4, 0, 0], "to": [1, 2, 1, 2], "rate": [4, 4, 3, 3]}
    with pytest.raises(StructuralError, match="^node 0 exceeds matching cap 1$"):
        GreedyTrace.from_json(doc, inst)


def test_replay_fails_an_empty_matching_before_its_tables():
    # Greedy ships all of uniform n=3, B=3/2 (six demands of 1/2) in one
    # matching. An empty matching, wherever it is and however many there
    # are, fails the replay before it builds its (horizon x n) tables: the
    # sums, and so the certificate, stop at t = 0.
    inst = uniform_instance(3, F(3, 2))
    _, trace = greedy_schedule(inst)
    assert trace.to_json()["counts"] == [6]
    for counts in ([0, 6], [6, 0], [6] + [0] * 100_000):
        forged = GreedyTrace.from_json({**trace.to_json(), "counts": counts}, inst)
        replay = forged.replay
        assert replay.failure == f"matching {counts.index(0)} is empty"
        assert (len(replay.senders), len(replay.receivers)) == (1, 1)
        assert forged.total_completion == (counts.index(6) + 1) * 3
        report = check_certificate(inst, forged, build_certificate(forged))
        assert not report.ok and report.failures[0] == replay.failure


def test_replay_fails_more_matchings_than_the_total_demand_allows():
    # Every matching of a greedy run but its last ships at least 1, so a run
    # of total demand 1 has one matching; two of 1/2 each fail before the walk.
    inst = make_instance(2, [[0, 1], [0, 0]])
    forged = reference_greedy.integer_trace(inst, (((0, 1, F(1, 2)),),) * 2)
    assert forged.replay.failure == "more matchings than ceil(total demand) = 1"
    assert forged.total_completion == F(3, 2)
    assert len(build_certificate(forged).senders) == 1


@pytest.mark.parametrize("order", reference_greedy.ORDERS)
def test_trace_documents_read_back_as_the_run(order):
    # The last instance has prime denominators: its rates exceed int64.
    instances = [generate(family, 12, F(7, 3), seed=2) for family in FAMILIES]
    for inst in instances + trace_instances()[-1:]:
        trace = reference_greedy.greedy_trace(inst, order, 5)
        again = GreedyTrace.from_json(json.loads(json.dumps(trace.to_json())), inst)
        assert again == trace
        assert again.schedule.amount.dtype == trace.schedule.amount.dtype
    assert trace.schedule.amount.dtype == object


def test_prime_denominator_trace_replays_as_greedy():
    inst = trace_instances()[-1]
    _, trace = greedy_schedule(inst)
    again = GreedyTrace.from_json(json.loads(json.dumps(trace.to_json())), inst)
    assert again.replay.failure is None
    assert again.replay == trace.replay


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
