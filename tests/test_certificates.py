"""Dual certificates for greedy runs, worst-case bounds, and gap reports."""

from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest

from coflow.certificates import (
    build_certificate,
    check_certificate,
    compare,
    lower_bounds,
    path_count_feasible,
)
from coflow.direct import GreedyTrace, greedy_schedule
from coflow.errors import StructuralError
from coflow.model import FractionalMatching, make_instance, uniform_instance
from coflow.indirect import hypercube_schedule


def test_two_node_certificate_values():
    inst = make_instance(2, [[F(0), F(3, 2)], [F(0), F(0)]])
    _, trace = greedy_schedule(inst)
    cert = build_certificate(trace)
    assert cert.beta_s[0] == (F(3, 8), F(1, 8), F(0))
    assert cert.alpha_s[0] == (F(3, 2), F(3, 2))
    assert cert.obj_ds == F(7, 4)
    assert cert.obj_dr == F(7, 4)
    report = check_certificate(inst, trace, cert)
    assert report.ok
    assert report.total_completion == 2
    assert report.obj_sum == F(7, 2)


def test_dual_feasibility_and_weak_duality_on_corpus(tiny_corpus):
    # alpha - t <= 4*beta always holds (residuals drop at most 1 per step),
    # and the dual objectives never exceed the matching LP optima. The
    # half-of-greedy bound is NOT asserted here: it needs integer demands.
    for inst, trace, _, opt_s, opt_r in tiny_corpus:
        cert = build_certificate(trace)
        report = check_certificate(inst, trace, cert)
        assert not any("infeasible" in f for f in report.failures)
        assert cert.obj_ds <= opt_s
        assert cert.obj_dr <= opt_r


def test_half_bound_holds_on_integer_rescaled_corpus(tiny_corpus):
    # Rescaling time so demands are integers restores the half-of-greedy
    # guarantee; the whole certificate then checks out exactly.
    for inst, _, _, _, _ in tiny_corpus:
        scale = lcm(*{x.denominator for row in inst.demands for x in row})
        scaled = make_instance(
            inst.n, [[x * scale for x in row] for row in inst.demands]
        )
        _, trace = greedy_schedule(scaled)
        report = check_certificate(scaled, trace, build_certificate(trace))
        assert report.ok, report.failures
        assert 2 * report.obj_sum >= report.total_completion


def test_sub_unit_demands_break_half_bound():
    # With a demand below one unit nothing can complete before time 1, so
    # the dual objective cannot cover half the greedy value; the checker
    # reports that honestly. The integer-rescaled run passes.
    inst = make_instance(2, [[F(0), F(1, 4)], [F(0), F(0)]])
    _, trace = greedy_schedule(inst)
    report = check_certificate(inst, trace, build_certificate(trace))
    assert not report.ok
    assert report.obj_sum == 0
    assert report.total_completion == F(1, 4)
    scaled = make_instance(2, [[F(0), F(1)], [F(0), F(0)]])
    _, strace = greedy_schedule(scaled)
    sreport = check_certificate(scaled, strace, build_certificate(strace))
    assert sreport.ok


def test_perturbed_certificate_is_rejected():
    inst = make_instance(2, [[F(0), F(3, 2)], [F(0), F(0)]])
    _, trace = greedy_schedule(inst)
    cert = build_certificate(trace)
    bad = replace(cert, beta_s=((F(0), F(0), F(0)), cert.beta_s[1]))
    report = check_certificate(inst, trace, bad)
    assert not report.ok
    assert any("DS infeasible" in f or "beta_S" in f for f in report.failures)


def test_incomplete_trace_rejected():
    inst = make_instance(2, [[F(0), F(1)], [F(0), F(0)]])
    _, trace = greedy_schedule(inst)
    truncated = replace(trace, residuals=trace.residuals[:1])
    with pytest.raises(StructuralError):
        build_certificate(truncated)


def test_trace_not_following_the_instance_is_rejected():
    inst = make_instance(3, [[F(0), F(1), F(1, 2)], [F(0), F(0), F(1)], [F(0)] * 3])
    _, trace = greedy_schedule(inst)
    assert check_certificate(inst, trace, build_certificate(trace)).ok
    # Same trace, a different instance: the residuals no longer follow.
    other = make_instance(3, [[F(0), F(1), F(1)], [F(0), F(0), F(1)], [F(0)] * 3])
    report = check_certificate(other, trace, build_certificate(trace))
    assert not report.ok
    assert any("does not follow" in f for f in report.failures)


def test_non_maximal_matching_is_rejected():
    # Shipping (0,1) and (1,2) one step at a time is feasible but not
    # maximal: both pairs fit into the first matching.
    inst = make_instance(3, [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0)] * 3])
    _, trace = greedy_schedule(inst)
    assert trace.horizon == 1
    first = FractionalMatching(((0, 1, F(1)),))
    second = FractionalMatching(((1, 2, F(1)),))
    mid = ((F(0), F(0), F(0)), (F(0), F(0), F(1)), (F(0),) * 3)
    slow = GreedyTrace.from_json(
        {"residuals": [[[str(x) for x in row] for row in m]
                       for m in (inst.demands, mid, ((F(0),) * 3,) * 3)],
         "matchings": [[[s, r, str(p)] for s, r, p in m.triples]
                       for m in (first, second)]},
        inst,
    )
    report = check_certificate(inst, slow, build_certificate(slow))
    assert not report.ok
    assert any("not maximal" in f for f in report.failures)


def test_unfinished_or_overshipping_trace_is_rejected():
    inst = make_instance(2, [[F(0), F(3, 2)], [F(0), F(0)]])
    _, trace = greedy_schedule(inst)
    cert = build_certificate(trace)
    unfinished = replace(
        trace,
        residuals=trace.residuals[:2],
        sender_residual=trace.sender_residual[:2],
        receiver_residual=trace.receiver_residual[:2],
        matchings=trace.matchings[:1],
    )
    report = check_certificate(inst, unfinished, cert)
    assert any("unshipped" in f for f in report.failures)
    small = make_instance(2, [[F(0), F(1, 2)], [F(0), F(0)]])
    over = GreedyTrace.from_json(
        {"residuals": [[["0", "1/2"], ["0", "0"]], [["0", "-1/2"], ["0", "0"]]],
         "matchings": [[[0, 1, "1"]]]},
        small,
    )
    genuine = build_certificate(greedy_schedule(small)[1])
    report = check_certificate(small, over, genuine)
    assert any("ships more than the residual" in f for f in report.failures)


def test_certificate_json_round_values():
    inst = make_instance(2, [[F(0), F(3, 2)], [F(0), F(0)]])
    _, trace = greedy_schedule(inst)
    obj = build_certificate(trace).to_json()
    assert obj["beta_S"][0] == ["3/8", "1/8", "0"]
    assert obj["obj_DS"] == "7/4"


@pytest.mark.parametrize(
    "n,load,log_lb,ceil_load",
    [(1024, F(2), 10, 2), (4, F(16), 2, 16), (2, F(1, 2), 1, 1), (9, F(3), 4, 3)],
)
def test_lower_bound_components(n, load, log_lb, ceil_load):
    rep = lower_bounds(n, load)
    assert rep.log_lb == log_lb
    assert rep.ceil_load == ceil_load
    assert rep.max_lb >= max(log_lb, ceil_load)


def test_bounds_upper_formula_extremes():
    assert lower_bounds(4, F(16)).upper_formula == 12  # (n-1) * ceil(B/n)
    assert lower_bounds(1024, F(2)).upper_formula == 20  # 2 * log2(n)


def test_bounds_reject_degenerate_inputs():
    with pytest.raises(StructuralError):
        lower_bounds(1, F(2))
    with pytest.raises(StructuralError):
        lower_bounds(4, F(0))


@pytest.mark.parametrize(
    "length,hops,n,ok",
    [(3, 3, 8, True), (2, 2, 8, False), (10, 2, 1024, False), (10, 3, 1024, False), (10, 10, 1024, True)],
)
def test_path_count_truth_table(length, hops, n, ok):
    assert path_count_feasible(length, hops, n) is ok


def test_compare_uniform_hypercube_is_tight():
    inst = uniform_instance(16, F(2))
    rep = compare(inst, hypercube_schedule(inst))
    assert rep.ratio_makespan == 1  # makespan 4 == log2(16)
    assert rep.bounds.max_lb == 4


def test_compare_rejects_infeasible_schedule():
    inst = make_instance(2, [[F(0), F(1)], [F(0), F(0)]])
    other = make_instance(2, [[F(0), F(2)], [F(0), F(0)]])
    sched, _ = greedy_schedule(other)
    with pytest.raises(StructuralError):
        compare(inst, sched)
