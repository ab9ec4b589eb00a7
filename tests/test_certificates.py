"""Dual certificates for greedy runs and worst-case bounds."""

from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest
import reference_greedy

from coflow.certificates import (
    DualCertificate, build_certificate, check_certificate, lower_bounds,
)
from coflow.direct import GreedyTrace, greedy_schedule
from coflow.errors import StructuralError
from coflow.model import make_instance


def test_two_node_certificate_values():
    inst = make_instance(2, [[F(0), F(3, 2)], [F(0), F(0)]])
    _, trace = greedy_schedule(inst)
    cert = build_certificate(trace)
    # Residual sums over the replay's scale: 3/2, then 1/2, then 0.
    assert (cert.scale, cert.senders) == (2, ((3, 0), (1, 0), (0, 0)))
    assert cert.receivers == ((0, 3), (0, 1), (0, 0))
    assert cert.senders is trace.replay.senders  # shared, not copied
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
    bad = replace(cert, senders=((0, 0), (0, 0), (0, 0)))
    report = check_certificate(inst, trace, bad)
    assert report.failures == ("beta_S[0][0] does not match the trace",)


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
    slow = GreedyTrace.from_json({"n": 3, "matchings": [[[0, 1, "1"]], [[1, 2, "1"]]]}, inst)
    report = check_certificate(inst, slow, build_certificate(slow))
    assert not report.ok
    assert any("not maximal" in f for f in report.failures)


def test_unfinished_or_overshipping_trace_is_rejected():
    inst = make_instance(2, [[F(0), F(3, 2)], [F(0), F(0)]])
    _, trace = greedy_schedule(inst)
    cert = build_certificate(trace)
    unfinished = reference_greedy.integer_trace(
        inst, reference_greedy.fraction_matchings(trace)[:1]
    )
    report = check_certificate(inst, unfinished, cert)
    assert any("unshipped" in f for f in report.failures)
    small = make_instance(2, [[F(0), F(1, 2)], [F(0), F(0)]])
    over = GreedyTrace.from_json(
        {"n": 2, "matchings": [[[0, 1, "1"]]]},
        small,
    )
    genuine = build_certificate(greedy_schedule(small)[1])
    report = check_certificate(small, over, genuine)
    assert any("ships more than the residual" in f for f in report.failures)


def moved(table, t, i, delta):
    """``table`` with entry [t][i] moved by ``delta``."""
    row = tuple(x + delta * (k == i) for k, x in enumerate(table[t]))
    return table[:t] + (row,) + table[t + 1:]


def test_dual_violation_names_the_perturbed_entry():
    inst = make_instance(
        3, [[F(0), F(2), F(1)], [F(1), F(0), F(3)], [F(2), F(1), F(0)]]
    )
    _, trace = greedy_schedule(inst)
    cert = build_certificate(trace)
    assert check_certificate(inst, trace, cert).ok
    assert cert.scale == 1 and [s[1] for s in cert.senders] == [4, 3, 2, 2, 1, 0]
    # Sender 1 one unit lower before step 2 than 4 - 2 allows; receiver 2
    # two units lower before step 1 than 4 - 1 allows.
    senders = lambda t, i, delta: replace(cert, senders=moved(cert.senders, t, i, delta))
    report = check_certificate(inst, trace, senders(2, 1, -1))
    assert report.failures == (
        "beta_S[1][2] does not match the trace", "DS infeasible at (i=1, t=2)",
    )
    receivers = moved(cert.receivers, 1, 2, -2)
    report = check_certificate(inst, trace, replace(cert, receivers=receivers))
    assert report.failures == (
        "beta_R[2][1] does not match the trace", "DR infeasible at (i=2, t=1)",
    )
    # alpha_S[1][*] one above sender 1's initial residual moves beta_S[1][0]
    # with it, so DS first fails one step later.
    report = check_certificate(inst, trace, senders(0, 1, 1))
    assert report.failures == (
        "beta_S[1][0] does not match the trace", "DS infeasible at (i=1, t=1)",
    )


def test_perturbed_sender_sum_names_the_first_difference():
    inst = make_instance(
        3, [[F(0), F(2), F(1)], [F(1), F(0), F(3)], [F(2), F(1), F(0)]]
    )
    _, trace = greedy_schedule(inst)
    cert = build_certificate(trace)
    # Raising a sum keeps both duals feasible: only the differences show,
    # node-major, the first one per table.
    bad = moved(moved(cert.senders, 4, 1, 1), 1, 2, 1)
    report = check_certificate(inst, trace, replace(cert, senders=bad))
    assert report.failures == ("beta_S[1][4] does not match the trace",)
    for t in range(trace.horizon + 1):
        for i in range(inst.n):
            for delta in (-1, 1):
                report = check_certificate(
                    inst, trace, replace(cert, senders=moved(cert.senders, t, i, delta))
                )
                assert not report.ok
                assert report.failures[0] == f"beta_S[{i}][{t}] does not match the trace"


def test_forged_objective_cannot_certify():
    # The genuine certificate of a sub-unit demand fails the half bound. The
    # objectives are read off the sums, so there is no field to inflate, and
    # sums that would raise them no longer match the trace.
    inst = make_instance(2, [[F(0), F(1, 4)], [F(0), F(0)]])
    _, trace = greedy_schedule(inst)
    cert = build_certificate(trace)
    assert not check_certificate(inst, trace, cert).ok
    with pytest.raises(TypeError):
        replace(cert, obj_ds=F(10**6))
    big = tuple(tuple(x * 10**6 for x in row) for row in cert.senders)
    report = check_certificate(inst, trace, replace(cert, senders=big))
    assert 2 * report.obj_sum > report.total_completion
    assert not report.ok
    assert report.failures[0] == "beta_S[0][0] does not match the trace"


def test_another_traces_certificate_fails():
    demands = [[F(0), F(2), F(1)], [F(1), F(0), F(3)], [F(2), F(1), F(0)]]
    inst = make_instance(3, demands)
    _, trace = greedy_schedule(inst)
    # The transposed instance's run has the same shape and scale.
    _, other = greedy_schedule(make_instance(3, [list(col) for col in zip(*demands)]))
    report = check_certificate(inst, trace, build_certificate(other))
    assert report.failures == (
        "beta_S[1][0] does not match the trace", "beta_R[1][0] does not match the trace",
    )


def test_certificate_of_another_shape_or_scale_fails_without_raising():
    inst = make_instance(
        3, [[F(0), F(2), F(1)], [F(1), F(0), F(3)], [F(2), F(1), F(0)]]
    )
    _, trace = greedy_schedule(inst)
    cert = build_certificate(trace)
    other = build_certificate(greedy_schedule(make_instance(2, [[0, F(3, 2)], [0, 0]]))[1])
    double = lambda table: tuple(tuple(2 * x for x in row) for row in table)
    shape = "the certificate's scale or table shape does not match the trace"
    for bad in (
        other,
        replace(cert, senders=cert.senders[:-1]),
        replace(cert, receivers=(cert.receivers[0], *(r[:-1] for r in cert.receivers[1:]))),
        replace(cert, senders=(*cert.senders[:-1], (0, 0, "0"))),
        replace(cert, senders=list(cert.senders)),
        replace(cert, scale=2 * cert.scale),
        # The same rationals over twice the scale are not the replay's record.
        DualCertificate(2 * cert.scale, double(cert.senders), double(cert.receivers)),
        replace(cert, scale=0),
        replace(cert, scale=F(1)),
    ):
        report = check_certificate(inst, trace, bad)
        assert report.failures == (shape,)
        assert report.obj_sum is None
        assert report.to_json()["obj_DS_plus_DR"] is None


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
    assert rep.max_lb == max(log_lb, ceil_load)


def test_bounds_upper_formula_extremes():
    assert lower_bounds(4, F(16)).upper_formula == 12  # (n-1) * ceil(B/n)
    assert lower_bounds(1024, F(2)).upper_formula == 20  # 2 * log2(n)


@pytest.mark.parametrize(
    "n,load,upper", [(2**30, 30, 480), (81, 9, 54), (64, 4, 32), (1000, 10, 80)]
)
def test_bounds_upper_formula_is_exact_between_regimes(n, load, upper):
    # 2B(d + 1), d the least dimension with B^d >= n; no float logarithms.
    assert lower_bounds(n, F(load)).upper_formula == upper


def test_bounds_reject_degenerate_inputs():
    with pytest.raises(StructuralError):
        lower_bounds(1, F(2))
    with pytest.raises(StructuralError):
        lower_bounds(4, F(0))
