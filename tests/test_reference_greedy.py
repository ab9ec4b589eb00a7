"""Greedy, its trace replay and the dual certificate against the ``Fraction``
reference: equal schedules, the same schedule JSON, traces that read back
from both trace documents, equal certificates and check reports, and the
same first failure on forged traces."""

import json
import random
from dataclasses import replace
from fractions import Fraction as F
from functools import lru_cache

import pytest
import reference_greedy
from hypothesis import assume, given, settings, strategies as st

from coflow.certificates import build_certificate, check_certificate
from coflow.direct import GreedyTrace, greedy_schedule
from coflow.errors import StructuralError
from coflow.generators import FAMILIES, generate
from coflow.model import make_instance

LOADS = (F(1, 2), F(2), F(7, 3), F(40))
CASES = [
    (family, n, load)
    for family in FAMILIES
    for n in (2, 3, 4, 9, 16)
    for load in LOADS
] + [("prime-denominators", 16, 0)]


@lru_cache(maxsize=None)
def instance(family, n, load):
    if family == "prime-denominators":
        rng = random.Random(1)
        primes = [p for p in range(100, 400) if all(p % k for k in range(2, 20))]
        return make_instance(n, [
            [F(0) if i == j or rng.random() < 0.5
             else F(rng.randint(1, 13), rng.choice(primes)) for j in range(n)]
            for i in range(n)
        ])
    return generate(family, n, load, seed=n)


def same_run(inst, order):
    """The integer greedy (its row-major run; a run in another order is the
    reference's), replay and certificate against the reference."""
    trace = reference_greedy.greedy_trace(inst, order, 7)
    sched = trace.schedule
    want_sched, want = reference_greedy.greedy_schedule(inst, order, 7)
    assert sched == want_sched
    assert json.dumps(sched.to_json()) == json.dumps(want_sched.to_json())
    assert reference_greedy.fraction_matchings(trace) == want.matchings
    # The trace document, and the matchings document the reference writes,
    # read back as this trace.
    assert GreedyTrace.from_json(json.loads(json.dumps(trace.to_json())), inst) == trace
    assert GreedyTrace.from_json(json.loads(json.dumps(want.to_json())), inst) == trace
    assert trace.residuals == want.residuals
    same_certificate(inst, trace, want)


def same_certificate(inst, trace, want):
    """The integer certificate and its check against the ``Fraction`` ones:
    the same JSON, objectives and report."""
    cert = build_certificate(trace)
    want_cert = reference_greedy.build_certificate(want)
    assert json.dumps(cert.to_json()) == json.dumps(want_cert.to_json())
    assert (cert.obj_ds, cert.obj_dr) == (want_cert.obj_ds, want_cert.obj_dr)
    report = check_certificate(inst, trace, cert)
    assert report == reference_greedy.check_certificate(inst, want, want_cert)


def test_corpus_has_big_denominators():
    assert instance("prime-denominators", 16, 0).scaled_demands[1].bit_length() > 350


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
@pytest.mark.parametrize("order", reference_greedy.ORDERS)
def test_greedy_matches_reference(case, order):
    same_run(instance(*case), order)


@pytest.mark.parametrize("order", reference_greedy.ORDERS)
def test_greedy_matches_reference_on_corpus(tiny_corpus, order):
    for inst, *_ in tiny_corpus:
        same_run(inst, order)


RATES = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))
DEMANDS = (F(0), F(0), F(1, 4), F(1, 2), F(1), F(3, 2))


@st.composite
def forged(draw):
    """A random instance and a trace of fractional matchings: a prefix of
    the genuine greedy run, then random triples from ``RATES``, each kept
    only where it leaves a fractional matching."""
    n = draw(st.integers(2, 4))
    demands = [[F(0) if i == j else draw(st.sampled_from(DEMANDS)) for j in range(n)]
               for i in range(n)]
    inst = make_instance(n, demands)
    genuine = reference_greedy.fraction_matchings(greedy_schedule(inst)[1])
    matchings = list(genuine[:draw(st.integers(0, len(genuine)))])
    node = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        triples, out, into = [], [F(0)] * n, [F(0)] * n
        for s, r, p in draw(st.lists(st.tuples(node, node, st.sampled_from(RATES)), max_size=6)):
            if s != r and all((s, r) != t[:2] for t in triples) and max(out[s], into[r]) + p <= 1:
                triples.append((s, r, p))
                out[s] += p
                into[r] += p
        matchings.insert(draw(st.integers(0, len(matchings))), tuple(triples))
    return inst, tuple(matchings)


@settings(max_examples=300, deadline=None)
@given(forged())
def test_forged_trace_replay_matches_reference(case):
    inst, matchings = case
    trace = reference_greedy.integer_trace(inst, matchings)
    want = reference_greedy.FractionTrace(inst, matchings)
    failures = reference_greedy.replay_failures(inst, want)
    assert trace.replay.failure == (failures[0] if failures else None)
    assert trace.total_completion == want.total_completion
    assert trace.residuals == want.residuals
    same_certificate(inst, trace, want)
    # The wire form reads back to the same matchings.
    again = GreedyTrace.from_json(json.loads(json.dumps(trace.to_json())), inst)
    assert again == trace


@settings(max_examples=200, deadline=None)
@given(forged(), st.data())
def test_perturbed_certificate_check_matches_reference(case, data):
    # One residual sum moved at t >= 1, where it is only a beta: the integer
    # check names the same entry and infeasibility and takes the same
    # objective as the Fraction check of the same move of beta.
    inst, matchings = case
    trace = reference_greedy.integer_trace(inst, matchings)
    want = reference_greedy.FractionTrace(inst, matchings)
    cert = build_certificate(trace)
    assume(len(cert.senders) > 1)  # a trace that fails before its replay has sums at t = 0 only
    want_cert = reference_greedy.build_certificate(want)
    side, name = data.draw(st.sampled_from((("senders", "beta_s"), ("receivers", "beta_r"))))
    t = data.draw(st.integers(1, len(cert.senders) - 1))
    i = data.draw(st.integers(0, inst.n - 1))
    delta = data.draw(st.integers(-2 * cert.scale, 2 * cert.scale).filter(bool))
    table = getattr(cert, side)
    row = tuple(x + delta * (k == i) for k, x in enumerate(table[t]))
    bad = replace(cert, **{side: table[:t] + (row,) + table[t + 1:]})
    beta = getattr(want_cert, name)
    moved = tuple(x + F(delta, 4 * cert.scale) * (k == t) for k, x in enumerate(beta[i]))
    want_bad = replace(want_cert, **{name: beta[:i] + (moved,) + beta[i + 1:]})
    report = check_certificate(inst, trace, bad)
    assert not report.ok
    assert report == reference_greedy.check_certificate(inst, want, want_bad)


@pytest.mark.parametrize("triples,message", [
    ([[0, 0, "1"]], "self-loop (0,0) in fractional matching"),
    ([[0, 1, "0"]], "non-positive rate on (0,1)"),
    ([[0, 1, "1/4"], [0, 1, "1/4"]], "duplicate pair (0,1)"),
    ([[0, 1, "3/4"], [0, 2, "1/2"]], "node 0 exceeds matching cap 1"),
    ([[1, 0, "3/4"], [2, 0, "1/2"]], "node 0 exceeds matching cap 1"),
])
def test_trace_decode_refuses_what_is_not_a_fractional_matching(triples, message):
    inst = make_instance(3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(StructuralError) as exc:
        GreedyTrace.from_json({"n": 3, "matchings": [[[0, 1, "1"]], triples]}, inst)
    assert str(exc.value) == message
