"""What a schedule brings to each commodity's destination: ``model.delivery``
against the per-row reference walk and ``compute_metrics``, the int64 edge
of ``common_scale``, and exact delivery by ``auto`` on prime denominators."""

import random
from fractions import Fraction as F
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_rows import schedule_from_steps
from reference_verify import walk

from coflow.indirect import auto_schedule
from coflow.model import (
    Transfer,
    common_scale,
    compute_metrics,
    delivery,
    make_instance,
    node_columns,
)
from coflow.verifier import verify

N = 4
# A prime above 2**64: amounts over multiples of it make the common
# denominator, and so the scaled amounts, too large for int64.
BIG_PRIME = 2**64 + 13

amount_st = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=F(-1, 2), max_value=2, max_denominator=6),
    st.builds(lambda num, den: F(num, den * BIG_PRIME),
              st.integers(-BIG_PRIME, 2 * BIG_PRIME), st.integers(1, 6)),
    st.integers(2**61, 2**63 - 1).map(F),  # int64 amounts whose sums may not fit
)
node_st = st.integers(-1, N)  # -1 and N are out of range: rows verify drops
# Any row, a row into its commodity's destination, and a sink row: one that
# leaves its commodity's destination.
row_st = st.one_of(
    st.builds(Transfer, src=node_st, dst=node_st, origin=node_st, dest=node_st, amount=amount_st),
    st.builds(lambda o, d, k, a: Transfer(k, d, o, d, a), node_st, node_st, node_st, amount_st),
    st.builds(lambda o, d, k, a: Transfer(d, k, o, d, a), node_st, node_st, node_st, amount_st),
)


def _kept(instance, transfer):
    """Whether ``compute_metrics`` accepts the row."""
    src, dst, origin, dest, amount = transfer
    inside = all(0 <= v < N for v in transfer[:4])
    return (inside and src != dst and origin != dest and amount > 0 and src != dest
            and instance.demands[origin][dest] > 0)


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(st.lists(row_st, max_size=8), max_size=5),
    seed=st.integers(0, 10**6),
    big_demands=st.booleans(),
)
def test_delivery_is_the_reference_balance_and_the_metrics_sum(steps, seed, big_demands):
    rng = random.Random(seed)
    den = BIG_PRIME if big_demands else 1
    inst = make_instance(N, [
        [F(rng.randint(0, 4), rng.randint(1, 4) * den) if i != j else F(0) for j in range(N)]
        for i in range(N)
    ])

    # Over the rows verify keeps: the reference walk's final balance at
    # each commodity's destination key (origin*n + dest)*n + dest.
    sched = schedule_from_steps(N, steps)
    report, balance = walk(inst, sched)
    want = [F(balance.get(c * N + c % N, 0), report.scaled_unmet[1]) for c in range(N * N)]
    _, amount, scale = common_scale(inst, sched)
    src, dst, origin, dest, bad_edge, bad_commodity = node_columns(sched, N)
    valid = ~bad_edge & ~bad_commodity & (src != dst) & (amount > 0)
    origin, dest, src, dst, amount = (c[valid] for c in (origin, dest, src, dst, amount))
    got = delivery(origin, dest, src, dst, amount, N,
                   np.flatnonzero(dst == dest), np.flatnonzero(src == dest))
    assert [F(x, scale) for x in got.tolist()] == want

    # Over the rows compute_metrics accepts: its delivered matrix is the
    # reference balance too, and is delivery over the schedule's own scale.
    clean = schedule_from_steps(N, [[t for t in step if _kept(inst, t)] for step in steps])
    report, balance = walk(inst, clean)
    metrics = compute_metrics(inst, clean)
    want = [F(balance.get(c * N + c % N, 0), report.scaled_unmet[1]) for c in range(N * N)]
    assert [x for row in metrics.delivered for x in row] == want
    column, scale = metrics.scaled_delivered
    assert scale == clean.scale
    assert column.tolist() == delivery(
        clean.origin, clean.dest, clean.src, clean.dst, clean.amount, N,
        np.flatnonzero(clean.dst == clean.dest), np.flatnonzero(clean.src == clean.dest),
    ).tolist()


def test_delivery_sums_int64_amounts_past_int64():
    # Three rows of 2**62 into (0, 1) and one out of it again: int64 amounts
    # whose sums do not fit, so the cell is summed on Python ints.
    inst = make_instance(3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    rows = [Transfer(0, 1, 0, 1, F(2**62)), Transfer(2, 1, 0, 1, F(2**62))]
    sched = schedule_from_steps(3, [rows, rows[:1], [Transfer(1, 2, 0, 1, F(2**62))]])
    assert sched.amount.dtype == np.int64
    got = delivery(sched.origin, sched.dest, sched.src, sched.dst, sched.amount, 3,
                   np.flatnonzero(sched.dst == sched.dest), np.flatnonzero(sched.src == sched.dest))
    assert got.dtype == object and got.tolist() == [0, 2**63, 0, 0, 0, 0, 0, 0, 0]
    clean = schedule_from_steps(3, [rows, rows[:1]])
    assert compute_metrics(inst, clean).delivered[0][1] == 3 * 2**62


@pytest.mark.parametrize("scale, dtype", [(2**63 - 1, np.int64), (2**63, object)])
def test_common_scale_goes_to_object_by_the_lcm_alone(scale, dtype):
    # The same numerators on both sides of the edge: only the lcm differs.
    inst = make_instance(3, [[0, F(1, scale), 0], [0, 0, 0], [0, 0, 0]])
    sched = schedule_from_steps(3, [[Transfer(0, 1, 0, 1, F(1, scale))]])
    demand, amount, common = common_scale(inst, sched)
    assert common == scale
    assert demand.dtype == amount.dtype == dtype
    assert demand.tolist() == [0, 1, 0, 0, 0, 0, 0, 0, 0] and amount.tolist() == [1]
    report = verify(inst, sched)
    assert report.feasible and report.scaled_unmet[0].dtype == dtype


PRIMES = [p for p in range(100, 400) if all(p % d for d in range(2, isqrt(p) + 1))]


def prime_denominator_instance(n: int, load: int, seed: int):
    """Half the off-diagonal pairs carry k/p, p a prime in [100, 400), the
    matrix rescaled to load bound ``load``: a common denominator of a few
    hundred bits."""
    rng = random.Random(seed)
    demands = [
        [F(rng.randint(1, 50), rng.choice(PRIMES)) if i != j and rng.random() < 0.5 else F(0)
         for j in range(n)]
        for i in range(n)
    ]
    factor = F(load) / make_instance(n, demands).load_bound
    return make_instance(n, [[x * factor for x in row] for row in demands])


@pytest.mark.parametrize("n, load", [(16, 4), (27, 3), (32, 2)])
def test_auto_delivers_exactly_the_demand_on_prime_denominators(n, load):
    inst = prime_denominator_instance(n, load, seed=1)
    assert lcm(*(x.denominator for row in inst.demands for x in row)).bit_length() > 300
    sched = auto_schedule(inst, nominal_load=F(load))
    assert common_scale(inst, sched)[1].dtype == object  # the exact path
    assert verify(inst, sched).feasible
    # No pair gets more than its demand, though VLB relays through nodes.
    assert compute_metrics(inst, sched).delivered == inst.demands
