"""Indirect schedules: worst-case schemes, VLB lifting, and the grid scheme."""

from fractions import Fraction as F

import random
import time

import pytest
import reference_routes
import reference_vlb
from hypothesis import given, settings
from hypothesis import strategies as st

from coflow.certificates import lower_bounds
from coflow.errors import StructuralError
from coflow.generators import random_sparse_instance
from coflow.indirect import (
    _route_directly,
    auto_schedule,
    elementary_basis_schedule,
    grid_schedule,
    hypercube_schedule,
    round_robin_schedule,
    vlb_lift,
)
from coflow.model import compute_metrics, make_instance, uniform_instance
from coflow.verifier import verify


def _check(instance, schedule):
    report = verify(instance, schedule)
    assert report.feasible, report.violations
    return compute_metrics(instance, schedule)


# (n, load) -> makespan for the uniform instance under each scheme.
HYPERCUBE_CASES = [(2, 1), (4, 2), (8, 3), (16, 4), (64, 6)]


@pytest.mark.parametrize("n,makespan", HYPERCUBE_CASES)
def test_hypercube_makespan_is_log_n(n, makespan):
    inst = uniform_instance(n, F(2))
    metrics = _check(inst, hypercube_schedule(inst))
    assert metrics.makespan == makespan


@pytest.mark.parametrize(
    "n,load,d,makespan",
    [
        (16, F(4), 2, 6),  # q=4, m=1: 2 * 3
        (81, F(3), 4, 8),  # q=3, m=1: 4 * 2
        (256, F(4), 4, 12),
        (9, F(3), 2, 4),
        (16, F(8), 2, 12),  # q=4, m=2: 2 * 3 * 2
    ],
)
def test_elementary_basis_makespan(n, load, d, makespan):
    inst = uniform_instance(n, load)
    q = next(q for q in range(2, n + 1) if q**d >= n)
    metrics = _check(inst, _route_directly(inst, q))
    assert metrics.makespan == makespan


@pytest.mark.parametrize("n,load,makespan", [(4, F(8), 6), (8, F(64), 56)])
def test_round_robin_makespan(n, load, makespan):
    inst = uniform_instance(n, load)
    metrics = _check(inst, round_robin_schedule(inst))
    assert metrics.makespan == makespan


@pytest.mark.parametrize("load", [F(1, 2), F(1)])
def test_elementary_basis_at_loads_up_to_one_is_the_hypercube(load):
    for n in (2, 3, 8, 21, 64):
        inst = uniform_instance(n, load)
        assert elementary_basis_schedule(inst) == hypercube_schedule(inst)
        assert elementary_basis_schedule(inst, nominal_load=load) == hypercube_schedule(inst)


def test_elementary_basis_load_just_above_one_returns_at_once():
    # The least d with B^d >= n is about 46,000 here; radix 2 needs no d.
    inst = uniform_instance(100, F(1, 2))
    t0 = time.perf_counter()
    sched = elementary_basis_schedule(inst, nominal_load=F(10001, 10000))
    assert time.perf_counter() - t0 < 1
    assert sched == hypercube_schedule(inst)
    assert _check(inst, sched).makespan == 7


def test_base_two_elementary_matches_hypercube():
    inst = uniform_instance(8, F(2))
    hyper = hypercube_schedule(inst)
    elem = _route_directly(inst, 2)  # d=3
    assert hyper.horizon == elem.horizon
    for a, b in zip(hyper.steps, elem.steps):
        assert sorted(a.transfers) == sorted(b.transfers)


def test_round_robin_slot_blocks_partition_horizon():
    # n=5, B=15: m=3, so shift s // 3 + 1 owns step s, and nothing else runs.
    sched = round_robin_schedule(uniform_instance(5, 15))
    assert sched.horizon == 12
    for s, step in enumerate(sched.steps):
        shift = s // 3 + 1
        assert sorted((t.src, t.dst) for t in step.transfers) == [
            (u, (u + shift) % 5) for u in range(5)
        ]


@pytest.mark.parametrize(
    "n,load,base,horizon",
    [
        (4, F(2), "hypercube", 4),
        (8, F(3, 2), "hypercube", 6),
        (9, F(3), "elementary-basis", 8),
    ],
)
def test_vlb_doubles_base_horizon(n, load, base, horizon):
    inst = random_sparse_instance(n, load, seed=7)
    metrics = _check(inst, vlb_lift(inst, nominal_load=load))
    assert metrics.makespan == horizon


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_vlb_makespan_independent_of_demand_pattern(seed):
    inst = random_sparse_instance(4, F(2), seed=seed)
    metrics = _check(inst, vlb_lift(inst, nominal_load=F(2)))
    assert metrics.makespan == 4


def _elementary_radix(n, load):
    """The least q with q^d >= n, d the least dimension with B^d >= n."""
    d = 1
    while load**d < n:
        d += 1
    q = 2
    while q**d < n:
        q += 1
    return q


def _radix(n, load):
    """The radix of the lifted regime routes: 2 for B <= 2, else the
    elementary basis's."""
    return 2 if load <= 2 else _elementary_radix(n, load)


# Powers of the radix, then sizes that are not.
ROUTE_CASES = [(4, F(2)), (8, F(3, 2)), (9, F(3)), (16, F(4)), (27, F(4)),
               (3, F(3, 2)), (5, F(2)), (6, F(3)), (10, F(7, 3)), (12, F(4)), (21, F(5))]


@pytest.mark.parametrize("n,load", ROUTE_CASES)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_vlb_merged_trees_match_per_share_walk(n, load, seed):
    inst = random_sparse_instance(n, load, seed=seed)
    expected = reference_vlb.per_share_sums(inst, _radix(n, load), load)
    merged = reference_vlb.merged_sums(vlb_lift(inst, nominal_load=load))
    assert merged == expected


def _direct_schedule(inst, load):
    """The direct regime route, its radix, and the load its rounds are sized
    for: n times the largest demand."""
    bound = inst.n * max(max(row) for row in inst.demands)
    if load <= 2:
        return hypercube_schedule(inst), 2, bound
    return elementary_basis_schedule(inst, nominal_load=load), _radix(inst.n, load), bound


@pytest.mark.parametrize("n,load", ROUTE_CASES)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_emitted_columns_equal_reference_rows(n, load, seed):
    # Row for row, in order: the columns against the per-commodity walks.
    inst = random_sparse_instance(n, load, seed=seed)
    direct, q, bound = _direct_schedule(inst, load)
    assert direct == reference_routes.route_directly(inst, q, bound)
    assert vlb_lift(inst, nominal_load=load) == reference_vlb.merged_rows(inst, _radix(n, load), load)


def _prime_denominator_case(n, load):
    rng = random.Random(3)
    primes = [p for p in range(100, 400) if all(p % k for k in range(2, 20))]
    demands = [
        [F(rng.randint(1, 13), rng.choice(primes)) if i != j and rng.random() < 0.5 else F(0)
         for j in range(n)]
        for i in range(n)
    ]
    inst = make_instance(n, demands)
    assert inst.load_bound <= load
    direct, q, bound = _direct_schedule(inst, load)
    lifted = vlb_lift(inst, nominal_load=load)
    assert direct == reference_routes.route_directly(inst, q, bound)
    assert lifted == reference_vlb.merged_rows(inst, _radix(n, load), load)
    assert _check(inst, lifted).delivered == inst.demands
    return direct, lifted


@pytest.mark.parametrize("load", [F(2), F(4)])
def test_prime_denominator_columns_equal_reference_rows(load):
    # A common denominator of hundreds of bits: the amounts are Python ints.
    direct, lifted = _prime_denominator_case(16, load)
    assert direct.amount.dtype == lifted.amount.dtype == object


@pytest.mark.parametrize("n", [3, 5, 6, 10, 12, 21])
@pytest.mark.parametrize("load", [F(2), F(4)])
def test_prime_denominator_sizes_that_are_not_powers(n, load):
    _prime_denominator_case(n, load)


@pytest.mark.parametrize("n,load,seed", [(16, 4, 1), (16, 2, 1), (32, 2, 2), (64, 2, 1)])
@pytest.mark.parametrize("build", [vlb_lift, auto_schedule])
def test_vlb_delivers_exactly_the_demand(n, load, seed, build):
    # The destination is a sink: no parcel reaches it twice.
    inst = random_sparse_instance(n, F(load), seed=seed)
    _, horizon = reference_routes.rounds(n, _radix(n, load), load)
    metrics = _check(inst, build(inst))
    assert metrics.delivered == inst.demands
    assert metrics.makespan == 2 * horizon


@pytest.mark.parametrize("n,load", [(8, F(3, 2)), (16, F(4)), (27, F(4)), (12, F(4))])
def test_vlb_one_row_per_step_edge_commodity(n, load):
    inst = random_sparse_instance(n, load, seed=3)
    table, _ = reference_routes.rounds(n, _radix(n, load), load)
    m = max(m for _, m in table.values())
    keys = [
        (s, t.src, t.dst, t.origin, t.dest)
        for s, step in enumerate(vlb_lift(inst, nominal_load=load).steps)
        for t in step.transfers
    ]
    assert len(keys) == len(set(keys))
    per_commodity = {}
    for _, _, _, u, v in keys:
        per_commodity[u, v] = per_commodity.get((u, v), 0) + 1
    assert max(per_commodity.values()) <= 2 * (n - 1) * m


def test_grid_schedule_phases():
    # The two-digit elementary basis at n=9: radix 3, digit 0 shifts by 1
    # and 2 in steps 0 and 1, digit 1 by 3 and 6 in steps 2 and 3.
    inst = uniform_instance(9, F(1))
    sched = grid_schedule(inst)
    assert sched == _route_directly(inst, 3)
    assert _check(inst, sched).makespan == 4
    for s, step in enumerate(sched.steps):
        for t in step.transfers:
            assert (t.dst - t.src) % 9 == [1, 2, 3, 6][s]


def test_grid_boundary_entry_exactly_one_over_root_n():
    # Entry 1/3 = 1/sqrt(9) fits one slot per round; entry 2/5 above it
    # gets a second slot on the rounds that carry three offsets.
    ok = make_instance(9, [[F(0) if i == j else F(1, 3) for j in range(9)] for i in range(9)])
    assert _check(ok, grid_schedule(ok)).makespan == 4
    above = make_instance(9, [[F(0) if i == j else F(2, 5) for j in range(9)] for i in range(9)])
    assert _check(above, grid_schedule(above)).makespan == 8


def test_grid_routes_nonuniform_demands():
    demands = [[F(0)] * 4 for _ in range(4)]
    demands[0][1] = F(1, 4)
    demands[1][2] = F(1, 8)
    inst = make_instance(4, demands)
    assert _check(inst, grid_schedule(inst)).delivered == inst.demands


LOADS = [F(1, 2), F(1), F(2), F(7, 3), F(3), F(5)]


def _size_case(n, load, seed):
    """The digit routes on uniform (n, B), and the lifted ones on uniform and
    random-sparse (n, B): feasible, exact, and at the scheme's horizon."""
    uniform = uniform_instance(n, load)
    direct = [(hypercube_schedule(uniform), 2),
              (elementary_basis_schedule(uniform, nominal_load=load), _radix(n, load))]
    q = next(q for q in range(2, n + 1) if q * q >= n)
    direct.append((grid_schedule(uniform), q))
    for sched, q in direct:
        metrics = _check(uniform, sched)
        assert metrics.delivered == uniform.demands, q
        assert metrics.makespan == reference_routes.rounds(n, q, load)[1], q
    q = _radix(n, load)
    _, horizon = reference_routes.rounds(n, q, load)
    power = any(q**d == n for d in range(1, n.bit_length() + 1))
    upper = lower_bounds(n, load).upper_formula
    for inst in (uniform, random_sparse_instance(n, load, seed)):
        lifted = vlb_lift(inst, nominal_load=load)
        assert auto_schedule(inst, nominal_load=load) == lifted  # B < n: auto lifts
        metrics = _check(inst, lifted)
        assert metrics.delivered == inst.demands
        assert metrics.makespan == 2 * horizon
        if load <= 2 or power:
            assert metrics.makespan <= upper


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 80), pick=st.integers(0, len(LOADS)), seed=st.integers(0, 10**6))
def test_every_size_routes_exactly(n, pick, seed):
    # B = n - 1 only up to n = 40: at n = 80 its lifted uniform schedule has
    # 8.8M rows and the case takes 7 s; at n = 40 it has 0.74M.
    loads = [x for x in LOADS + [F(n - 1)] * (n <= 40) if x < n]
    _size_case(n, loads[pick % len(loads)], seed)


@pytest.mark.parametrize("n,load", [(6, F(3)), (48, F(7))])
def test_sizes_that_are_not_powers(n, load):
    _size_case(n, load, seed=1)


def test_one_multiplicity_per_radix_overloads_n6():
    # n=6, B=3, radix 3: round (1, 1) carries offsets 3, 4 and 5, a load of
    # 3/2 per step; ceil(B/q) = 1 slot overloads it, so it gets two.
    table, horizon = reference_routes.rounds(6, 3, F(3))
    assert table[1, 1] == (2, 2) and horizon == 4
    inst = uniform_instance(6, F(3))
    assert _check(inst, elementary_basis_schedule(inst, nominal_load=F(3))).makespan == 4
    one_slot = reference_routes.route_directly(inst, 3, F(2))  # every m = 1
    assert one_slot.horizon == 3
    assert not verify(inst, one_slot).feasible


def test_auto_dispatch_by_load_regime():
    # B >= n: direct round robin, makespan (n-1) * ceil(B/n).
    big = uniform_instance(4, F(8))
    assert _check(big, auto_schedule(big)).makespan == 6
    # B <= 2: lifted hypercube.
    small = uniform_instance(8, F(2))
    assert _check(small, auto_schedule(small)).makespan == 6
    # In between: lifted elementary basis. The diagonal-free uniform
    # instance has actual load 8/3; the nominal B picks the dimension.
    mid = uniform_instance(9, F(3))
    assert _check(mid, auto_schedule(mid, nominal_load=F(3))).makespan == 8


def test_auto_rejects_understated_nominal_load():
    inst = uniform_instance(4, F(4))
    with pytest.raises(StructuralError):
        auto_schedule(inst, nominal_load=F(2))
