"""Indirect schedules: worst-case schemes, VLB lifting, and the grid scheme."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coflow.errors import StructuralError, UnsupportedSizeError
from coflow.generators import random_sparse_instance
from coflow.indirect import (
    ElementaryBasisScheme,
    auto_schedule,
    elementary_basis_schedule,
    grid_schedule,
    hypercube_schedule,
    pad_instance,
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
    metrics = _check(inst, elementary_basis_schedule(inst, d=d))
    assert metrics.makespan == makespan


@pytest.mark.parametrize("n,load,makespan", [(4, F(8), 6), (8, F(64), 56)])
def test_round_robin_makespan(n, load, makespan):
    inst = uniform_instance(n, load)
    metrics = _check(inst, round_robin_schedule(inst))
    assert metrics.makespan == makespan


def test_base_two_elementary_matches_hypercube():
    inst = uniform_instance(8, F(2))
    hyper = hypercube_schedule(inst)
    elem = elementary_basis_schedule(inst, d=3)
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


def test_grid_schedule_phases():
    inst = uniform_instance(9, F(1))  # entries 1/9 < 1/3
    sched = grid_schedule(inst)
    metrics = _check(inst, sched)
    assert metrics.makespan == 4  # 2 * (sqrt(9) - 1)
    side = 3
    for s, step in enumerate(sched.steps):
        for t in step.transfers:
            if s < side - 1:  # row phase: column fixed
                assert t.src % side == t.dst % side
                assert (t.dst // side - t.src // side) % side == s + 1
            else:  # column phase: row fixed
                assert t.src // side == t.dst // side
                assert (t.dst % side - t.src % side) % side == s - (side - 2)


def test_grid_boundary_entry_exactly_one_over_root_n():
    ok = make_instance(9, [[F(0) if i == j else F(1, 3) for j in range(9)] for i in range(9)])
    _check(ok, grid_schedule(ok))
    bad = make_instance(
        9, [[F(0) if i == j else F(2, 5) for j in range(9)] for i in range(9)]
    )
    with pytest.raises(StructuralError):
        grid_schedule(bad)


def test_grid_rejects_nonuniform_demands():
    demands = [[F(0)] * 4 for _ in range(4)]
    demands[0][1] = F(1, 4)
    demands[1][2] = F(1, 8)
    with pytest.raises(StructuralError):
        grid_schedule(make_instance(4, demands))


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: ElementaryBasisScheme(10, 2, 1), 16),
        (lambda: hypercube_schedule(uniform_instance(6, F(1))), 8),
        (lambda: grid_schedule(uniform_instance(5, F(1))), 9),
    ],
)
def test_unsupported_size_suggests_next_n(build, expected):
    with pytest.raises(UnsupportedSizeError) as exc:
        build()
    assert exc.value.suggested_n == expected


def test_pad_instance_preserves_demands_and_load():
    inst = random_sparse_instance(3, F(3, 2), seed=1)
    padded = pad_instance(inst, 4)
    assert padded.n == 4
    assert padded.load_bound == inst.load_bound
    for i in range(3):
        assert padded.demands[i][:3] == inst.demands[i]
    assert all(padded.demands[3][j] == 0 for j in range(4))
    assert all(padded.demands[i][3] == 0 for i in range(4))


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
