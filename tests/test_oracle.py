"""Time-indexed completion-time LPs: exact optima and size guards."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

import reference_simplex
from coflow import oracle, simplex
from coflow.errors import SizeGuardError, StructuralError
from coflow.model import make_instance, uniform_instance
from coflow.oracle import (
    _check_solution,
    _solve_at_horizon,
    opt_direct_fractional,
    opt_receiver_bound,
    opt_sender_bound,
    solve_completion_lp,
)


def test_swap_instance_direct_optimum():
    # Both units can move in the first step; each completes at time 1.
    inst = make_instance(2, [[F(0), F(1)], [F(1), F(0)]])
    assert opt_direct_fractional(inst) == 2


def test_swap_instance_sender_bound():
    # Sender cap 1/4: each unit spreads over slots 1..4, cost 1+2+3+4 over 4.
    inst = make_instance(2, [[F(0), F(1)], [F(1), F(0)]])
    assert opt_sender_bound(inst) == 5
    assert opt_receiver_bound(inst) == 5


def test_single_demand_bounds():
    inst = make_instance(2, [[F(0), F(3, 2)], [F(0), F(0)]])
    assert opt_direct_fractional(inst) == 2  # 1 at time 1, 1/2 at time 2
    # 1/4 per slot over 6 slots: (1+...+6)/4 = 21/4
    assert opt_sender_bound(inst) == F(21, 4)


def test_zero_instance_is_free():
    inst = make_instance(3, [[F(0)] * 3 for _ in range(3)])
    assert opt_direct_fractional(inst) == 0
    assert opt_sender_bound(inst) == 0
    assert opt_receiver_bound(inst) == 0


def test_lp_solution_reports_flows():
    inst = make_instance(2, [[F(0), F(1)], [F(0), F(0)]])
    sol = solve_completion_lp(inst, F(1), F(1))
    assert sol.objective == 1
    assert sol.horizon == 1
    shipped = sum(v for (i, j, t), v in sol.x.items() if (i, j) == (0, 1))
    assert shipped == 1


def test_size_guards_fire(monkeypatch):
    big = uniform_instance(8, F(2))
    with pytest.raises(SizeGuardError, match="^oracle guard: n=8 exceeds 6$"):
        opt_direct_fractional(big)
    # A demand of 30 needs 30 slots, past the horizon guard of 24.
    long = make_instance(2, [[F(0), F(30)], [F(0), F(0)]])
    with pytest.raises(SizeGuardError,
                       match="^oracle guard: no optimum proved within horizon 24$"):
        solve_completion_lp(long, F(1), F(1))
    # Raised guards let both through.
    monkeypatch.setattr(oracle, "DEFAULT_MAX_N", 8)
    monkeypatch.setattr(oracle, "DEFAULT_MAX_HORIZON", 120)
    assert opt_direct_fractional(big) > 0
    monkeypatch.setattr(oracle, "DEFAULT_MAX_HORIZON", 40)
    assert opt_direct_fractional(long) == 465  # 1 + ... + 30


def test_search_passes_an_uncertified_horizon(monkeypatch):
    # Raise one demand dual past T + 1 at the first horizon tried, after
    # its check has run: that optimum is not proved over longer horizons,
    # so the search must go on to the next one.
    inst = make_instance(2, [[F(0), F(3, 2)], [F(1), F(0)]])
    first = solve_completion_lp(inst, F(1), F(1))
    solve = oracle._solve_at_horizon

    def uncertified_first(instance, sender_cap, receiver_cap, horizon):
        sol = solve(instance, sender_cap, receiver_cap, horizon)
        if sol is not None and horizon == first.horizon:
            sol = replace(sol, duals={**sol.duals, ("demand", 0, 1): F(horizon + 2)})
        return sol

    monkeypatch.setattr(oracle, "_solve_at_horizon", uncertified_first)
    sol = solve_completion_lp(inst, F(1), F(1))
    assert sol.horizon == first.horizon + 1
    assert sol.objective == first.objective


def test_guard_override_passthrough(monkeypatch):
    inst = uniform_instance(4, F(2))
    want = opt_direct_fractional(inst)
    monkeypatch.setattr(oracle, "DEFAULT_MAX_HORIZON", 40)
    assert opt_direct_fractional(inst) == want


def test_bounds_never_exceed_direct_quadruple(tiny_corpus):
    # The 1/4-capped relaxations cost at most four times the direct optimum.
    for inst, _, opt_d, opt_s, opt_r in tiny_corpus:
        assert opt_s <= 4 * opt_d
        assert opt_r <= 4 * opt_d


def test_greedy_within_sixteen_of_direct(tiny_corpus):
    for inst, trace, opt_d, _, _ in tiny_corpus:
        assert trace.total_completion <= 16 * opt_d


def _solved(inst, sender_cap, receiver_cap, t_max):
    sol = _solve_at_horizon(inst, sender_cap, receiver_cap, t_max)
    assert sol is not None
    return sol


def test_optimal_answers_carry_checked_duals():
    inst = make_instance(3, [[F(0), F(1), F(1, 2)], [F(1, 3), F(0), F(0)], [F(0), F(3, 2), F(0)]])
    never = inst.total_demand  # a cap no slot can exceed
    for caps, t_max in (((F(1), F(1)), 6), ((F(1, 4), never), 12), ((never, F(1, 4)), 12)):
        sol = _solved(inst, *caps, t_max)
        assert sol.duals  # a positive optimum needs a nonzero dual
        _check_solution(inst, *caps, t_max, sol.x, sol.duals, sol.objective)
        assert [tuple(d[:3]) for d in sol.to_json()["duals"]] == sorted(sol.duals)


def test_flipped_dual_fails_the_check():
    inst = make_instance(2, [[F(0), F(3, 2)], [F(1), F(0)]])
    sol = _solved(inst, F(1), F(1), 4)
    for key, y in sol.duals.items():
        forged = dict(sol.duals)
        forged[key] = -y
        with pytest.raises(StructuralError):
            _check_solution(inst, F(1), F(1), 4, sol.x, forged, sol.objective)


def test_dual_must_be_feasible_not_just_tight():
    # y = 4/3 on the demand row has the right sign and b.y = 3/2 * 4/3 = 2
    # equals the optimum, but the slot-1 variable's reduced cost is
    # 1 - 4/3 < 0.
    inst = make_instance(2, [[F(0), F(3, 2)], [F(0), F(0)]])
    sol = _solved(inst, F(1), F(1), 4)
    assert sol.objective == 2
    with pytest.raises(StructuralError, match="infeasible"):
        _check_solution(inst, F(1), F(1), 4, sol.x, {("demand", 0, 1): F(4, 3)}, 2)


def test_stale_dual_fails_the_check():
    # Duals proving one instance's optimum do not prove a smaller one's.
    inst = make_instance(2, [[F(0), F(3)], [F(0), F(0)]])
    sol = _solved(inst, F(1), F(1), 4)
    smaller = make_instance(2, [[F(0), F(1)], [F(0), F(0)]])
    other = _solved(smaller, F(1), F(1), 4)
    with pytest.raises(StructuralError):
        _check_solution(smaller, F(1), F(1), 4, other.x, sol.duals, other.objective)


def test_oracle_lps_match_reference_simplex(tiny_corpus, monkeypatch):
    # Every LP the direct oracle builds for every fourth corpus member
    # (n = 2, 3, 4 in turn) solves identically on the integer-row simplex
    # and on the dense Fraction reference, which is too slow to run on all
    # 200.
    solve = simplex.solve_lp

    def both(*lp):
        res, ref = solve(*lp), reference_simplex.solve_lp(*lp)
        assert (res.status, res.objective, res.x) == (ref.status, ref.objective, ref.x)
        return res

    with monkeypatch.context() as patched:
        patched.setattr(simplex, "solve_lp", both)
        for inst, _, opt_d, _, _ in tiny_corpus[::4]:
            assert opt_direct_fractional(inst) == opt_d
    # The closed-form one-sided bounds equal their LPs, with the other cap
    # family set to the total demand, which no slot can exceed.
    for inst, _, _, opt_s, opt_r in tiny_corpus:
        never = inst.total_demand
        assert solve_completion_lp(inst, F(1, 4), never).objective == opt_s
        assert solve_completion_lp(inst, never, F(1, 4)).objective == opt_r
