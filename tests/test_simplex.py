"""Exact rational simplex on small dense systems."""

from fractions import Fraction as F

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import reference_simplex
from coflow.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def test_small_known_optimum():
    # min -x - y  s.t. x + y <= 4, x <= 3  (x, y >= 0)
    res = solve_lp([F(-1), F(-1)], [[F(1), F(1)], [F(1), F(0)]], [F(4), F(3)], [], [])
    assert res.status == OPTIMAL
    assert res.objective == -4


def test_ge_constraints_force_phase_one():
    # min x + 2y  s.t. x + y >= 3, y >= 1
    res = solve_lp(
        [F(1), F(2)], [], [], [[F(1), F(1)], [F(0), F(1)]], [F(3), F(1)]
    )
    assert res.status == OPTIMAL
    assert res.objective == 4
    assert res.x == (F(2), F(1))


def test_infeasible_system_detected():
    # x <= 1 and x >= 2
    res = solve_lp([F(1)], [[F(1)]], [F(1)], [[F(1)]], [F(2)])
    assert res.status == INFEASIBLE
    assert res.objective is None


def test_unbounded_detected():
    res = solve_lp([F(-1)], [], [], [[F(1)]], [F(0)])
    assert res.status == UNBOUNDED


def test_negative_ub_rhs_handled():
    # -x <= -5 is x >= 5; minimum of x is exactly 5.
    res = solve_lp([F(1)], [[F(-1)]], [F(-5)], [], [])
    assert res.status == OPTIMAL
    assert res.objective == 5


def test_exact_fractions_survive():
    # min x  s.t. 3x >= 1 -> x = 1/3 exactly, no rounding anywhere.
    res = solve_lp([F(1)], [], [], [[F(3)]], [F(1)])
    assert res.objective == F(1, 3)
    assert res.x == (F(1, 3),)


_coef = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(
    c=st.lists(_coef, min_size=1, max_size=3),
    rows=st.lists(st.lists(_coef, min_size=3, max_size=3), min_size=1, max_size=3),
    rhs=st.lists(st.fractions(min_value=F(0), max_value=F(5), max_denominator=4), min_size=3, max_size=3),
)
def test_optimal_solutions_satisfy_all_constraints(c, rows, rhs):
    nvar = len(c)
    a_ub = [row[:nvar] for row in rows]
    b_ub = rhs[: len(a_ub)]
    res = solve_lp(c, a_ub, b_ub, [], [])
    # All-ub systems with nonnegative rhs are feasible at x = 0.
    assert res.status in (OPTIMAL, UNBOUNDED)
    if res.status == OPTIMAL:
        assert all(x >= 0 for x in res.x)
        for row, b in zip(a_ub, b_ub):
            assert sum(a * x for a, x in zip(row, res.x)) <= b
        assert sum(a * x for a, x in zip(c, res.x)) == res.objective
        assert res.objective <= 0  # x = 0 is feasible with value 0


def _assert_duals_prove_optimum(c, a_ub, b_ub, a_ge, b_ge, res):
    """y <= 0 on ub rows, y >= 0 on ge rows, A^T y <= c, b.y = c.x."""
    rows, rhs = a_ub + a_ge, b_ub + b_ge
    y = res.duals
    assert len(y) == len(rows)
    assert all(v <= 0 for v in y[: len(a_ub)])
    assert all(v >= 0 for v in y[len(a_ub):])
    for j, cj in enumerate(c):
        assert sum(row[j] * v for row, v in zip(rows, y)) <= cj
    assert sum(b * v for b, v in zip(rhs, y)) == res.objective


def test_duals_read_off_final_tableau():
    # min x + 2y  s.t. x + y >= 3, y >= 1, x <= 5: y = (0, 1, 1) prices
    # the optimum 4 exactly.
    c, a_ub, b_ub = [F(1), F(2)], [[F(1), F(0)]], [F(5)]
    a_ge, b_ge = [[F(1), F(1)], [F(0), F(1)]], [F(3), F(1)]
    res = solve_lp(c, a_ub, b_ub, a_ge, b_ge)
    assert res.objective == 4
    assert res.duals == (F(0), F(1), F(1))
    _assert_duals_prove_optimum(c, a_ub, b_ub, a_ge, b_ge, res)


_any_rhs = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=3)


@st.composite
def _systems(draw):
    nvar = draw(st.integers(1, 4))
    row = st.lists(_coef, min_size=nvar, max_size=nvar)
    n_ub, n_ge = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return (
        draw(row),
        draw(st.lists(row, min_size=n_ub, max_size=n_ub)),
        draw(st.lists(_any_rhs, min_size=n_ub, max_size=n_ub)),
        draw(st.lists(row, min_size=n_ge, max_size=n_ge)),
        draw(st.lists(_any_rhs, min_size=n_ge, max_size=n_ge)),
    )


@settings(max_examples=200, deadline=None)
@given(system=_systems())
# ge rows, a negative ub rhs, an infeasible and an unbounded system.
@example(system=([F(1), F(2)], [], [], [[F(1), F(1)], [F(0), F(1)]], [F(3), F(1)]))
@example(system=([F(1)], [[F(-1)]], [F(-5)], [[F(2)]], [F(-1)]))
@example(system=([F(1)], [[F(1)]], [F(1)], [[F(1)]], [F(2)]))
@example(system=([F(-1), F(0)], [[F(0), F(1)]], [F(1)], [[F(1), F(-1)]], [F(0)]))
def test_integer_rows_match_reference_simplex(system):
    res = solve_lp(*system)
    ref = reference_simplex.solve_lp(*system)
    event(res.status)
    assert (res.status, res.objective, res.x) == (ref.status, ref.objective, ref.x)
    if res.status == OPTIMAL:
        _assert_duals_prove_optimum(*system, res)
    else:
        assert res.duals is None
