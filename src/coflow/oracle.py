"""Exact LP oracle for desk-scale instances.

Builds the direct fractional completion-time LP: variables x[i,j,t] for
each positive demand and each slot t = 1..T, demand rows sum_t x >= D_ij,
per-slot sender/receiver cap rows, objective sum t*x. The horizon T is an
output, not an input: the oracle searches upward for the first horizon
whose optimum is proved to be the optimum over every horizon.

The sender- and receiver-bound relaxations (one 1/4 cap family, whose
optima upper-bound the dual certificate objectives) decouple per node and
have a closed form, so they solve no LP.

The oracle exists to verify other code, so it refuses large inputs and
proves every optimum it reports: the primal solution is substituted into
every constraint, and the simplex duals are checked for dual feasibility
and strong duality against the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from .errors import SizeGuardError, StructuralError
from .model import Instance, square_sums
from .rational import render_rational
from . import simplex

DEFAULT_MAX_N = 6
DEFAULT_MAX_HORIZON = 24


@dataclass(frozen=True)
class LPSolution:
    objective: Fraction
    horizon: int  # the LP's slot count; the optimum holds at every longer one
    x: dict  # (i, j, t) -> Fraction, slots t = 1..horizon
    # Nonzero duals, checked to prove ``objective`` optimal:
    # ("demand", i, j), ("sender", i, t), ("receiver", j, t) -> Fraction
    duals: dict

    def to_json(self) -> dict:
        return {
            "objective": render_rational(self.objective),
            "horizon": self.horizon,
            "x": [
                [i, j, t, render_rational(v)] for (i, j, t), v in sorted(self.x.items())
            ],
            "duals": [
                [*key, render_rational(v)] for key, v in sorted(self.duals.items())
            ],
        }


def _solve_at_horizon(instance, sender_cap, receiver_cap, horizon) -> LPSolution | None:
    """The checked optimum of the LP with ``horizon`` slots, or None when
    that horizon is too short to ship the demand."""
    pairs = [(i, j) for i, j, _ in instance.commodities()]
    # variable layout: pair-major, slot-minor
    slots = range(1, horizon + 1)
    keys = [(i, j, t) for i, j in pairs for t in slots]
    index = {key: k for k, key in enumerate(keys)}
    nvars = len(keys)
    c = [Fraction(t) for _, _, t in keys]

    def row_of(cells):
        row = [Fraction(0)] * nvars
        for cell in cells:
            row[index[cell]] = Fraction(1)
        return row

    a_ge = [row_of((i, j, t) for t in slots) for i, j in pairs]
    b_ge = [instance.demands[i][j] for i, j in pairs]
    ge_keys = [("demand", i, j) for i, j in pairs]

    a_ub, b_ub, ub_keys = [], [], []
    for kind, cap, side in (("sender", sender_cap, 0), ("receiver", receiver_cap, 1)):
        for node in sorted({pair[side] for pair in pairs}):
            members = [pair for pair in pairs if pair[side] == node]
            for t in slots:
                a_ub.append(row_of((i, j, t) for i, j in members))
                b_ub.append(Fraction(cap))
                ub_keys.append((kind, node, t))

    # The objective is bounded below by 0, so anything but OPTIMAL is
    # infeasibility.
    result = simplex.solve_lp(c, a_ub, b_ub, a_ge, b_ge)
    if result.status != simplex.OPTIMAL:
        return None
    x = {key: result.x[k] for key, k in index.items() if result.x[k] != 0}
    duals = {key: y for key, y in zip(ub_keys + ge_keys, result.duals) if y != 0}
    _check_solution(instance, sender_cap, receiver_cap, horizon, x, duals, result.objective)
    return LPSolution(result.objective, horizon, x, duals)


def _check_solution(instance, sender_cap, receiver_cap, horizon, x, duals, objective):
    """Prove ``objective`` optimal from the instance alone; exact, so no slop.

    Primal: ``x`` satisfies every constraint and costs ``objective``.
    Dual: ``y >= 0`` on demand rows, ``y <= 0`` on cap rows, each
    variable's reduced cost ``t - y.A`` is nonnegative, and ``b.y`` equals
    ``objective``. Weak duality then bounds every feasible solution below
    by ``objective``.
    """
    demands = {(i, j): d for i, j, d in instance.commodities()}
    shipped: dict[tuple[int, int], Fraction] = {}
    per_sender: dict[tuple[int, int], Fraction] = {}
    per_receiver: dict[tuple[int, int], Fraction] = {}
    obj = Fraction(0)
    for (i, j, t), v in x.items():
        if (i, j) not in demands or not 1 <= t <= horizon:
            raise StructuralError("LP solution names a variable outside the LP")
        if v < 0:
            raise StructuralError("LP returned a negative amount")
        shipped[(i, j)] = shipped.get((i, j), Fraction(0)) + v
        per_sender[(i, t)] = per_sender.get((i, t), Fraction(0)) + v
        per_receiver[(j, t)] = per_receiver.get((j, t), Fraction(0)) + v
        obj += t * v
    for (i, j), d in demands.items():
        if shipped.get((i, j), Fraction(0)) < d:
            raise StructuralError("LP solution violates demand satisfaction")
    if any(v > sender_cap for v in per_sender.values()):
        raise StructuralError("LP solution violates a sender cap")
    if any(v > receiver_cap for v in per_receiver.values()):
        raise StructuralError("LP solution violates a receiver cap")
    if obj != objective:
        raise StructuralError("LP objective does not match its solution")

    caps = {"sender": sender_cap, "receiver": receiver_cap}
    bound = Fraction(0)
    for key, y in duals.items():
        kind, a, b = key
        if kind == "demand" and (a, b) in demands:
            if y < 0:
                raise StructuralError("LP dual is negative on a demand row")
            bound += demands[(a, b)] * y
        elif kind in caps and 0 <= a < instance.n and 1 <= b <= horizon:
            if y > 0:
                raise StructuralError("LP dual is positive on a cap row")
            bound += caps[kind] * y
        else:
            raise StructuralError("LP dual names a row outside the LP")
    for (i, j) in demands:
        y_demand = duals.get(("demand", i, j), 0)
        for t in range(1, horizon + 1):
            y_cap = duals.get(("sender", i, t), 0) + duals.get(("receiver", j, t), 0)
            if y_demand + y_cap > t:
                raise StructuralError("LP dual is infeasible")
    if bound != objective:
        raise StructuralError("LP dual bound does not match the objective")


def solve_completion_lp(
    instance: Instance, sender_cap: Fraction, receiver_cap: Fraction
) -> LPSolution:
    """Exact optimum of the completion-time LP over every horizon.

    Tries horizons upward from the load bound's slot count and returns the
    first whose checked optimum has every demand dual y_ij <= T + 1. A
    slot after T enters the LP with zero cap duals, so its variables keep
    reduced cost t - y_ij >= 0: the dual stays feasible at every longer
    horizon, and no longer horizon does better. Shorter horizons restrict
    the LP, so none does better either. The search ends once an optimum
    leaves a slot empty: that slot's cap duals are 0 by complementary
    slackness, so dual feasibility there gives y_ij <= T.
    """
    if not (sender_cap > 0 and receiver_cap > 0):
        raise StructuralError(
            f"LP caps must be positive, got {sender_cap} and {receiver_cap}"
        )
    if instance.n > DEFAULT_MAX_N:
        raise SizeGuardError(f"oracle guard: n={instance.n} exceeds {DEFAULT_MAX_N}")
    start = max(1, ceil(instance.load_bound / max(sender_cap, receiver_cap)))
    for horizon in range(start, DEFAULT_MAX_HORIZON + 1):
        sol = _solve_at_horizon(instance, sender_cap, receiver_cap, horizon)
        if sol is not None and all(
            y <= horizon + 1 for (kind, _, _), y in sol.duals.items() if kind == "demand"
        ):
            return sol
    raise SizeGuardError(
        f"oracle guard: no optimum proved within horizon {DEFAULT_MAX_HORIZON}"
    )


def opt_direct_fractional(instance: Instance) -> Fraction:
    """Optimal direct fractional total completion time (caps 1, 1)."""
    return solve_completion_lp(instance, Fraction(1), Fraction(1)).objective


def _one_sided_optimum(instance: Instance, axis: int) -> Fraction:
    # With one cap family the LP splits into one problem per node: ship its
    # row (axis 0) or column (axis 1) sum x = s / scale at rate at most 1/4
    # per slot, cheapest in slots 1..k, k = floor(4x), and the rest in slot
    # k + 1: k(k + 1)/8 + (k + 1)(x - k/4) = (k + 1)(8x - k)/8. Which of the
    # node's pairs ships when does not change the cost.
    column, scale = instance.scaled_demands
    total = 0
    for s in square_sums(column, instance.n)[axis].tolist():
        k = 4 * s // scale
        total += (k + 1) * (8 * s - k * scale)
    return Fraction(total, 8 * scale)


def opt_sender_bound(instance: Instance) -> Fraction:
    """Optimum of the sender-bound relaxation (sender cap 1/4, no receiver cap)."""
    return _one_sided_optimum(instance, 0)


def opt_receiver_bound(instance: Instance) -> Fraction:
    """Optimum of the receiver-bound relaxation (receiver cap 1/4)."""
    return _one_sided_optimum(instance, 1)
