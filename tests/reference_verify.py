"""Per-row verification loop: the independent reference for the
vectorized pass in ``coflow.verifier.verify``.

It walks every transfer in order, keeps per-(commodity, node) balances in
a dict of scaled integers, and applies arrivals at the end of each step,
so the reports the two implementations return must be equal. ``walk``
also gives the balances it ends with, for tests of ``model.delivery``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from coflow.model import Instance, ScaledMatrix, Schedule, int_column
from coflow.rational import render_rational
from coflow.verifier import VerificationReport, Violation


def verify(instance: Instance, schedule: Schedule) -> VerificationReport:
    """Check a schedule against an instance and report everything found.

    All arithmetic is exact; amounts are rescaled to integers over a common
    denominator so that large schedules verify quickly.
    """
    return walk(instance, schedule)[0]


def walk(instance: Instance, schedule: Schedule) -> tuple[VerificationReport, dict[int, int]]:
    """The report of :func:`verify`, and the final balance of every
    (origin*n + dest)*n + node key the walk met, over the report's scale."""
    n = instance.n
    violations: list[Violation] = []

    dens = {t[4].denominator for step in schedule.steps for t in step.transfers}
    dens.update(x.denominator for row in instance.demands for x in row)
    scale = lcm(*dens)
    mult = {den: scale // den for den in dens}

    # Amounts are rescaled to integers over the common denominator, and all
    # bookkeeping keys are packed into single ints, so that verification of
    # large schedules stays cheap. balance[(origin*n + dest)*n + node] holds
    # the scaled amount of that commodity sitting at node; origins start
    # with their full demand.
    balance: dict[int, int] = {}
    for i, j, d in instance.commodities():
        balance[(i * n + j) * n + i] = d.numerator * mult[d.denominator]

    max_load = 0
    direct = True
    integral = True
    scaled: dict[int, int] = {}  # id(amount) -> scaled value; objects repeat
    bget = balance.get

    for s, step in enumerate(schedule.steps):
        edge_load: dict[int, int] = {}
        eget = edge_load.get
        inflows: list[tuple[int, int]] = []
        arrived = inflows.append

        for src, dst, origin, dest, amount in step.transfers:
            if not (0 <= src < n and 0 <= dst < n) or src == dst:
                violations.append(
                    Violation("node_range", s, (src, dst), "bad physical edge")
                )
                continue
            if origin == dest or not (0 <= origin < n and 0 <= dest < n):
                violations.append(
                    Violation("commodity", s, (origin, dest), "bad commodity")
                )
                continue
            a = scaled.get(id(amount))
            if a is None:
                a = amount.numerator * mult[amount.denominator]
                scaled[id(amount)] = a
            if a <= 0:
                violations.append(
                    Violation("commodity", s, (src, dst), "non-positive amount")
                )
                continue
            edge = src * n + dst
            edge_load[edge] = eget(edge, 0) + a
            if src == dest:
                violations.append(
                    Violation(
                        "sink", s, (origin, dest, src),
                        "commodity leaves its destination",
                    )
                )
            if src != origin or dst != dest:
                direct = False
            pair = (origin * n + dest) * n
            # Outflows draw on balances as of the start of the step, so
            # they are applied immediately; arrivals are deferred to the
            # end of the step and only become available at s + 1.
            key = pair + src
            rest = bget(key, 0) - a
            balance[key] = rest
            if rest < 0:
                violations.append(
                    Violation(
                        "conservation", s, (origin, dest, src),
                        "commodity leaves a node holding none of it",
                    )
                )
            arrived((pair + dst, a))

        # Node rates and integrality are derived from the per-edge loads;
        # a step is integral iff no node appears on two distinct edges on
        # the same side.
        out_rate: dict[int, int] = {}
        in_rate: dict[int, int] = {}
        for edge, load in edge_load.items():
            if load > max_load:
                max_load = load
            if load > scale:
                violations.append(
                    Violation(
                        "capacity", s, divmod(edge, n),
                        f"edge load {render_rational(Fraction(load, scale))} > 1",
                    )
                )
            src, dst = divmod(edge, n)
            if src in out_rate:
                integral = False
            if dst in in_rate:
                integral = False
            out_rate[src] = out_rate.get(src, 0) + load
            in_rate[dst] = in_rate.get(dst, 0) + load
        for v, rate in out_rate.items():
            if rate > scale:
                violations.append(
                    Violation("node_rate", s, (v,), "outgoing rate exceeds 1")
                )
        for v, rate in in_rate.items():
            if rate > scale:
                violations.append(
                    Violation("node_rate", s, (v,), "incoming rate exceeds 1")
                )

        for key, a in inflows:
            balance[key] = bget(key, 0) + a

    unmet = []  # row-major numerators over scale
    for i in range(n):
        base = i * n * n
        for j, d in enumerate(instance.demands[i]):
            num = d.numerator
            if num > 0:
                unmet.append(num * mult[d.denominator] - balance.get(base + j * n + j, 0))
            else:
                unmet.append(0)

    return VerificationReport(
        violations=tuple(violations),
        max_edge_load=Fraction(max_load, scale),
        scaled_unmet=ScaledMatrix(int_column(unmet), scale),
        is_integral=integral,
        is_direct=direct,
    ), balance
