"""Per-commodity route walk: the independent reference for the columns that
``coflow.indirect`` emits for the hypercube and elementary-basis schemes.

``emit`` is the digit walk the schedulers ran before they emitted columns;
``route_directly`` collects its rows per step, so the reference gives the
rows and their order.
"""

from coflow.model import Transfer
from reference_rows import schedule_from_steps


# The digit walk is the hot path for large hypercube and elementary-
# basis schedules (millions of transfers), so it avoids per-hop objects
# and uses tuple.__new__ directly.
def emit(self, steps, origin, dest, a, b, amount, offset) -> None:
    """Append the transfers routing ``amount`` of (origin, dest) from
    node a to node b onto ``steps``, shifted by ``offset`` slots."""
    q, m, d = self.base, self.multiplicity, self.d
    new = tuple.__new__
    cur = a
    da, db = a, b
    pw = 1
    if m == 1:
        for i in range(d):
            ai = da % q
            bi = db % q
            da //= q
            db //= q
            if ai != bi:
                nxt = cur + (bi - ai) * pw
                slot = i * (q - 1) + (bi - ai) % q - 1 + offset
                steps[slot].append(
                    new(Transfer, (cur, nxt, origin, dest, amount))
                )
                cur = nxt
            pw *= q
        return
    amt = amount / m
    for i in range(d):
        ai = da % q
        bi = db % q
        da //= q
        db //= q
        if ai != bi:
            nxt = cur + (bi - ai) * pw
            base_slot = (i * (q - 1) + (bi - ai) % q - 1) * m + offset
            for k in range(m):
                steps[base_slot + k].append(
                    new(Transfer, (cur, nxt, origin, dest, amt))
                )
            cur = nxt
        pw *= q


def route_directly(instance, scheme):
    """Route every commodity from its origin to its destination."""
    steps = [[] for _ in range(scheme.horizon)]
    for i, j, demand in instance.commodities():
        emit(scheme, steps, i, j, i, j, demand, 0)
    return schedule_from_steps(instance.n, steps)
