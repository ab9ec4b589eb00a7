"""Self-contained exact simplex over rationals, on integer rows.

Two-phase tableau simplex for problems of the form

    min c.x   s.t.  A_ub x <= b_ub,  A_ge x >= b_ge,  x >= 0

with all data rational. Pivoting uses Dantzig's rule with a switch to
Bland's rule after an iteration budget, which guarantees termination.

Each tableau row is a list of Python ints over one positive row
denominator, kept primitive (no common factor left in the row and its
denominator). Every row holds the exact rational tableau row times that
denominator, so each sign test, comparison and tie-break is the one a
rational tableau makes. A constraint row's denominator equals the entry
in its basic column. Pivots are fraction-free (Edmonds 1967, Bareiss
1968): only rows with a nonzero in the pivot column change, and in them
only the pivot row's nonzero positions are subtracted.

An optimal result carries exact duals ``y`` read off the final objective
row, one per constraint (``a_ub`` rows first): ``y <= 0`` on ``<=`` rows,
``y >= 0`` on ``>=`` rows, ``A^T y <= c`` and ``b.y = c.x``, which
proves ``x`` optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SimplexResult:
    status: str
    objective: Fraction | None
    x: tuple[Fraction, ...] | None
    duals: tuple[Fraction, ...] | None = None


def _nonzeros(row):
    return [j for j, v in enumerate(row) if v]


def _eliminate(row, den, prow, nz, col):
    """``row - (row[col] / prow[col]) * prow`` as a primitive integer row.

    ``prow[col]`` must be positive and ``nz`` must list ``prow``'s nonzero
    positions. May reuse ``row``'s list.
    """
    a, f = prow[col], row[col]
    g = gcd(a, f)
    a, f = a // g, f // g
    if a != 1:
        row = [v * a for v in row]
        den *= a
    for j in nz:
        row[j] -= f * prow[j]
    g = gcd(den, *row)
    if g != 1:
        row = [v // g for v in row]
        den //= g
    return row, den


def _pivot(rows, dens, basis, row, col):
    prow = rows[row]
    if prow[col] < 0:
        prow = rows[row] = [-v for v in prow]
    dens[row] = prow[col]
    nz = _nonzeros(prow)
    for r, trow in enumerate(rows):
        if r != row and trow[col]:
            rows[r], dens[r] = _eliminate(trow, dens[r], prow, nz, col)
    basis[row] = col


def _run(rows, dens, basis, ncols):
    """Minimize the objective in the last row. Returns status."""
    m = len(basis)
    bland_after = 20 * (m + ncols)
    iteration = 0
    while True:
        obj = rows[-1]
        iteration += 1
        if iteration > bland_after:
            col = next((j for j in range(ncols) if obj[j] < 0), -1)
        else:
            best = min(obj[:ncols], default=0)
            col = obj.index(best) if best < 0 else -1
        if col < 0:
            return OPTIMAL
        # Ratio test: rhs/a < rhs'/a' as rhs*a' < rhs'*a, with a, a' > 0.
        row = -1
        for r in range(m):
            a = rows[r][col]
            if a > 0:
                rhs = rows[r][-1]
                if row >= 0:
                    d = rhs * best_a - best_rhs * a
                    if d > 0 or (d == 0 and basis[r] > basis[row]):
                        continue
                row, best_rhs, best_a = r, rhs, a
        if row < 0:
            return UNBOUNDED
        _pivot(rows, dens, basis, row, col)


def solve_lp(c, a_ub, b_ub, a_ge, b_ge) -> SimplexResult:
    """Exact minimum of c.x over the given inequality system, x >= 0.

    Data may be ints or Fractions.
    """
    nvar = len(c)
    n_ub, n_ge = len(a_ub), len(a_ge)
    m = n_ub + n_ge
    n_real = nvar + n_ub + n_ge

    # Columns: structural | slack(ub) | surplus(ge) | artificial, then rhs.
    n_art = n_ge + sum(1 for b in b_ub if b < 0)
    ncols = n_real + n_art
    rows, dens, basis = [], [], []
    art = n_real
    specs = [(a_ub[k], b_ub[k], nvar + k, 1) for k in range(n_ub)]
    specs += [(a_ge[k], b_ge[k], nvar + n_ub + k, -1) for k in range(n_ge)]
    for coeffs, rhs, own, sign in specs:
        # Scale by the lcm of the row's denominators; the slack or surplus
        # coefficient becomes that lcm too, so no variable is rescaled.
        den = lcm(rhs.denominator, *(v.denominator for v in coeffs if v))
        row = [0] * (ncols + 1)
        for j, v in enumerate(coeffs):
            if v:
                row[j] = v.numerator * (den // v.denominator)
        row[own] = sign * den
        row[-1] = rhs.numerator * (den // rhs.denominator)
        if row[-1] < 0:  # flip so rhs >= 0
            row = [-v for v in row]
        if row[own] < 0:  # a surplus cannot start basic; add an artificial
            row[art] = den
            own = art
            art += 1
        basis.append(own)
        rows.append(row)
        dens.append(den)

    # Phase 1: minimize the sum of artificials.
    if n_art:
        art_rows = [r for r in range(m) if basis[r] >= n_real]
        den = lcm(*(dens[r] for r in art_rows))
        phase1 = [0] * (ncols + 1)
        for r in art_rows:
            phase1[basis[r]] = den
            f = den // dens[r]
            for j, v in enumerate(rows[r]):
                if v:
                    phase1[j] -= f * v
        rows.append(phase1)
        dens.append(den)
        status = _run(rows, dens, basis, ncols)
        if status != OPTIMAL or rows[-1][-1] != 0:
            return SimplexResult(INFEASIBLE, None, None)
        rows.pop()
        dens.pop()
        # Drive any artificial still basic (at zero) out of the basis.
        for r in range(m):
            if basis[r] >= n_real:
                for j in range(n_real):
                    if rows[r][j] != 0:
                        _pivot(rows, dens, basis, r, j)
                        break

    # Phase 2: the real objective, with artificials frozen out.
    den = lcm(*(v.denominator for v in c))
    obj = [0] * (ncols + 1)
    for j, v in enumerate(c):
        if v:
            obj[j] = v.numerator * (den // v.denominator)
    for r in range(m):
        if obj[basis[r]]:
            obj, den = _eliminate(obj, den, rows[r], _nonzeros(rows[r]), basis[r])
    rows.append(obj)
    dens.append(den)
    # Pivoting stays out of artificial columns (their cost is pinned at 1).
    status = _run(rows, dens, basis, n_real)
    if status != OPTIMAL:
        return SimplexResult(status, None, None)

    x = [Fraction(0)] * nvar
    for r, bcol in enumerate(basis):
        if bcol < nvar:
            x[bcol] = Fraction(rows[r][-1], dens[r])
    objective = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    # Reduced cost of a slack is -y, of a surplus +y (row flips cancel).
    obj, den = rows[-1], dens[-1]
    duals = tuple(Fraction(-obj[nvar + k], den) for k in range(n_ub)) + tuple(
        Fraction(obj[nvar + n_ub + k], den) for k in range(n_ge)
    )
    return SimplexResult(OPTIMAL, objective, tuple(x), duals)
