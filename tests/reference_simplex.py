"""Reference exact simplex on a dense ``Fraction`` tableau.

An independent implementation that the differential tests compare
``coflow.simplex.solve_lp`` against. It makes the same pivot choices and
tie-breaks on plain rationals, so ``(status, objective, x)`` must agree
exactly.

Two-phase tableau simplex for problems of the form

    min c.x   s.t.  A_ub x <= b_ub,  A_ge x >= b_ge,  x >= 0

with all data rational. Pivoting uses Dantzig's rule with a switch to
Bland's rule after an iteration budget, which guarantees termination.
Every tableau cell is a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SimplexResult:
    status: str
    objective: Fraction | None
    x: tuple[Fraction, ...] | None


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    prow = tableau[row]
    for r, trow in enumerate(tableau):
        if r != row and trow[col]:
            factor = trow[col]
            tableau[r] = [v - factor * p for v, p in zip(trow, prow)]
    basis[row] = col


def _run(tableau, basis, ncols):
    """Minimize the objective in the last tableau row. Returns status."""
    m = len(basis)
    bland_after = 20 * (m + ncols)
    iteration = 0
    while True:
        obj = tableau[-1]
        iteration += 1
        bland = iteration > bland_after
        col = -1
        if bland:
            for j in range(ncols):
                if obj[j] < 0:
                    col = j
                    break
        else:
            best = 0
            for j in range(ncols):
                if obj[j] < best:
                    best = obj[j]
                    col = j
        if col < 0:
            return OPTIMAL
        row = -1
        best_ratio = None
        for r in range(m):
            a = tableau[r][col]
            if a > 0:
                ratio = tableau[r][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[row])
                ):
                    best_ratio = ratio
                    row = r
        if row < 0:
            return UNBOUNDED
        _pivot(tableau, basis, row, col)


def solve_lp(c, a_ub, b_ub, a_ge, b_ge) -> SimplexResult:
    """Exact minimum of c.x over the given inequality system, x >= 0."""
    nvar = len(c)
    n_ub, n_ge = len(a_ub), len(a_ge)
    m = n_ub + n_ge
    Q = Fraction

    # Columns: structural | slack(ub) | surplus(ge) | artificial, then rhs.
    n_art = n_ge + sum(1 for b in b_ub if b < 0)
    ncols = nvar + n_ub + n_ge + n_art
    tableau = []
    basis = []
    art_cols = []
    art_idx = nvar + n_ub + n_ge

    def make_row(coeffs, rhs):
        row = [Q(0)] * (ncols + 1)
        for j, v in enumerate(coeffs):
            row[j] = Q(v)
        row[-1] = Q(rhs)
        return row

    for k in range(n_ub):
        row = make_row(a_ub[k], b_ub[k])
        row[nvar + k] = Q(1)
        if row[-1] < 0:  # flip so rhs >= 0; slack becomes surplus
            row = [-v for v in row]
            row[art_idx] = Q(1)
            art_cols.append(art_idx)
            basis.append(art_idx)
            art_idx += 1
        else:
            basis.append(nvar + k)
        tableau.append(row)
    for k in range(n_ge):
        row = make_row(a_ge[k], b_ge[k])
        row[nvar + n_ub + k] = Q(-1)
        if row[-1] < 0:
            row = [-v for v in row]
            row[nvar + n_ub + k] = Q(1)
            basis.append(nvar + n_ub + k)
        else:
            row[art_idx] = Q(1)
            art_cols.append(art_idx)
            basis.append(art_idx)
            art_idx += 1
        tableau.append(row)

    # Phase 1: minimize the sum of artificials.
    if art_cols:
        phase1 = [Q(0)] * (ncols + 1)
        for col in art_cols:
            phase1[col] = Q(1)
        for r, row in enumerate(tableau):
            if basis[r] in art_cols:
                phase1 = [v - w for v, w in zip(phase1, row)]
        tableau.append(phase1)
        status = _run(tableau, basis, ncols)
        if status != OPTIMAL or tableau[-1][-1] != 0:
            return SimplexResult(INFEASIBLE, None, None)
        tableau.pop()
        # Drive any artificial still basic (at zero) out of the basis.
        for r in range(m):
            if basis[r] in art_cols:
                for j in range(nvar + n_ub + n_ge):
                    if tableau[r][j] != 0:
                        _pivot(tableau, basis, r, j)
                        break

    # Phase 2: the real objective, with artificials frozen out.
    obj = [Q(0)] * (ncols + 1)
    for j, v in enumerate(c):
        obj[j] = Q(v)
    for col in art_cols:
        obj[col] = Q(0)
    for r, row in enumerate(tableau):
        if obj[basis[r]] != 0:
            factor = obj[basis[r]]
            obj = [v - factor * w for v, w in zip(obj, row)]
    tableau.append(obj)
    # Pivoting stays out of artificial columns (their cost is pinned at 1).
    status = _run(tableau, basis, nvar + n_ub + n_ge)
    if status != OPTIMAL:
        return SimplexResult(status, None, None)

    x = [Fraction(0)] * nvar
    for r, bcol in enumerate(basis):
        if bcol < nvar:
            x[bcol] = Fraction(tableau[r][-1])
    objective = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    return SimplexResult(OPTIMAL, objective, tuple(x))
