"""Revised two-phase simplex for equality-form LPs with few rows.

Solves min/max c.x subject to A x = b, x >= 0. Rows are few (one per
constraint plus the weight sum); columns range from a handful of polytope
vertices to 10^4 classical outcomes. So the kernel is the revised simplex
method: it keeps only B^-1 (rows x rows, one rank-1 update per pivot) and
the basic values x_B, and forms no tableau.

Pricing follows Bland's rule (Bland, Math. Oper. Res. 2, 1977), which
guarantees termination on degenerate bases: the entering column is the
smallest index with a negative reduced cost, the leaving row the smallest
basic index among ratio-test ties. Each pivot computes y = c_B B^-1 once
and scans the reduced costs c_j - y.A_j block by block, stopping at the
first block with an improving column, so a pivot costs in proportion to
where that column sits rather than to the number of columns.

Phase I prices one implicit artificial column per row (-e_i where b_i < 0,
so that the all-artificial start is feasible) and never flips, widens or
copies A. Its residual |A x - b|_1 is recomputed from A and b at the final
basic solution, so rounding in the updates cannot flip a feasibility
verdict. With its artificials driven out and redundant rows dropped, the
resulting ``Basis`` is feasible for every cost: ``Basis.optimize`` runs
Phase II from it and leaves it at the optimum, so many LPs over one
constraint system (Frank-Wolfe) share one Phase I, each starting from the
previous optimal basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 200_000
_PIVOT_TOL = 1e-10      # reduced costs, pivot entries and ratio-test ties
FEASIBILITY_TOL = 1e-8  # Phase I residual above this => infeasible
_BLOCK = 256            # columns priced per block
# Pivots between recomputations of B^-1 from the basis columns. It bounds the
# drift of the rank-1 updates: max |A x - b| after 1.4e5 pivots on a
# Classical(10^4), m = 32 system is 1.7e-15 with it and 1.7e-12 without.
_REFACTOR_EVERY = 100


@dataclass(frozen=True)
class LpResult:
    status: str
    x: np.ndarray | None
    value: float | None


class Basis:
    """A basis of {x >= 0 : a_eq x = b_eq}, kept as B^-1 and x_B.

    Column n + i is the artificial column of row i: the unit vector e_i,
    negated where b_i < 0. That sign is the only trace of the row flips: it
    reaches the duals and x_B through B^-1. B^-1 and x_B are stored side by
    side as [B^-1 | x_B], so that one rank-1 update per pivot moves both.
    """

    def __init__(self, a_eq, b_eq):
        a = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b = np.asarray(b_eq, dtype=float)
        m, n = a.shape
        if b.shape != (m,):
            raise ValueError("inconsistent LP shapes")
        self.n = n
        self._a, self._b = a, b
        self._sign = np.copysign(1.0, b)
        self._inv_x = np.zeros((m, m + 1))
        np.fill_diagonal(self._inv_x, self._sign)
        self._inv_x[:, -1] = np.abs(b)
        self._basis = np.arange(n, n + m)
        self._nonbasic = np.ones(n + m, dtype=bool)
        self._nonbasic[n:] = False
        self._pivots = 0

    def x(self) -> np.ndarray:
        """The basic solution's first n variables, clipped at zero."""
        x = np.zeros(self.n)
        original = self._basis < self.n
        x[self._basis[original]] = self._inv_x[original, -1]
        return np.maximum(x, 0.0)

    def optimize(self, c, maximize: bool = False) -> LpResult:
        """Phase II from this basis; the basis is left at the optimum."""
        c = np.asarray(c, dtype=float)
        if c.shape != (self.n,):
            raise ValueError("inconsistent LP shapes")
        if self._run(-c if maximize else c) == UNBOUNDED:
            return LpResult(UNBOUNDED, None, None)
        x = self.x()
        return LpResult(OPTIMAL, x, float(c @ x))

    def _refactor(self) -> None:
        """Recompute [B^-1 | x_B] from the basis columns."""
        m, n, basis = len(self._b), self.n, self._basis
        columns = np.zeros((m, m))
        original = basis < n
        columns[:, original] = self._a[:, basis[original]]
        artificial = np.flatnonzero(~original)
        rows = basis[artificial] - n
        columns[rows, artificial] = self._sign[rows]
        self._inv_x = np.linalg.solve(columns, np.hstack([np.eye(m), self._b[:, None]]))

    def _pivot(self, row: int, col: int, d: np.ndarray) -> None:
        """Column col enters at position row; d = B^-1 times that column."""
        inv_x = self._inv_x
        pivot_row = inv_x[row] / d[row]
        inv_x -= d[:, None] * pivot_row
        inv_x[row] = pivot_row
        self._nonbasic[self._basis[row]] = True
        self._nonbasic[col] = False
        self._basis[row] = col
        self._pivots += 1
        if self._pivots % _REFACTOR_EVERY == 0:
            self._refactor()

    def _entering(self, c: np.ndarray, y: np.ndarray) -> int:
        """Bland: the smallest nonbasic column with reduced cost below -_PIVOT_TOL, or -1.

        Basic columns are masked: their reduced costs are zero only up to
        rounding (down to -3.5e-11 on Classical(10^4) systems with costs of
        order 100), and a basic column entering would pivot on itself forever.
        """
        a, n, nonbasic = self._a, self.n, self._nonbasic
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            improving = (c[start:stop] - y @ a[:, start:stop] < -_PIVOT_TOL) & nonbasic[start:stop]
            j = int(improving.argmax())
            if improving[j]:
                return start + j
        if len(c) > n:  # Phase I: the artificial columns come last
            improving = (c[n:] - y * self._sign < -_PIVOT_TOL) & nonbasic[n:]
            j = int(improving.argmax())
            if improving[j]:
                return n + j
        return -1

    def _run(self, c: np.ndarray) -> str:
        """Minimize c.x from this basis. Returns OPTIMAL or UNBOUNDED.

        c has one entry per original column, and in Phase I one more per row
        for the artificials.
        """
        n = self.n
        for _ in range(_MAX_PIVOTS):
            binv = self._inv_x[:, :-1]
            col = self._entering(c, c[self._basis] @ binv)
            if col < 0:
                return OPTIMAL
            d = binv @ self._a[:, col] if col < n else binv[:, col - n] * self._sign[col - n]
            rows = (d > _PIVOT_TOL).nonzero()[0]
            if not rows.size:
                return UNBOUNDED
            ratios = self._inv_x[rows, -1] / d[rows]
            ties = rows[ratios <= ratios.min() + _PIVOT_TOL]
            self._pivot(int(ties[self._basis[ties].argmin()]), col, d)
        raise NumericalFailure("simplex exceeded the pivot budget")

    def _drive_out_artificials(self) -> None:
        """Pivot leftover artificials out of a feasible basis; drop the rows where none can leave.

        Such a row is a combination of the others on the original columns, so
        it is redundant; B^-1 is recomputed on the remaining rows.
        """
        n = self.n
        redundant = []
        for row in range(len(self._basis)):
            if self._basis[row] < n:
                continue
            binv = self._inv_x[:, :-1]
            candidates = np.flatnonzero(np.abs(binv[row] @ self._a) > _PIVOT_TOL)
            if candidates.size:
                col = int(candidates[0])
                self._pivot(row, col, binv @ self._a[:, col])
            else:
                redundant.append(int(self._basis[row]) - n)
        if redundant:
            keep = np.ones(len(self._b), dtype=bool)
            keep[redundant] = False
            self._a, self._b, self._sign = self._a[keep], self._b[keep], self._sign[keep]
            self._basis = self._basis[self._basis < n]
            self._nonbasic = self._nonbasic[:n]
            self._refactor()


def _phase_one(a_eq, b_eq) -> tuple[Basis, float]:
    """Phase I: minimize the sum of artificials from the all-artificial basis.

    Returns the final basis and its residual |a_eq x - b_eq|_1 at the basic
    solution x. That equals the artificial sum, but is recomputed from A and
    b rather than read from the updated x_B, so rounding in the updates cannot
    flip a feasibility verdict.
    """
    basis = Basis(a_eq, b_eq)
    m, n = len(basis._b), basis.n
    if basis._run(np.concatenate([np.zeros(n), np.ones(m)])) != OPTIMAL:
        raise NumericalFailure("phase-I subproblem unbounded")  # cannot happen: cost >= 0
    return basis, float(np.sum(np.abs(basis._a @ basis.x() - basis._b)))


def feasible_basis(a_eq, b_eq) -> Basis | None:
    """A Phase-II-ready basis of {x >= 0 : a_eq x = b_eq}, or None when it is empty."""
    basis, residual = _phase_one(a_eq, b_eq)
    if residual > FEASIBILITY_TOL:
        return None
    basis._drive_out_artificials()
    return basis


def solve_lp(c, a_eq, b_eq, maximize: bool = False) -> LpResult:
    """Two-phase simplex for min (or max) c.x s.t. a_eq x = b_eq, x >= 0."""
    c = np.asarray(c, dtype=float)
    if c.shape != (np.atleast_2d(np.asarray(a_eq)).shape[1],):
        raise ValueError("inconsistent LP shapes")
    basis = feasible_basis(a_eq, b_eq)
    if basis is None:
        return LpResult(INFEASIBLE, None, None)
    return basis.optimize(c, maximize)


def phase_one(a_eq, b_eq):
    """Feasibility of {x >= 0 : a_eq x = b_eq}. Returns (residual, x or None).

    The residual is |a_eq x - b_eq|_1 at the Phase I basic solution: the
    Phase I optimum (the sum of the artificial variables), zero up to
    rounding exactly when the system is feasible.
    """
    basis, residual = _phase_one(a_eq, b_eq)
    return residual, None if residual > FEASIBILITY_TOL else basis.x()
