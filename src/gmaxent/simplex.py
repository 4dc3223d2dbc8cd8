"""Revised two-phase simplex for equality-form LPs with few rows, and its vertex walk.

Solves min/max c.x subject to A x = b, x >= 0, with few rows (one per
constraint plus the weight sum) and up to 10^4 columns. So it keeps only
B^-1 and x_B (one rank-1 update per pivot) and forms no tableau. Each pivot
computes y = c_B B^-1 once and prices c_j - y.A_j block by block, stopping
at the first block with an improving column: one whose reduced cost lies
below -max(_PIVOT_TOL, 1e-13 max|c|), a floor set once per run above the
rounding noise of reduced costs (up to 2e-14 max|c| measured), so that
costs of order 10^6 constant on the feasible set do not cycle. An optimum
is then exact only to that floor: a caller that judges values absolutely
prices only the part of c that varies (``regions._lp_range``).

Both phases take the most negative reduced cost in the block (Dantzig's
rule) and fall back to Bland's rule (Bland, Math. Oper. Res. 2, 1977) after
a degenerate pivot until a pivot moves the objective, so termination still
rests on Bland's theorem. The leaving row is the smallest basic index among
the ratio-test ties. Phase I prices one implicit artificial column per row,
after the original columns, and never copies A; with its artificials driven
out and redundant rows dropped, the ``Basis`` is feasible for every cost,
so many LPs over one system (Frank-Wolfe) share one Phase I, and
``Basis.basic_solutions`` walks from it to every basis that ratio-test
pivots reach, which yields the vertices (Avis & Fukuda, Discrete Comput.
Geom. 8, 1992).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, Unsupported

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 200_000
_PIVOT_TOL = 1e-10      # pivot entries, ratio-test ties, least reduced-cost floor
FEASIBILITY_TOL = 1e-8  # Phase I residual, or a point's miss of a condition, above this => infeasible
_BLOCK = 256            # columns priced per block
# Pivots between recomputations of B^-1 from the basis columns. It bounds the
# drift of the rank-1 updates: max |A x - b| after 1.4e5 pivots on a
# Classical(10^4), m = 32 system is 1.7e-15 with it and 1.7e-12 without.
_REFACTOR_EVERY = 100
_MAX_BASES = 10_000     # bases one vertex walk may see


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

    def _entering(self, c: np.ndarray, y: np.ndarray, bland: bool, floor: float) -> int:
        """The entering column, or -1 when no nonbasic reduced cost is below -floor.

        Within the first block that has an improving column it is the smallest
        such index when ``bland``, else the one with the most negative reduced
        cost. Basic columns are masked: their reduced costs are zero only up
        to rounding (down to -3.5e-11 on Classical(10^4) systems with costs of
        order 100), and a basic column entering would pivot on itself forever.
        """
        a, n, nonbasic = self._a, self.n, self._nonbasic
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            reduced = c[start:stop] - y @ a[:, start:stop]
            improving = (reduced < -floor) & nonbasic[start:stop]
            j = int(improving.argmax())
            if improving[j]:
                return start + (j if bland else int(np.where(improving, reduced, 0.0).argmin()))
        if len(c) > n:  # Phase I: the artificial columns come last
            improving = (c[n:] - y * self._sign < -floor) & nonbasic[n:]
            j = int(improving.argmax())
            if improving[j]:
                return n + j
        return -1

    def _run(self, c: np.ndarray) -> str:
        """Minimize c.x from this basis. Returns OPTIMAL or UNBOUNDED.

        c has one entry per original column, and in Phase I one more per row
        for the artificials. Both phases take the most negative reduced cost
        in the first improving block, and Bland's rule after a degenerate pivot.
        """
        n = self.n
        bland = False
        floor = max(_PIVOT_TOL, 1e-13 * float(np.abs(c).max()))
        for _ in range(_MAX_PIVOTS):
            binv = self._inv_x[:, :-1]
            col = self._entering(c, c[self._basis] @ binv, bland, floor)
            if col < 0:
                return OPTIMAL
            d = binv @ self._a[:, col] if col < n else binv[:, col - n] * self._sign[col - n]
            rows = (d > _PIVOT_TOL).nonzero()[0]
            if not rows.size:
                return UNBOUNDED
            ratios = self._inv_x[rows, -1] / d[rows]
            least = ratios.min()
            ties = rows[ratios <= least + _PIVOT_TOL]
            self._pivot(int(ties[self._basis[ties].argmin()]), col, d)
            bland = least <= _PIVOT_TOL
        raise NumericalFailure("simplex exceeded the pivot budget")

    def basic_solutions(self) -> list[np.ndarray]:
        """``x`` at every basis that ratio-test pivots reach from this ``feasible_basis``, by sorted basis.

        Each tied row is a neighbour, so degenerate vertices are passed through; a seen set ends the
        walk, and past _MAX_BASES seen bases it raises ``Unsupported``."""
        start = tuple(sorted(self._basis.tolist()))
        seen, solutions, todo = {start}, {}, [(start, self, -1, -1)]
        while todo:
            key, node, row, col = todo.pop()
            if row >= 0:  # copy the basis state only; A and b are shared
                prev, node = node, copy.copy(node)
                node._basis, node._nonbasic, node._inv_x = prev._basis.copy(), prev._nonbasic.copy(), prev._inv_x.copy()
                node._pivot(row, col, prev._inv_x[:, :-1] @ prev._a[:, col])
            solutions[key] = node.x()
            # _run's ratio test on every nonbasic column at once, each tied row a neighbour
            cols = np.flatnonzero(node._nonbasic[:self.n])
            d = node._inv_x[:, :-1] @ node._a[:, cols]
            positive = d > _PIVOT_TOL
            ratios = np.divide(node._inv_x[:, -1:], d, out=np.full(d.shape, np.inf), where=positive)
            rows, picks = (positive & (ratios <= ratios.min(axis=0) + _PIVOT_TOL)).nonzero()
            basis = node._basis.tolist()
            for row, col in zip(rows.tolist(), cols[picks].tolist()):
                key = tuple(sorted(basis[:row] + basis[row + 1:] + [col]))
                if key not in seen:
                    if len(seen) == _MAX_BASES:
                        raise Unsupported(f"the vertex walk passed the cap of {_MAX_BASES} bases")
                    seen.add(key)
                    todo.append((key, node, row, col))
        return [solutions[key] for key in sorted(solutions)]

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
    """Phase I: minimize the sum of artificials from the all-artificial basis, then drive out those left when feasible.

    Returns the final basis and |a_eq x - b_eq|_1 at its basic solution x, recomputed from A and b
    rather than read from the updated x_B, so that rounding cannot flip a feasibility verdict.
    """
    basis = Basis(a_eq, b_eq)
    if basis._run(np.concatenate([np.zeros(basis.n), np.ones(len(basis._b))])) != OPTIMAL:
        raise NumericalFailure("phase-I subproblem unbounded")  # cannot happen: cost >= 0
    residual = float(np.sum(np.abs(basis._a @ basis.x() - basis._b)))
    if residual <= FEASIBILITY_TOL:
        basis._drive_out_artificials()
    return basis, residual


def feasible_basis(a_eq, b_eq) -> Basis | None:
    """A Phase-II-ready basis of {x >= 0 : a_eq x = b_eq}, or None when it is empty."""
    basis, residual = _phase_one(a_eq, b_eq)
    return None if residual > FEASIBILITY_TOL else basis


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

    The residual is the Phase I optimum |a_eq x - b_eq|_1, zero up to rounding exactly when feasible.
    """
    basis, residual = _phase_one(a_eq, b_eq)
    return residual, None if residual > FEASIBILITY_TOL else basis.x()
