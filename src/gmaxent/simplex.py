"""Dense two-phase simplex for equality-form LPs with few rows.

Solves min/max c.x subject to A x = b, x >= 0 with Bland's anti-cycling rule.
Rows are few (one per constraint plus the weight sum), while columns range
from a handful of polytope vertices to 10^4 classical outcomes in the
classical dual's Phase I, so a plain dense tableau is the right tool; Bland's
rule guarantees termination on degenerate bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class LpResult:
    status: str
    x: np.ndarray | None
    value: float | None


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: list[int], cost: np.ndarray, pivot_tol: float) -> str:
    """Minimize cost over the tableau in place. Returns OPTIMAL or UNBOUNDED."""
    m = tableau.shape[0]
    n = tableau.shape[1] - 1
    for _ in range(_MAX_PIVOTS):
        reduced = cost - cost[basis] @ tableau[:, :n]
        entering = -1
        for j in range(n):  # Bland: smallest improving index
            if reduced[j] < -pivot_tol:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            a = tableau[i, entering]
            if a > pivot_tol:
                ratio = tableau[i, n] / a
                if ratio < best_ratio - pivot_tol or (
                    abs(ratio - best_ratio) <= pivot_tol
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED
        _pivot(tableau, basis, leaving, entering)
    raise NumericalFailure("simplex exceeded the pivot budget")


def _phase_one(a_eq, b_eq, pivot_tol: float):
    """Phase I: minimize the sum of artificials after flipping rows to b >= 0.

    Returns the final tableau (n original columns, one artificial per row,
    then the right-hand side), its basis, n, and the optimal artificial sum.
    """
    a = np.atleast_2d(np.asarray(a_eq, dtype=float)).copy()
    b = np.asarray(b_eq, dtype=float).copy()
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("inconsistent LP shapes")
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    tableau = np.hstack([a, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    if _run_simplex(tableau, basis, cost, pivot_tol) != OPTIMAL:
        raise NumericalFailure("phase-I subproblem unbounded")  # cannot happen: cost >= 0
    return tableau, basis, n, float(cost[basis] @ tableau[:, -1])


def _basic_solution(tableau: np.ndarray, basis: list[int], n: int) -> np.ndarray:
    """The basic solution's first n variables, clipped at zero."""
    x = np.zeros(tableau.shape[1] - 1)
    x[basis] = tableau[:, -1]
    return np.maximum(x[:n], 0.0)


def solve_lp(
    c,
    a_eq,
    b_eq,
    maximize: bool = False,
    pivot_tol: float = 1e-10,
    feas_tol: float = 1e-8,
) -> LpResult:
    """Two-phase simplex for min (or max) c.x s.t. a_eq x = b_eq, x >= 0."""
    c = np.asarray(c, dtype=float)
    tableau, basis, n, residual = _phase_one(a_eq, b_eq, pivot_tol)
    m = len(basis)
    if c.shape != (n,):
        raise ValueError("inconsistent LP shapes")
    if residual > feas_tol:
        return LpResult(INFEASIBLE, None, None)

    # Drive leftover artificials out of the basis; all-zero rows are redundant.
    keep_rows = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            j = next((j for j in range(n) if abs(tableau[i, j]) > pivot_tol), None)
            if j is None:
                keep_rows[i] = False
            else:
                _pivot(tableau, basis, i, j)
    tableau = np.hstack([tableau[keep_rows][:, :n], tableau[keep_rows][:, -1:]])
    basis = [basis[i] for i in range(m) if keep_rows[i]]

    cost2 = -c if maximize else c.copy()
    if _run_simplex(tableau, basis, cost2, pivot_tol) == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    x = _basic_solution(tableau, basis, n)
    return LpResult(OPTIMAL, x, float(c @ x))


def phase_one(a_eq, b_eq, pivot_tol: float = 1e-10, feas_tol: float = 1e-8):
    """Feasibility of {x >= 0 : a_eq x = b_eq}. Returns (residual, x or None).

    The residual is the phase-I optimum (sum of artificial variables), zero up
    to rounding exactly when the system is feasible.
    """
    tableau, basis, n, residual = _phase_one(a_eq, b_eq, pivot_tol)
    return residual, None if residual > feas_tol else _basic_solution(tableau, basis, n)
