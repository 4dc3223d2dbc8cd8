"""Solver controls.

``SolverConfig`` is the one record a caller overrides: the CLI's
``--tolerance`` and ``--max-iter`` and a problem file's ``solver`` section
set its fields. Every other threshold is a fixed private constant in the
module that uses it.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    """Dual-Newton and Frank-Wolfe controls."""

    grad_tol: float = 1e-10             # stop when the dual gradient inf-norm is below
    residual_tol: float = 1e-8          # redundancy consistency; certificate c < -this => Infeasible
    max_iter: int = 500
    multiplier_bound: float = 1e4       # max |lambda| past this => recession certificate decides
    hessian_ridge: float = 1e-12
    rank_pivot_tol: float = 1e-10       # constraint independence threshold
    boundary_rank_tol: float = 1e-9     # min spectrum below this => BoundaryOnly
    boundary_residual_tol: float = 1e-3 # past the bound, no certificate, residual below => BoundaryOnly
    armijo_c: float = 1e-4
    max_backtracks: int = 60
    fw_gap_tol: float = 1e-7
    fw_max_iter: int = 5000


DEFAULT_SOLVER = SolverConfig()
