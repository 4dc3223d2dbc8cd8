"""Solver controls.

``SolverConfig`` is the one record a caller overrides: the CLI's
``--tolerance`` and ``--max-iter`` and a problem file's ``solver`` section
set its tolerances and iteration caps. No flag sets ``residual_tol``, the
redundancy and certificate bound, which the benchmark checks dual residuals
against. Every other threshold is a fixed private constant in the module
that uses it.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    """Dual-Newton and Frank-Wolfe controls."""

    grad_tol: float = 1e-10             # stop when the dual gradient inf-norm is below
    residual_tol: float = 1e-8          # redundancy consistency; certificate c < -this => Infeasible
    max_iter: int = 500
    fw_gap_tol: float = 1e-7
    fw_max_iter: int = 5000


DEFAULT_SOLVER = SolverConfig()
