"""Maximum-entropy solvers over the meet of condition regions.

Two routes:

* ``solve_dual``: Shannon/von Neumann entropy on classical/quantum models via
  the exponential-family dual. The solved state has the Gibbs form
  exp(-lambda0 * 1 - sum_i lambda_i R_i) with lambda0 = ln Z, and the
  multipliers minimize the convex dual D(lambda) = ln Z(lambda) + lambda . r
  by damped Newton steps. The quantum Hessian is the Kubo-Mori covariance,
  computed from the divided-difference derivative of the matrix exponential.
* ``solve_polytope``: any concave objective with a gradient on classical or
  polytope models via away-step Frank-Wolfe over mixing weights. One Phase
  I per solve finds a feasible simplex basis, and its basic solution is the
  first iterate; every linear subproblem is then a Phase II that starts
  from the previous subproblem's optimal basis. The iterate is a convex
  mixture of an active set of feasible vertices; each step moves toward the
  Frank-Wolfe vertex or away from the worst active one, by an exact line
  search on the objective's slope, and only the Frank-Wolfe gap certifies
  convergence.

A brute-force grid oracle for small instances lives in ``oracle.py``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT_SOLVER, SolverConfig
from .errors import (
    IncompatibleObjective,
    ModelMismatch,
    NumericalFailure,
    Unsupported,
    UnsupportedRepresentation,
)
from .hermitian import _divided_difference, entropy_from_spectrum
from .models import (
    CLASSICAL,
    POLYTOPE,
    QUANTUM,
    ModelSpace,
    Observable,
    State,
)
from .regions import ConvexRegion, LinearConstraint, _weight_rows, _weight_system, _weights_to_coords
from .simplex import OPTIMAL, feasible_basis

log = logging.getLogger("gmaxent")


class SolveStatus(Enum):
    CONVERGED = "converged"
    BOUNDARY_ONLY = "boundary_only"
    INFEASIBLE = "infeasible"
    NON_CONVERGENCE = "non_convergence"


@dataclass(frozen=True)
class Shannon:
    """Classical -sum p ln p, in nats."""


@dataclass(frozen=True)
class VonNeumann:
    """Quantum -tr(rho ln rho), in nats."""


@dataclass(frozen=True)
class FiducialMeasurementEntropy:
    """Sum of outcome-distribution Shannon entropies over fixed measurements.

    Each term is the entropy of a linear image of the state, so the sum is
    concave; this is the generic objective for polytope models, where no
    canonical entropy exists.
    """

    measurements: tuple[Observable, ...]


@dataclass(frozen=True)
class CustomObjective:
    """A caller-supplied concave functional of the state coordinates."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


Objective = Shannon | VonNeumann | FiducialMeasurementEntropy | CustomObjective


@dataclass(frozen=True)
class MaxEntProblem:
    model: ModelSpace
    region: ConvexRegion
    objective: Objective

    def __post_init__(self):
        if self.region.model != self.model:
            raise ModelMismatch("region belongs to a different model")
        kind = self.model.kind
        obj = self.objective
        if isinstance(obj, Shannon) and kind != CLASSICAL:
            raise IncompatibleObjective("Shannon entropy is the classical objective")
        if isinstance(obj, VonNeumann) and kind != QUANTUM:
            raise IncompatibleObjective("von Neumann entropy is the quantum objective")
        if isinstance(obj, (FiducialMeasurementEntropy, CustomObjective)) and kind != POLYTOPE:
            raise IncompatibleObjective("measurement/custom objectives are for polytope models")
        if isinstance(obj, FiducialMeasurementEntropy):
            for m in obj.measurements:
                if m.model != self.model:
                    raise ModelMismatch("fiducial measurement on a different model")


@dataclass
class SolveDiagnostics:
    """The constraints a dual solve kept and dropped, its steepest-descent fallbacks, the last Frank-Wolfe gap."""

    kept_indices: tuple[int, ...] = ()
    dropped_indices: tuple[int, ...] = ()
    gradient_fallbacks: int = 0
    fw_gap: Optional[float] = None


@dataclass(frozen=True)
class MaxEntSolution:
    """Solver output; state/entropy/lambda0 are None when no iterate exists."""

    state: Optional[State]
    multipliers: np.ndarray
    lambda0: Optional[float]
    entropy: Optional[float]
    iterations: int
    residuals: Optional[np.ndarray]
    status: SolveStatus
    diagnostics: SolveDiagnostics = field(default_factory=SolveDiagnostics, compare=False)


def entropy(objective: Objective, state: State) -> float:
    """Evaluate the entropy objective on a state."""
    if isinstance(objective, Shannon):
        return entropy_from_spectrum(state.coords)
    if isinstance(objective, VonNeumann):
        return entropy_from_spectrum(np.linalg.eigvalsh(state.density_matrix().entries))
    if isinstance(objective, FiducialMeasurementEntropy):
        total = 0.0
        for m in objective.measurements:
            if m.model != state.model:
                raise ModelMismatch("fiducial measurement and state live on different models")
            total += entropy_from_spectrum(_effect_rows(m) @ state.coords)
        return total
    return float(objective.value(state.coords))


def _effect_rows(measurement: Observable) -> np.ndarray:
    """The outcome functionals stacked as rows: one product gives every outcome probability."""
    return np.stack([out.effect.functional for out in measurement.outcomes])


def default_objective(model: ModelSpace) -> Objective:
    if model.kind == CLASSICAL:
        return Shannon()
    if model.kind == QUANTUM:
        return VonNeumann()
    raise IncompatibleObjective("polytope models need an explicit objective")


# ---------------------------------------------------------------------------
# Exponential-family machinery
# ---------------------------------------------------------------------------


def _functional_matrix(model: ModelSpace, constraints: Sequence[LinearConstraint]) -> np.ndarray:
    if not constraints:
        return np.zeros((0, model.ambient_dim))
    return np.stack([c.functional for c in constraints])


class _DualEvaluation:
    """The dual at one multiplier vector.

    ``lnz``, ``spectrum`` (classical probabilities or quantum eigenvalues)
    and ``top``, the largest eigenvalue of the exponent -sum_i lambda_i R_i,
    are set on construction from one decomposition; the means, the state
    coordinates and the Hessian are computed on first use and cached. A
    rejected line-search trial reads only ``lnz``.
    """

    def _gibbs(self, energy: np.ndarray) -> np.ndarray:
        """Set ``top``, ``lnz`` and ``spectrum`` from the exponent's eigenvalues ``energy``; return energy - top."""
        self.top = float(np.max(energy))
        shifted = energy - self.top
        weights = np.exp(shifted)
        self._z = float(np.sum(weights))
        self.lnz = self.top + float(np.log(self._z))
        self.spectrum = weights / self._z
        return shifted

    def hessian(self) -> np.ndarray:
        return self._hessian


class _ClassicalEvaluation(_DualEvaluation):
    def __init__(self, funcs: np.ndarray, lambdas: np.ndarray):
        self._gibbs(-(lambdas @ funcs))
        self.state_coords = self.spectrum
        self._funcs = funcs

    @cached_property
    def means(self) -> np.ndarray:
        return self._funcs @ self.spectrum

    @cached_property
    def _hessian(self) -> np.ndarray:
        # Covariance as one symmetric product S S^T (BLAS syrk): S the
        # centered functionals scaled by sqrt(p).
        scaled = self._funcs - self.means[:, None]
        scaled *= np.sqrt(self.spectrum)
        return scaled @ scaled.T


class _QuantumEvaluation(_DualEvaluation):
    def __init__(self, model, operators: np.ndarray, lambdas: np.ndarray):
        d = model.dim
        exponent = (-lambdas @ operators.reshape(-1, d * d)).reshape(d, d)
        try:
            k, u = np.linalg.eigh(exponent)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
        self._shifted = self._gibbs(k)
        self._model, self._operators, self._u = model, operators, u

    @cached_property
    def _rotated(self) -> np.ndarray:
        """The constraint operators in the eigenbasis of the exponent."""
        return self._u.conj().T @ self._operators @ self._u

    @cached_property
    def means(self) -> np.ndarray:
        return np.einsum("iaa->ia", self._rotated).real @ self.spectrum

    @cached_property
    def state_coords(self) -> np.ndarray:
        u = self._u
        return self._model.matrix_to_coords((u * self.spectrum) @ u.conj().T)

    @cached_property
    def _hessian(self) -> np.ndarray:
        # Kubo-Mori covariance as one symmetric product S S^T (BLAS syrk): S the
        # rotated operators scaled by sqrt(phi), phi > 0 the divided differences
        # of exp, viewed as real rows of 2 d^2 entries, so S S^T = Re(conj(S) S^T).
        phi = _divided_difference(self._shifted)
        scaled = (self._rotated.reshape(-1, phi.size) * np.sqrt(phi.ravel())).view(float)
        return (scaled @ scaled.T) / self._z - np.outer(self.means, self.means)


def _evaluator(model: ModelSpace, constraints: Sequence[LinearConstraint]) -> Callable[[np.ndarray], _DualEvaluation]:
    """The dual as a function of the multipliers; the constraints are stacked or converted once, here."""
    if model.kind == CLASSICAL:
        return partial(_ClassicalEvaluation, _functional_matrix(model, constraints))
    if model.kind == QUANTUM:
        operators = np.array([model.coords_to_matrix(c.functional).entries for c in constraints], dtype=complex)
        return partial(_QuantumEvaluation, model, operators.reshape(-1, model.dim, model.dim))
    raise Unsupported("partition functions are defined for classical and quantum models")


_MULTIPLIER_BOUND = 1e4       # max |lambda| past this => recession certificate decides
_HESSIAN_RIDGE = 1e-12
_RANK_PIVOT_TOL = 1e-10       # constraint independence threshold
_BOUNDARY_RANK_TOL = 1e-9     # min spectrum below this => BoundaryOnly
_BOUNDARY_RESIDUAL_TOL = 1e-3 # past the bound, no certificate, residual below => BoundaryOnly
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60          # also the gradient cap of a Frank-Wolfe line search


def _select_independent(funcs: np.ndarray, targets: np.ndarray, config: SolverConfig):
    """Greedy rank filter; returns (kept indices, dropped, contradiction?)."""
    kept: list[int] = []
    dropped: list[int] = []
    basis: list[np.ndarray] = []
    for i, f in enumerate(funcs):
        res = f.astype(float).copy()
        for q in basis:
            res -= (res @ q) * q
        if np.linalg.norm(res) > _RANK_PIVOT_TOL * max(1.0, np.linalg.norm(f)):
            basis.append(res / np.linalg.norm(res))
            kept.append(i)
            continue
        coeff, *_ = np.linalg.lstsq(funcs[kept].T, f, rcond=None)
        implied = float(coeff @ targets[kept])
        if abs(implied - targets[i]) > config.residual_tol * max(1.0, abs(targets[i])):
            return kept, dropped, True
        dropped.append(i)
        log.warning("dropping redundant constraint %d (consistent with kept set)", i)
    return kept, dropped, False


def _solution(
    problem, coords, multipliers, lambda0, iterations, status, diag, value=None, weights=None
) -> MaxEntSolution:
    """The result at the solved coordinates; value is the objective there, computed when None.

    weights, when given, are the polytope mixing weights that certify the state.
    """
    state = State(problem.model, coords, weights=weights)
    return MaxEntSolution(
        state=state,
        multipliers=np.asarray(multipliers, dtype=float),
        lambda0=lambda0,
        entropy=entropy(problem.objective, state) if value is None else value,
        iterations=iterations,
        residuals=problem.region.residuals(state),
        status=status,
        diagnostics=diag,
    )


def _infeasible(diag, multipliers=(), iterations: int = 0) -> MaxEntSolution:
    return MaxEntSolution(
        None, np.asarray(multipliers, dtype=float), None, None, iterations, None, SolveStatus.INFEASIBLE, diag
    )


def solve_dual(problem: MaxEntProblem, config: SolverConfig = DEFAULT_SOLVER) -> MaxEntSolution:
    """Minimize the exponential-family dual by damped Newton iteration.

    Statuses: CONVERGED when the dual gradient drops below tolerance and the
    solved state has full support; BOUNDARY_ONLY when it converges onto a
    rank-deficient limiting state. Past ``_MULTIPLIER_BOUND`` the recession
    certificate c = u . r + lambda_max(-sum_i u_i R_i), u = lambda/|lambda|,
    decides for both models: a state meeting the conditions would give
    c >= 0, so c < -``residual_tol`` is INFEASIBLE with the multipliers as
    witness (Boyd & Vandenberghe, Convex Optimization, 5.8); otherwise the
    status is BOUNDARY_ONLY when the residuals are within
    ``_BOUNDARY_RESIDUAL_TOL``, else NON_CONVERGENCE, as at the iteration cap,
    which also ends a solve whose cap comes before the bound. Contradictory
    linear conditions are INFEASIBLE before any Newton step.
    """
    if not isinstance(problem.objective, (Shannon, VonNeumann)):
        raise IncompatibleObjective("solve_dual handles Shannon and von Neumann objectives")
    region = problem.region
    diag = SolveDiagnostics()
    if region.known_empty:
        return _infeasible(diag)
    if not region.h_rep and region.v_rep is not None:
        raise UnsupportedRepresentation("solve_dual needs an H-representation")

    constraints = region.h_rep
    targets = np.array([c.target for c in constraints])
    funcs = _functional_matrix(problem.model, constraints)
    kept, dropped, contradiction = _select_independent(funcs, targets, config)
    del funcs  # the evaluator stacks the kept constraints
    if contradiction:
        return _infeasible(diag)
    diag.kept_indices = tuple(kept)
    diag.dropped_indices = tuple(dropped)
    active = [constraints[i] for i in kept]
    r = targets[kept]

    # A quantum solve holds an (m, d, d) operator stack throughout. Its state
    # coordinates are allocated before that stack, so that a caller keeping
    # many solutions keeps them packed instead of each pinning a hole in the
    # heap (kept Quantum(32) solutions: 9.9 KB of RSS each, 12.9 KB otherwise).
    coords = np.empty(problem.model.ambient_dim) if problem.model.kind == QUANTUM else None
    dual_at = _evaluator(problem.model, active)
    lambdas = np.zeros(len(active))
    ev = dual_at(lambdas)
    status = SolveStatus.NON_CONVERGENCE
    iterations = 0

    for iterations in range(config.max_iter + 1):
        g = r - ev.means
        res_norm = float(np.max(np.abs(g))) if len(g) else 0.0
        if res_norm <= config.grad_tol:
            boundary = float(np.min(ev.spectrum)) < _BOUNDARY_RANK_TOL
            status = SolveStatus.BOUNDARY_ONLY if boundary else SolveStatus.CONVERGED
            break
        if iterations == config.max_iter:
            break

        h = ev.hessian()
        try:
            direction = np.linalg.solve(h + _HESSIAN_RIDGE * np.eye(len(g)), g)
        except np.linalg.LinAlgError:
            direction = g
        slope = float(g @ direction)
        if slope <= 0.0:  # not a descent direction for D; fall back to steepest descent
            direction = g
            slope = float(g @ g)
            diag.gradient_fallbacks += 1
        # Descent direction for D is -direction: D'(t) = -g . direction at t=0.
        d0 = ev.lnz + float(lambdas @ r)
        if slope <= 1e-14 * (1.0 + abs(d0)) and float(np.max(np.abs(direction))) <= 1.0:
            # Predicted decrease is below the float resolution of D, so the
            # line search cannot see it; this is the quadratic regime, where
            # the pure Newton step is safe and contracts the gradient.
            lambdas = lambdas - direction
            ev = dual_at(lambdas)
            continue
        step = 1.0
        accepted = None
        for _ in range(_MAX_BACKTRACKS):
            trial = lambdas - step * direction
            ev_trial = dual_at(trial)
            if ev_trial.lnz + float(trial @ r) <= d0 - _ARMIJO_C * step * slope:
                accepted = (trial, ev_trial)
                break
            step /= 2.0
        if accepted is None or np.array_equal(accepted[0], lambdas):
            break
        lambdas, ev = accepted
        if float(np.max(np.abs(lambdas))) > _MULTIPLIER_BOUND:
            # lambda_max is positively homogeneous, so c at u = lambda/|lambda| is this over |lambda|.
            if ev.top + float(lambdas @ r) < -config.residual_tol * np.linalg.norm(lambdas):
                status = SolveStatus.INFEASIBLE
            elif float(np.max(np.abs(r - ev.means))) <= _BOUNDARY_RESIDUAL_TOL:
                status = SolveStatus.BOUNDARY_ONLY
            break

    if status is SolveStatus.INFEASIBLE:
        return _infeasible(diag, lambdas, iterations)
    if coords is None:
        coords = ev.state_coords
    else:
        coords[:] = ev.state_coords
    return _solution(problem, coords, lambdas, ev.lnz, iterations, status, diag, entropy_from_spectrum(ev.spectrum))


# ---------------------------------------------------------------------------
# Frank-Wolfe over mixing weights
# ---------------------------------------------------------------------------


# Active-set vertices closer than this (max-norm, in coordinates) are one vertex.
_ATOM_ATOL = 1e-12
# The line search stops once the slope at its left end has fallen below this
# fraction of the slope at the start, or the bracket below this fraction of
# its right end.
_SLOPE_RTOL = 1e-10
_BRACKET_RTOL = 1e-14


def _objective_gradient(problem: MaxEntProblem) -> Callable[[np.ndarray], np.ndarray]:
    obj = problem.objective
    if isinstance(obj, Shannon):
        def grad(x):
            return -(1.0 + np.log(np.maximum(x, 1e-300)))

        return grad
    if isinstance(obj, FiducialMeasurementEntropy):
        effect_rows = [_effect_rows(m) for m in obj.measurements]

        def grad(x):
            g = np.zeros_like(x)
            for rows in effect_rows:
                probs = np.maximum(rows @ x, 1e-300)
                g -= (1.0 + np.log(probs)) @ rows
            return g

        return grad
    if isinstance(obj, CustomObjective):
        return obj.gradient
    raise IncompatibleObjective("solve_polytope needs a gradient-equipped objective")


def _slope_search(grad, x: np.ndarray, d: np.ndarray, t_max: float, slope0: float) -> float:
    """The step in [0, t_max] along d that maximizes a concave objective, found from its slope.

    The slope h(t) = grad(x + t d) . d is non-increasing, and h(0) = slope0 > 0.
    If h(t_max) >= 0 the step is t_max. Otherwise the root of h is bracketed
    by the Illinois variant of regula falsi (a secant step, bisection when the
    secant leaves the bracket) and the step is the bracket's left end, where
    h >= 0, so the objective does not decrease. 0 means no trial had h >= 0.
    At most ``_MAX_BACKTRACKS`` gradients are evaluated.
    """
    def slope(t):
        return float(grad(x + t * d) @ d)

    h_hi = slope(t_max)
    if h_hi >= 0.0:
        return t_max
    lo, hi, h_lo = 0.0, t_max, slope0
    secant_lo, secant_hi = h_lo, h_hi  # the values the secant uses; Illinois halves a stale one
    kept = 0  # +1 when the last trial moved lo, -1 when it moved hi
    for _ in range(_MAX_BACKTRACKS - 1):
        t = (lo * secant_hi - hi * secant_lo) / (secant_hi - secant_lo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        h = slope(t)
        if h >= 0.0:
            lo, h_lo, secant_lo = t, h, h
            if kept > 0:
                secant_hi *= 0.5
            kept = 1
        else:
            hi, secant_hi = t, h
            if kept < 0:
                secant_lo *= 0.5
            kept = -1
        if h_lo <= _SLOPE_RTOL * slope0 or hi - lo <= _BRACKET_RTOL * hi:
            break
    return lo


def solve_polytope(problem: MaxEntProblem, config: SolverConfig = DEFAULT_SOLVER) -> MaxEntSolution:
    """Away-step Frank-Wolfe maximization of a concave objective over the feasible hull.

    The iterate is a convex combination of an active set of feasible vertices
    (basic solutions of the mixing-weight system), starting from the one
    vertex that Phase I finds. Each iteration takes the Frank-Wolfe vertex s
    from an LP over mixing weights; the gap g.(s - x) is the stopping
    certificate, and CONVERGED means it is at most ``fw_gap_tol``. It then
    moves toward s, or away from the active vertex v that minimizes g.v when
    g.(x - v) is the larger gap, and a step that reaches its bound drops a
    vertex. The step is an exact line search on the objective's slope
    (``_slope_search``, at most ``_MAX_BACKTRACKS`` gradients), so the
    objective never decreases and no objective value is evaluated. A step
    that neither drops a vertex nor changes x (also when x + t d rounds back
    to x) ends the solve with NON_CONVERGENCE, as does ``fw_max_iter``.
    Phase I runs once per solve, and each LP is a Phase II warm-started from
    the previous optimal basis (Lacoste-Julien & Jaggi, NeurIPS 2015). Each
    active vertex keeps the LP's mixing weights that produced it, so a
    polytope result is certified by alpha times those weights, which
    ``State`` checks in O(nk) instead of solving a membership LP.
    """
    if problem.model.kind not in (CLASSICAL, POLYTOPE):
        raise IncompatibleObjective("solve_polytope handles classical and polytope models")
    if isinstance(problem.objective, VonNeumann):
        raise IncompatibleObjective("von Neumann entropy does not apply here")
    region = problem.region
    diag = SolveDiagnostics()
    if region.known_empty:
        return _infeasible(diag)
    if not region.h_rep and region.v_rep is not None:
        raise UnsupportedRepresentation("solve_polytope needs an H-representation")

    model = problem.model
    a, b = _weight_system(model, region.h_rep)
    basis = feasible_basis(a, b)
    if basis is None:
        return _infeasible(diag)

    # The active set: vertices (rows of atoms) with convex weights alpha, and
    # the mixing weights over the model's extreme states that give each
    # vertex (rows of mixes). It starts as the Phase I basic solution alone.
    w = basis.x()
    x = _weights_to_coords(model, w)
    atoms, mixes, alpha = x[None, :], w[None, :], np.ones(1)

    grad = _objective_gradient(problem)
    status = SolveStatus.NON_CONVERGENCE
    iterations = 0
    for iterations in range(1, config.fw_max_iter + 1):
        g = grad(x)
        lp = basis.optimize(_weight_rows(model, g), maximize=True)
        if lp.status != OPTIMAL:
            break
        s = _weights_to_coords(model, lp.x)
        gap = float(g @ (s - x))
        diag.fw_gap = gap
        if gap <= config.fw_gap_tol:
            status = SolveStatus.CONVERGED
            break
        scores = atoms @ g
        away = int(np.argmin(scores))
        toward = gap >= float(g @ x) - scores[away]
        if toward:
            d, t_max = s - x, 1.0
        else:
            d, t_max = x - atoms[away], alpha[away] / (1.0 - alpha[away])
        t = _slope_search(grad, x, d, t_max, float(g @ d))
        if t == 0.0:
            break
        n_atoms = len(alpha)
        if toward and t == t_max:
            atoms, mixes, alpha = s[None, :], lp.x[None, :], np.ones(1)
        elif toward:
            alpha *= 1.0 - t
            same = np.flatnonzero(np.max(np.abs(atoms - s), axis=1) <= _ATOM_ATOL)
            if same.size:
                alpha[same[0]] += t
            else:
                atoms, mixes, alpha = np.vstack([atoms, s]), np.vstack([mixes, lp.x]), np.append(alpha, t)
        else:
            alpha *= 1.0 + t
            alpha[away] -= t
            if t == t_max or alpha[away] <= 0.0:
                atoms, mixes, alpha = (np.delete(a, away, axis=0) for a in (atoms, mixes, alpha))
        moved = alpha @ atoms
        if np.array_equal(moved, x) and len(alpha) >= n_atoms:
            break
        x = moved

    weights = alpha @ mixes if model.kind == POLYTOPE else None
    return _solution(problem, x, (), None, iterations, status, diag, weights=weights)


def solve(problem: MaxEntProblem, config: SolverConfig = DEFAULT_SOLVER) -> MaxEntSolution:
    """Route to the model-appropriate solver."""
    if isinstance(problem.objective, (Shannon, VonNeumann)):
        return solve_dual(problem, config)
    return solve_polytope(problem, config)
