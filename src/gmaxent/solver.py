"""Maximum-entropy solvers over the meet of condition regions.

Two routes, which share one iteration cap, ``SolverConfig.max_iter``:

* ``solve_dual``: Shannon/von Neumann entropy on classical/quantum models via
  the exponential-family dual. The solved state has the Gibbs form
  exp(-lambda0 * 1 - sum_i lambda_i R_i) with lambda0 = ln Z, and the
  multipliers minimize the convex dual D(lambda) = ln Z(lambda) + lambda . r
  by damped Newton steps. The quantum Hessian is the Kubo-Mori covariance,
  computed from the divided-difference derivative of the matrix exponential.
  A single quantum condition is solved classically in its eigenbasis.
* ``solve_polytope``: the Shannon entropy of a linear image R x of the state
  on classical models (R = I) and polytope models (the outcome rows of a
  fiducial objective) via Frank-Wolfe over mixing weights. One Phase I per
  solve finds a feasible simplex basis, and its basic solution is the first
  iterate; every linear subproblem is then a Phase II that starts from the
  previous subproblem's optimal basis. The iterate is a convex mixture of an
  active set of feasible vertices; each step moves toward the Frank-Wolfe
  vertex by an exact line search on the objective's slope, and then Newton
  steps on the active weights follow, which drop the vertices whose weights
  reach zero. Only the Frank-Wolfe gap certifies convergence.

A brute-force grid oracle for small instances lives in ``oracle.py``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateInput,
    IncompatibleObjective,
    ModelMismatch,
    UnsupportedRepresentation,
)
from .hermitian import _LOG_ZERO_FLOOR, _divided_difference, _eigh, entropy_from_spectrum
from .models import (
    CLASSICAL,
    POLYTOPE,
    QUANTUM,
    ModelSpace,
    Observable,
    State,
    _sealed,
)
from .regions import ConvexRegion, _functional_matrix, _weight_rows, _weight_system, _weights_to_coords
from .simplex import OPTIMAL, feasible_basis

log = logging.getLogger("gmaxent")


@dataclass(frozen=True)
class SolverConfig:
    """Dual-Newton and Frank-Wolfe controls, the one record a caller overrides.

    ``--tolerance`` and a problem file's ``solver`` "tolerance" set ``grad_tol`` and ``fw_gap_tol``;
    ``--max-iter`` and "max_iter" set ``max_iter``, the one cap on Newton and Frank-Wolfe iterations.
    Every other threshold is a constant.
    """

    grad_tol: float = 1e-10             # stop when the dual gradient inf-norm is below
    residual_tol: ClassVar[float] = 1e-8  # redundancy and certificate bound; a constant the benchmark reads here
    max_iter: int = 500
    fw_gap_tol: float = 1e-7


DEFAULT_SOLVER = SolverConfig()


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


Objective = Shannon | VonNeumann | FiducialMeasurementEntropy

# The one objective type each model kind takes.
_OBJECTIVE_TYPES = {CLASSICAL: Shannon, QUANTUM: VonNeumann, POLYTOPE: FiducialMeasurementEntropy}


@dataclass(frozen=True)
class MaxEntProblem:
    model: ModelSpace
    region: ConvexRegion
    objective: Objective

    def __post_init__(self):
        if self.region.model != self.model:
            raise ModelMismatch("region belongs to a different model")
        obj = self.objective
        expected = _OBJECTIVE_TYPES[self.model.kind]
        if not isinstance(obj, expected):
            raise IncompatibleObjective(f"a {self.model.kind} model takes {expected.__name__}, not {type(obj).__name__}")
        if isinstance(obj, FiducialMeasurementEntropy):
            if not obj.measurements:
                raise DegenerateInput("a fiducial objective needs at least one measurement")
            for m in obj.measurements:
                if m.model != self.model:
                    raise ModelMismatch("fiducial measurement on a different model")


@dataclass
class SolveDiagnostics:
    """The constraints a dual solve kept and dropped, and its steepest-descent fallbacks."""

    kept_indices: tuple[int, ...] = ()
    dropped_indices: tuple[int, ...] = ()
    gradient_fallbacks: int = 0


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


def default_objective(model: ModelSpace) -> Objective:
    if model.kind == POLYTOPE:
        raise IncompatibleObjective("polytope models need an explicit objective")
    return _OBJECTIVE_TYPES[model.kind]()


# ---------------------------------------------------------------------------
# Exponential-family machinery
# ---------------------------------------------------------------------------


class _cached(cached_property):
    """``cached_property`` without the lock that Python 3.10 and 3.11 take on every first read."""

    def __get__(self, instance, owner=None):
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class _DualEvaluation:
    """The dual at one multiplier vector.

    ``lnz``, ``spectrum`` (classical probabilities or quantum eigenvalues)
    and ``top``, the largest eigenvalue of the exponent -sum_i lambda_i R_i,
    are set on construction from the exponent's eigenvalues; the means and the
    state coordinates are computed on first use and cached, and the Hessian,
    which a solve reads once per iterate, on each call. A rejected line-search
    trial reads only ``lnz``. A single quantum condition is evaluated
    classically in its eigenbasis.
    """

    def _gibbs(self, energy: np.ndarray) -> np.ndarray:
        """Set ``top``, ``lnz`` and ``spectrum`` from the exponent's eigenvalues ``energy``; return energy - top."""
        self.top = float(energy.max())
        shifted = energy - self.top
        self.spectrum = np.exp(shifted)
        self._z = float(self.spectrum.sum())
        self.lnz = self.top + float(np.log(self._z))
        self.spectrum /= self._z
        return shifted

    def hessian(self) -> np.ndarray:
        return self._hessian()


class _ClassicalEvaluation(_DualEvaluation):
    def __init__(self, funcs: np.ndarray, lambdas: np.ndarray):
        self._gibbs(-(lambdas @ funcs))
        self._funcs = funcs

    @property
    def state_coords(self) -> np.ndarray:
        return self.spectrum

    @_cached
    def means(self) -> np.ndarray:
        return self._funcs @ self.spectrum

    def _hessian(self) -> np.ndarray:
        # Covariance as one symmetric product S S^T (BLAS syrk): S the
        # centered functionals scaled by sqrt(p).
        scaled = self._funcs - self.means[:, None]
        scaled *= np.sqrt(self.spectrum)
        return scaled @ scaled.T


class _EigenbasisReadout:
    """The state of a quantum evaluation, rho = U diag(p) U^H = B B^H with B = U diag(sqrt(p)), read from the
    eigenbasis U of its exponent; U is None for the standard basis, at lambda = 0."""

    @_cached
    def _rho(self) -> np.ndarray:
        return np.diag(self.spectrum) if self._u is None else (self._u * self.spectrum) @ self._u.conj().T

    @_cached
    def state_coords(self) -> np.ndarray:
        return self._model.matrix_to_coords(self._rho)

    def factor(self) -> np.ndarray:
        return (np.eye(self._model.dim) if self._u is None else self._u) * np.sqrt(self.spectrum)


class _QuantumEvaluation(_EigenbasisReadout, _DualEvaluation):
    """The quantum dual, read in the eigenbasis U of the exponent.

    At lambda = 0, where every solve starts, the state is I/d: the spectrum is
    uniform and U = I, exactly what ``eigh`` of the zero exponent returns, so
    ``eigh`` does not run. The means are tr(R_i rho); only a Hessian rotates R_i.
    """

    def __init__(self, model, operators: np.ndarray, lambdas: np.ndarray):
        d = model.dim
        self._model, self._operators, self._u = model, operators, None
        if not lambdas.any():
            self._shifted = self._gibbs(np.zeros(d))
            return
        k, self._u = _eigh((-lambdas @ operators.reshape(-1, d * d)).reshape(d, d))
        self._shifted = self._gibbs(k)

    @_cached
    def means(self) -> np.ndarray:
        # tr(R rho) = sum_jk R_jk conj(rho_jk), rho being Hermitian.
        return (self._operators.reshape(-1, self._model.ambient_dim) @ self._rho.ravel().conj()).real

    def _hessian(self) -> np.ndarray:
        # Kubo-Mori covariance as one symmetric product S S^T (BLAS syrk): S the
        # rotated operators scaled by sqrt(phi), phi > 0 the divided differences
        # of exp, viewed as real rows of 2 d^2 entries, so S S^T = Re(conj(S) S^T).
        # At U = I every phi is 1, and S is the operator stack itself.
        scaled = self._operators.reshape(-1, self._model.ambient_dim)
        if self._u is not None:
            scaled = (self._u.conj().T @ self._operators @ self._u).reshape(scaled.shape)
            scaled *= np.sqrt(_divided_difference(self._shifted).ravel())
        scaled = scaled.view(float)
        return (scaled @ scaled.T) / self._z - np.multiply.outer(self.means, self.means)


class _CommutingEvaluation(_EigenbasisReadout, _ClassicalEvaluation):
    """Commuting R_i = U diag(a_i) U^H: the classical dual on the rows a_i, whose covariance is the Kubo-Mori one;
    no evaluation runs ``eigh``, and only the state is read back through U.
    ``_evaluator`` builds it for a single condition, from that operator's ``eigh``."""

    def __init__(self, model, u: np.ndarray, diagonals: np.ndarray, lambdas: np.ndarray):
        super().__init__(diagonals, lambdas)
        self._model, self._u = model, u


def _evaluator(model: ModelSpace, funcs: np.ndarray) -> Callable[[np.ndarray], _DualEvaluation]:
    """The dual as a function of the multipliers, for the functionals stacked as the rows of funcs.

    Classical evaluations read funcs itself; quantum rows are converted to operators once, here, in one pass.
    One quantum condition commutes with itself, so it is diagonalized once, here, and evaluated classically in
    its eigenbasis; two or more conditions, and the empty stack, take the Kubo-Mori path.
    """
    if model.kind == CLASSICAL:
        return partial(_ClassicalEvaluation, funcs)
    operators = model.coords_to_matrices(funcs)
    if len(funcs) != 1:
        return partial(_QuantumEvaluation, model, operators)
    k, u = _eigh(operators[0])
    return partial(_CommutingEvaluation, model, u, k[None])


_MULTIPLIER_BOUND = 1e4       # max |lambda| past this => recession certificate decides
_HESSIAN_RIDGE = 1e-12
_RANK_PIVOT_TOL = 1e-10       # constraint independence threshold
_BOUNDARY_RANK_TOL = 1e-9     # min spectrum below this => BoundaryOnly
_BOUNDARY_RESIDUAL_TOL = 1e-3 # past the bound, no certificate, residual below => BoundaryOnly
_ARMIJO_C = 1e-4
_CURVATURE_C = 0.25           # a unit step whose slope keeps more than this share extrapolates
_MAX_BACKTRACKS = 60          # also the slope-trial cap of a Frank-Wolfe line search
_QR_BLOCK_BYTES = 256 * 1024  # a column block of the condition stack this size stays in cache


def _stack_r(stack: np.ndarray) -> np.ndarray:
    """R of a Householder QR of stack.T as a tall-skinny QR (TSQR; Demmel, Grigori, Hoemmen & Langou 2012).

    ``np.linalg.qr`` copies its whole input twice, so column blocks of about ``_QR_BLOCK_BYTES`` are factored in cache
    and their stacked R factors once more. A stack that fits one block is one ``np.linalg.qr`` call on it.
    """
    width = max(len(stack), _QR_BLOCK_BYTES // (len(stack) * stack.itemsize))
    blocks = [np.linalg.qr(stack[:, s : s + width].T, mode="r") for s in range(0, stack.shape[1], width)]
    return blocks[0] if len(blocks) == 1 else np.linalg.qr(np.concatenate(blocks), mode="r")


def _select_independent(funcs: np.ndarray, norms: Sequence[float], targets: np.ndarray, config: SolverConfig):
    """Greedy rank filter over the rows of funcs, whose 2-norms are norms; returns (kept, dropped, contradiction?).

    The rule is ``solve_dual``'s. The pivots of one blocked QR, ``_stack_r``, are read up to the first below the floor
    (a lone row's is its norm, a row past the width has none); past it the factor rests on a noise reflector, so
    refactor without it. Its blocks stay in cache, where one ``np.linalg.qr`` would copy a Classical(10^4) stack twice.
    """
    kept: list[int] = []
    dropped: list[int] = []
    start = 0
    while start < len(funcs):
        rows = kept + list(range(start, len(funcs)))
        stack = funcs[rows] if dropped else funcs
        pivots = np.abs(_stack_r(stack).diagonal()) if len(rows) > 1 else [norms[start]]
        start = len(funcs)
        for j, i in enumerate(rows[len(kept):], len(kept)):
            if j < len(pivots) and pivots[j] > _RANK_PIVOT_TOL * max(1.0, norms[i]):
                kept.append(i)
                continue
            coeff, *_ = np.linalg.lstsq(funcs[kept].T, funcs[i], rcond=None)
            if abs(float(coeff @ targets[kept]) - targets[i]) > config.residual_tol * max(1.0, abs(targets[i])):
                return kept, dropped, True
            dropped.append(i)
            log.warning("dropping redundant constraint %d (consistent with kept set)", i)
            start = i + 1
            break
    return kept, dropped, False


def _solution(problem, coords, multipliers, lambda0, iterations, status, diag, value, **certificate) -> MaxEntSolution:
    """The result at the solved coordinates; value is the objective there, certificate what ``State`` takes."""
    state = State(problem.model, _sealed(coords), **certificate)
    return MaxEntSolution(
        state=state,
        multipliers=np.asarray(multipliers, dtype=float),
        lambda0=lambda0,
        entropy=value,
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

    The line search backtracks from the unit step (capped at
    ``_MULTIPLIER_BOUND`` in max-norm) until the Armijo condition holds. When
    the unit step passes at once but the dual's slope there still exceeds
    ``_CURVATURE_C`` of the slope at the start, as along the exponential tail
    of a near-boundary target, the step is doubled while the dual keeps
    falling under the Armijo line, and the doubling stops once max |lambda|
    passes ``_MULTIPLIER_BOUND``; the best point is kept (the extrapolation
    phase of Nocedal & Wright, Numerical Optimization, Alg. 3.5), so max
    |lambda| stays below about three times the bound.

    Statuses: CONVERGED when the dual gradient drops below tolerance and the
    solved state has full support; BOUNDARY_ONLY when it converges onto a
    rank-deficient limiting state. Past ``_MULTIPLIER_BOUND`` the recession
    certificate c = u . r + lambda_max(-sum_i u_i R_i), u = lambda/|lambda|,
    decides for both models: a state meeting the conditions would give
    c >= 0, so c < -``residual_tol`` is INFEASIBLE with the multipliers as
    witness (Boyd & Vandenberghe, Convex Optimization, 5.8); otherwise the
    status is BOUNDARY_ONLY when the residuals are within
    ``_BOUNDARY_RESIDUAL_TOL``, else NON_CONVERGENCE, as at the iteration cap,
    which also ends a solve whose cap comes before the bound. Before any
    Newton step, condition i is kept when its residual off the kept ones
    before it, |R_ii| of a Householder QR, exceeds ``_RANK_PIVOT_TOL`` *
    max(1, |f_i|); otherwise it is dropped when the kept ones imply its target
    within ``residual_tol`` * max(1, |r_i|), and the solve is INFEASIBLE when
    they do not. The QR is a blocked tall-skinny one, ``_stack_r``, since
    ``np.linalg.qr`` copies the whole condition stack twice and a block of
    it stays in cache. ``iterations`` counts the Newton steps taken. A quantum
    result's state is certified by its factor U diag(sqrt(p)) from the last
    ``eigh``; no eigensolver reruns. A single kept operator R = U diag(a) U^H
    commutes with itself: it is diagonalized once, and the dual is the
    classical one on a, with the same statuses and steps; the factor is then
    U diag(sqrt(p)). Two or more kept operators take the Kubo-Mori path.
    """
    if not isinstance(problem.objective, (Shannon, VonNeumann)):
        raise IncompatibleObjective("solve_dual handles Shannon and von Neumann objectives")
    region = problem.region
    diag = SolveDiagnostics()
    if region.known_empty:
        return _infeasible(diag)
    if region.v_rep is not None:
        raise UnsupportedRepresentation("solve_dual needs an H-representation")

    # A quantum solve holds an (m, d^2) functional stack and an (m, d, d)
    # operator stack throughout. Its state coordinates are allocated before
    # both, so that a caller keeping many solutions keeps them packed instead
    # of each pinning a hole in the heap (kept Quantum(32) solutions: 9.0 KB
    # of RSS each, 9.3 KB when allocated after the functional stack).
    coords = np.empty(problem.model.ambient_dim) if problem.model.kind == QUANTUM else None
    constraints = region.h_rep
    targets = np.array([c.target for c in constraints])
    funcs = _functional_matrix(problem.model, constraints)
    kept, dropped, contradiction = _select_independent(funcs, [c.norm for c in constraints], targets, config)
    if contradiction:
        return _infeasible(diag)
    diag.kept_indices = tuple(kept)
    diag.dropped_indices = tuple(dropped)
    r = targets[kept]
    dual_at = _evaluator(problem.model, funcs[kept] if dropped else funcs)
    lambdas = np.zeros(len(kept))
    ridge = _HESSIAN_RIDGE * np.eye(len(kept))
    ev = dual_at(lambdas)
    status = SolveStatus.NON_CONVERGENCE
    iterations = 0

    for iterations in range(config.max_iter + 1):
        g = r - ev.means
        res_norm = float(np.abs(g).max()) if len(g) else 0.0
        if res_norm <= config.grad_tol:
            boundary = float(ev.spectrum.min()) < _BOUNDARY_RANK_TOL
            status = SolveStatus.BOUNDARY_ONLY if boundary else SolveStatus.CONVERGED
            break
        if iterations == config.max_iter:
            break

        h = ev.hessian()
        try:
            # m = 1: h + ridge > 0 (h is a sum of squares), and dividing skips np.linalg.solve's wrapper, bit for bit
            direction = g / (h[0, 0] + _HESSIAN_RIDGE) if len(g) == 1 else np.linalg.solve(h + ridge, g)
            slope = float(g @ direction)
        except np.linalg.LinAlgError:
            slope = 0.0
        if not slope > 0.0:  # singular, or not a descent direction for D; fall back to steepest descent
            direction = g
            slope = float(g @ g)
            diag.gradient_fallbacks += 1
        # Descent direction for D is -direction: D'(t) = -g . direction at t=0.
        d0 = ev.lnz + float(lambdas @ r)
        reach = float(np.abs(direction).max())
        if slope <= 1e-14 * (1.0 + abs(d0)) and reach <= 1.0:
            # Predicted decrease is below the float resolution of D, so the
            # line search cannot see it; this is the quadratic regime, where
            # the pure Newton step is safe and contracts the gradient.
            lambdas = lambdas - direction
            ev = dual_at(lambdas)
            continue
        # A unit step longer than the bound (a near-singular Hessian) is cut to
        # the bound, so no trial leaves twice the bound.
        step = 1.0 if reach <= _MULTIPLIER_BOUND else _MULTIPLIER_BOUND / reach
        accepted = None
        for _ in range(_MAX_BACKTRACKS):
            trial = lambdas - step * direction
            ev_trial = dual_at(trial)
            value = ev_trial.lnz + float(trial @ r)
            if value <= d0 - _ARMIJO_C * step * slope:
                accepted = (trial, ev_trial)
                break
            step /= 2.0
        if accepted is None or not (accepted[0] != lambdas).any():
            break
        if step == 1.0 and float((r - ev_trial.means) @ direction) > _CURVATURE_C * slope:
            # The dual still falls steeply at the unit step, as along an
            # exponential tail: double the step while the value keeps falling
            # under the Armijo line, up to the multiplier bound.
            best = value
            while float(np.abs(trial).max()) <= _MULTIPLIER_BOUND:
                step *= 2.0
                trial = lambdas - step * direction
                ev_trial = dual_at(trial)
                value = ev_trial.lnz + float(trial @ r)
                if not (value < best and value <= d0 - _ARMIJO_C * step * slope):
                    break
                accepted, best = (trial, ev_trial), value
        lambdas, ev = accepted
        if float(np.abs(lambdas).max()) > _MULTIPLIER_BOUND:
            iterations += 1  # the status is decided after this pass's step
            # lambda_max is positively homogeneous, so c at u = lambda/|lambda| is this over |lambda|.
            if ev.top + float(lambdas @ r) < -config.residual_tol * np.linalg.norm(lambdas):
                status = SolveStatus.INFEASIBLE
            elif float(np.abs(r - ev.means).max()) <= _BOUNDARY_RESIDUAL_TOL:
                status = SolveStatus.BOUNDARY_ONLY
            break

    if status is SolveStatus.INFEASIBLE:
        return _infeasible(diag, lambdas, iterations)
    if coords is None:
        coords, factor = ev.state_coords, None
    else:
        coords[:], factor = ev.state_coords, ev.factor()
    entropy = entropy_from_spectrum(ev.spectrum)
    return _solution(problem, coords, lambdas, ev.lnz, iterations, status, diag, entropy, factor=factor)


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
_FACE_NEWTON_STEPS = 3  # at most this many Newton steps on the active face after each Frank-Wolfe step


def _objective_terms(problem: MaxEntProblem):
    """(value, gradient, line, face) of the objective, the Shannon entropy of one linear image R x.

    R = I for Shannon, and for a fiducial objective every measurement's outcome
    rows stacked once, here. line(x, d) is the slope t -> grad(x + t d) . d; it
    computes R x and R d once, so each slope trial is one pass over the outcome
    probabilities. face(x, atoms) is the Hessian A H A^T over weights on the
    rows of A = atoms, at x, with H = -R^T diag(1/R x) R.
    """
    obj = problem.objective
    rows = None
    if not isinstance(obj, Shannon):
        rows = np.array([out.effect.functional for m in obj.measurements for out in m.outcomes])

    def image(v):
        return v if rows is None else rows @ v

    def value(x):
        return entropy_from_spectrum(image(x))

    def grad(x):
        g = -(1.0 + np.log(np.maximum(image(x), _LOG_ZERO_FLOOR)))
        return g if rows is None else g @ rows

    def line(x, d):
        rx, rd = image(x), image(d)
        return lambda t: float(-(1.0 + np.log(np.maximum(rx + t * rd, _LOG_ZERO_FLOOR))) @ rd)

    def face(x, atoms):
        ra = image(atoms.T)
        return -(ra.T / np.maximum(image(x), _LOG_ZERO_FLOOR)) @ ra

    return value, grad, line, face


def _slope_search(slope: Callable[[float], float], t_max: float, slope0: float) -> float:
    """The step in [0, t_max] that maximizes a concave objective along a line, found from its slope.

    slope(t) = grad(x + t d) . d is non-increasing, and slope(0) = slope0 > 0.
    If slope(t_max) >= 0 the step is t_max. Otherwise the root is bracketed
    by the Illinois variant of regula falsi (a secant step, bisection when the
    secant leaves the bracket) and the step is the bracket's left end, where
    the slope is >= 0, so the objective does not decrease. 0 means no trial
    had a slope >= 0. At most ``_MAX_BACKTRACKS`` slope trials are evaluated.
    """
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


def _face_newton(face, grad, line, x, atoms, mixes, alpha):
    """At most ``_FACE_NEWTON_STEPS`` Newton steps on the active weights alpha over {alpha >= 0, sum alpha = 1}.

    delta solves [Q, 1; 1^T, 0] (delta, nu) = (-A g, 0), Q = face(x, A), A = atoms, by ``lstsq`` (the vertices
    can be affinely dependent), then is centred, since lstsq leaves sum delta up to 1e-4 max |delta| on sphere
    polytopes. An exact line search stops at the first weight to reach zero, and drops that vertex. Fewer than
    three vertices span a point or a segment, where the Frank-Wolfe line search is already exact: no step runs.
    """
    for _ in range(_FACE_NEWTON_STEPS):
        k = len(alpha)
        if k < 3:
            break
        g = grad(x)
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = face(x, atoms)
        kkt[k, k] = 0.0
        delta = np.linalg.lstsq(kkt, np.append(-(atoms @ g), 0.0), rcond=None)[0][:k]
        delta -= delta.mean()
        d = delta @ atoms
        slope0 = float(g @ d)
        shrinking = np.flatnonzero(delta < 0.0)
        if not (slope0 > 0.0 and shrinking.size):
            break
        ratios = alpha[shrinking] / -delta[shrinking]
        t_max = float(ratios.min())
        t = _slope_search(line(x, d), t_max, slope0)
        if t == 0.0:
            break
        alpha = alpha + t * delta
        if t == t_max:
            alpha[shrinking[ratios.argmin()]] = 0.0
        keep = alpha > 0.0
        atoms, mixes, alpha = atoms[keep], mixes[keep], alpha[keep]
        x = alpha @ atoms
    return x, atoms, mixes, alpha


def solve_polytope(problem: MaxEntProblem, config: SolverConfig = DEFAULT_SOLVER) -> MaxEntSolution:
    """Frank-Wolfe with Newton steps on the active face: the entropy of R x maximized over the feasible hull.

    The iterate is a convex combination of an active set of feasible vertices
    (basic solutions of the mixing-weight system), starting from the one
    vertex that Phase I finds. Each iteration takes the Frank-Wolfe vertex s
    from an LP over mixing weights; the gap g.(s - x) is the stopping
    certificate, and CONVERGED means it is at most ``fw_gap_tol``. It then
    moves toward s by an exact line search on the objective's slope over
    [0, 1] (``_slope_search``, at most ``_MAX_BACKTRACKS`` slope trials), so
    the objective never decreases; a full step makes s the only active
    vertex. The objective's value is evaluated once, for the result, from the
    same linear image as its gradient (``_objective_terms``). A step that
    leaves x unchanged (also when x + t d rounds back to x) ends the solve
    with NON_CONVERGENCE, as does the shared ``max_iter``. After each step, Newton
    steps on the active weights follow (``_face_newton``); their exact line
    search stops at the first weight to reach zero and drops that vertex, as
    fully corrective Frank-Wolfe variants shrink the active set
    (Lacoste-Julien & Jaggi, NeurIPS 2015; Braun, Pokutta, Tu & Wright, ICML
    2019). Phase I runs once per solve, and each LP is a Phase II
    warm-started from the previous optimal basis. Each active vertex keeps
    the LP's mixing weights that produced it, so a polytope result is
    certified by alpha times those weights, which ``State`` checks in O(nk)
    instead of solving a membership LP. The polytopes of the tests and the
    benchmark converge within 13 iterations, but a classical model takes
    about d - m, so at the default cap of 500 Classical(d >~ 500) ends with
    NON_CONVERGENCE; ``solve`` sends Shannon problems to the dual instead.
    """
    if problem.model.kind not in (CLASSICAL, POLYTOPE):
        raise IncompatibleObjective("solve_polytope handles classical and polytope models")
    region = problem.region
    diag = SolveDiagnostics()
    if region.known_empty:
        return _infeasible(diag)
    if region.v_rep is not None:
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

    value, grad, line, face = _objective_terms(problem)
    status = SolveStatus.NON_CONVERGENCE
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        g = grad(x)
        lp = basis.optimize(_weight_rows(model, g), maximize=True)
        if lp.status != OPTIMAL:
            break
        s = _weights_to_coords(model, lp.x)
        gap = float(g @ (s - x))
        if gap <= config.fw_gap_tol:
            status = SolveStatus.CONVERGED
            break
        t = _slope_search(line(x, s - x), 1.0, gap)
        if t == 0.0:
            break
        if t == 1.0:
            atoms, mixes, alpha = s[None, :], lp.x[None, :], np.ones(1)
        else:
            alpha *= 1.0 - t
            same = np.flatnonzero(np.max(np.abs(atoms - s), axis=1) <= _ATOM_ATOL)
            if same.size:
                alpha[same[0]] += t
            else:
                atoms, mixes, alpha = np.vstack([atoms, s]), np.vstack([mixes, lp.x]), np.append(alpha, t)
        moved = alpha @ atoms
        if np.array_equal(moved, x):
            break
        x, atoms, mixes, alpha = _face_newton(face, grad, line, moved, atoms, mixes, alpha)

    weights = alpha @ mixes if model.kind == POLYTOPE else None
    return _solution(problem, x, (), None, iterations, status, diag, float(value(x)), weights=weights)


def solve(problem: MaxEntProblem, config: SolverConfig = DEFAULT_SOLVER) -> MaxEntSolution:
    """Route to the model-appropriate solver."""
    if isinstance(problem.objective, (Shannon, VonNeumann)):
        return solve_dual(problem, config)
    return solve_polytope(problem, config)
