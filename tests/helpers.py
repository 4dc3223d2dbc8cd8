"""Shared generators for the test suite."""

import numpy as np

from gmaxent import (
    Classical,
    ConvexRegion,
    Effect,
    FiducialMeasurementEntropy,
    HermitianMatrix,
    MaxEntProblem,
    Observable,
    Outcome,
    Polytope,
    Quantum,
    Shannon,
    VonNeumann,
    evaluate,
    includes,
    indicator_observable,
    random_effect,
    random_povm,
    random_state,
    region_from_effect,
    region_from_mean,
    whole_space,
)
from gmaxent.hermitian import _LOG_ZERO_FLOOR, _divided_difference
from gmaxent.regions import _DUPLICATE_RTOL, LinearConstraint
from gmaxent.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult
from gmaxent.solver import _ClassicalEvaluation


def hermitian_basis(d):
    """Dense orthonormal Hermitian basis of d x d operators, in the coordinate
    order of ``Quantum(d)``: the reference its closed-form conversions are
    checked against.

    Order: normalized identity, then symmetric and antisymmetric off-diagonal
    generators for each i < j, then the d-1 diagonal traceless generators.
    """
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[0] = np.eye(d) / np.sqrt(d)
    idx = 1
    for i in range(d):
        for j in range(i + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0 / np.sqrt(2.0)
            basis[idx] = sym
            idx += 1
            anti = np.zeros((d, d), dtype=complex)
            anti[i, j] = 1j / np.sqrt(2.0)
            anti[j, i] = -1j / np.sqrt(2.0)
            basis[idx] = anti
            idx += 1
    for level in range(1, d):
        diag = np.zeros(d)
        diag[:level] = 1.0
        diag[level] = -level
        basis[idx] = np.diag(diag / np.sqrt(level * (level + 1))).astype(complex)
        idx += 1
    basis.setflags(write=False)
    return basis


# ---------------------------------------------------------------------------
# Spectral matrix functions: references for the quantum dual's closed forms.
# ---------------------------------------------------------------------------

# Top eigenvalue above which matrix_exp refuses rather than overflow.
EXP_OVERFLOW = 700.0
# Eigenvalues below -this make matrix_log refuse.
LOG_NEGATIVE_ATOL = 1e-10


def _hermitize(raw):
    # Symmetrize first so the construction check never trips on rounding
    # noise at large norms.
    return HermitianMatrix((raw + raw.conj().T) / 2.0)


def matrix_exp(m):
    """exp(m) via the spectral decomposition; OverflowError past the safe range."""
    k, u = np.linalg.eigh(m.entries)
    if k[-1] > EXP_OVERFLOW:
        raise OverflowError(f"max eigenvalue {k[-1]:.3g} exceeds exp range; pre-shift the spectrum")
    return _hermitize((u * np.exp(k)) @ u.conj().T)


def matrix_log(m):
    """Spectral logarithm of a positive-semidefinite matrix.

    Eigenvalues below the zero floor are assigned ln = 0 (the 0 ln 0 = 0
    convention of entropy contractions); eigenvalues meaningfully negative
    raise ValueError.
    """
    k, u = np.linalg.eigh(m.entries)
    if k[0] < -LOG_NEGATIVE_ATOL:
        raise ValueError(f"eigenvalue {k[0]:.3g} is negative")
    logk = np.where(k > _LOG_ZERO_FLOOR, np.log(np.maximum(k, _LOG_ZERO_FLOOR)), 0.0)
    return _hermitize((u * logk) @ u.conj().T)


def frechet_exp_directional(m, h):
    """Directional derivative of the matrix exponential at m along h.

    In the eigenbasis of m it is the entrywise product of the rotated
    direction with the divided-difference kernel of exp.
    """
    if m.dim != h.dim:
        raise ValueError(f"dimension mismatch: {m.dim} vs {h.dim}")
    k, u = np.linalg.eigh(m.entries)
    hp = u.conj().T @ h.entries @ u
    phi = _divided_difference(k)
    return _hermitize(u @ (hp * phi) @ u.conj().T)


def reference_classical_hessian(ev):
    """The classical dual Hessian as the general product (C * p) C^T, C the centered functionals."""
    centered = ev._funcs - ev.means[:, None]
    return (centered * ev.spectrum) @ centered.T


def reference_quantum_hessian(ev):
    """The Kubo-Mori dual Hessian as the complex contraction Re(R^H (phi * R)) / Z - m m^T."""
    phi = _divided_difference(ev._shifted)
    rotated = ev._rotated.reshape(-1, phi.size)
    h = ((rotated.conj() * phi.ravel()) @ rotated.T).real / ev._z
    return h - np.outer(ev.means, ev.means)


def reference_hessian(ev):
    """Either reference Hessian; a drop-in for ``_DualEvaluation.hessian``."""
    if isinstance(ev, _ClassicalEvaluation):
        return reference_classical_hessian(ev)
    return reference_quantum_hessian(ev)


# ---------------------------------------------------------------------------
# Dense-tableau two-phase simplex with Bland's rule: the reference the
# revised simplex in ``gmaxent.simplex`` is checked against.
# ---------------------------------------------------------------------------


def _tableau_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _tableau_simplex(tableau, basis, cost, pivot_tol):
    """Minimize cost over the tableau in place. Returns OPTIMAL or UNBOUNDED."""
    m = tableau.shape[0]
    n = tableau.shape[1] - 1
    for _ in range(200_000):
        reduced = cost - cost[basis] @ tableau[:, :n]
        entering = next((j for j in range(n) if reduced[j] < -pivot_tol), -1)
        if entering < 0:
            return OPTIMAL
        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            a = tableau[i, entering]
            if a > pivot_tol:
                ratio = tableau[i, n] / a
                if ratio < best_ratio - pivot_tol or (
                    abs(ratio - best_ratio) <= pivot_tol and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED
        _tableau_pivot(tableau, basis, leaving, entering)
    raise RuntimeError("reference simplex exceeded the pivot budget")


def _tableau_phase_one(a_eq, b_eq, pivot_tol):
    a = np.atleast_2d(np.asarray(a_eq, dtype=float)).copy()
    b = np.asarray(b_eq, dtype=float).copy()
    m, n = a.shape
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    tableau = np.hstack([a, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    _tableau_simplex(tableau, basis, cost, pivot_tol)
    return tableau, basis, n, float(cost[basis] @ tableau[:, -1])


def _tableau_solution(tableau, basis, n):
    x = np.zeros(tableau.shape[1] - 1)
    x[basis] = tableau[:, -1]
    return np.maximum(x[:n], 0.0)


def reference_phase_one(a_eq, b_eq, pivot_tol=1e-10, feas_tol=1e-8):
    """(artificial sum, x or None), as ``gmaxent.simplex.phase_one``."""
    tableau, basis, n, residual = _tableau_phase_one(a_eq, b_eq, pivot_tol)
    return residual, None if residual > feas_tol else _tableau_solution(tableau, basis, n)


def reference_solve_lp(c, a_eq, b_eq, maximize=False, pivot_tol=1e-10, feas_tol=1e-8):
    """Two-phase dense-tableau simplex, as ``gmaxent.simplex.solve_lp``."""
    c = np.asarray(c, dtype=float)
    tableau, basis, n, residual = _tableau_phase_one(a_eq, b_eq, pivot_tol)
    if residual > feas_tol:
        return LpResult(INFEASIBLE, None, None)
    m = len(basis)
    keep_rows = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            j = next((j for j in range(n) if abs(tableau[i, j]) > pivot_tol), None)
            if j is None:
                keep_rows[i] = False
            else:
                _tableau_pivot(tableau, basis, i, j)
    tableau = np.hstack([tableau[keep_rows][:, :n], tableau[keep_rows][:, -1:]])
    basis = [basis[i] for i in range(m) if keep_rows[i]]
    if _tableau_simplex(tableau, basis, -c if maximize else c.copy(), pivot_tol) == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    x = _tableau_solution(tableau, basis, n)
    return LpResult(OPTIMAL, x, float(c @ x))


class ReferenceBasis:
    """Stands in for ``gmaxent.simplex.Basis``: every LP is a cold two-phase tableau solve.

    ``x()`` is the basic solution Phase I ended at, then the last LP's optimum.
    """

    def __init__(self, a_eq, b_eq, pivot_tol, feas_tol, x):
        self.a_eq, self.b_eq, self.pivot_tol, self.feas_tol, self._x = a_eq, b_eq, pivot_tol, feas_tol, x

    def x(self):
        return self._x.copy()

    def optimize(self, c, maximize=False):
        result = reference_solve_lp(c, self.a_eq, self.b_eq, maximize, self.pivot_tol, self.feas_tol)
        if result.status == OPTIMAL:
            self._x = result.x
        return result


def reference_feasible_basis(a_eq, b_eq, pivot_tol=1e-10, feas_tol=1e-8):
    """``gmaxent.simplex.feasible_basis`` on the reference kernel."""
    residual, x = reference_phase_one(a_eq, b_eq, pivot_tol, feas_tol)
    return None if x is None else ReferenceBasis(a_eq, b_eq, pivot_tol, feas_tol, x)


def random_hermitian(rng, d, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianMatrix(scale * (g + g.conj().T) / 2.0)


def random_density(rng, d, ridge=0.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T + ridge * np.eye(d)
    return rho / np.trace(rho).real


def random_projector_family(rng, d, n_groups=2):
    """Pairwise orthogonal projectors from a random unitary column partition."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    cuts = sorted(rng.choice(np.arange(1, d), size=min(n_groups - 1, d - 1), replace=False))
    groups = np.split(np.arange(d), cuts)
    family = []
    for cols in groups:
        block = q[:, cols]
        family.append(HermitianMatrix(block @ block.conj().T))
    return family


def random_quantum_problem(rng, d, n_constraints):
    """Random Hermitian constraints with targets from an interior state."""
    model = Quantum(d)
    anchor = random_density(rng, d, ridge=0.2 * d)
    constraints = []
    for _ in range(n_constraints):
        op = random_hermitian(rng, d).entries
        functional = model.matrix_to_coords(op)
        target = float(np.trace(anchor @ op).real)
        constraints.append(LinearConstraint(model, functional, target))
    region = ConvexRegion(model, tuple(constraints))
    return MaxEntProblem(model, region, VonNeumann())


def random_classical_problem(rng, d, n_constraints):
    model = Classical(d)
    anchor = np.exp(rng.standard_normal(d))
    anchor += 0.2
    anchor /= anchor.sum()
    constraints = []
    for _ in range(n_constraints):
        functional = rng.uniform(-1.0, 1.0, d)
        constraints.append(LinearConstraint(model, functional, float(functional @ anchor)))
    region = ConvexRegion(model, tuple(constraints))
    return MaxEntProblem(model, region, Shannon())


def squarebit_model():
    return Polytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def squarebit_measurements(model):
    mx = Observable(
        model,
        (
            Outcome("+", Effect(model, np.array([0.5, 0.5, 0.0])), 1.0),
            Outcome("-", Effect(model, np.array([0.5, -0.5, 0.0])), -1.0),
        ),
    )
    my = Observable(
        model,
        (
            Outcome("+", Effect(model, np.array([0.5, 0.0, 0.5])), 1.0),
            Outcome("-", Effect(model, np.array([0.5, 0.0, -0.5])), -1.0),
        ),
    )
    return mx, my


def squarebit_problem(region=None, model=None):
    model = model or squarebit_model()
    mx, my = squarebit_measurements(model)
    objective = FiducialMeasurementEntropy((mx, my))
    return MaxEntProblem(model, region if region is not None else whole_space(model), objective)


def regular_polygon(n):
    """The regular n-gon inscribed in the unit circle, as a polytope model."""
    angles = 2.0 * np.pi * np.arange(n) / n
    return Polytope(np.column_stack([np.cos(angles), np.sin(angles)]))


def sphere_polytope(n_vertices, dim, rng):
    """A polytope whose vertices are random points on the unit sphere in R^dim."""
    raw = rng.standard_normal((n_vertices, dim))
    return Polytope(raw / np.linalg.norm(raw, axis=1, keepdims=True))


def fiducial_polytope_problem(model, rng):
    """Two random 3-outcome fiducial measurements and one random effect condition.

    The condition's target is the effect's value at a random interior state,
    so the region is non-empty.
    """
    objective = FiducialMeasurementEntropy((random_povm(model, rng, 3), random_povm(model, rng, 3)))
    effect = random_effect(model, rng)
    region = region_from_effect(effect, evaluate(effect, random_state(model, rng)))
    return MaxEntProblem(model, region, objective)


def fiducial_gradient(objective, coords):
    """Gradient of the summed fiducial outcome entropies at coords."""
    g = np.zeros_like(coords)
    for measurement in objective.measurements:
        rows = np.stack([out.effect.functional for out in measurement.outcomes])
        g -= (1.0 + np.log(np.maximum(rows @ coords, 1e-300))) @ rows
    return g


def highs_fw_gap(problem, coords):
    """The Frank-Wolfe gap of a fiducial polytope problem at coords, its LP solved by HiGHS."""
    from scipy.optimize import linprog

    v = problem.model.vertices
    constraints = problem.region.h_rep
    a_eq = np.vstack([np.ones(len(v))] + [v @ c.functional for c in constraints])
    b_eq = np.array([1.0] + [c.target for c in constraints])
    g = fiducial_gradient(problem.objective, coords)
    lp = linprog(-(v @ g), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert lp.status == 0
    return -lp.fun - float(g @ coords)


def random_region(model, rng):
    """A random condition region of the kind the engine is built around."""
    if model.kind == "classical":
        values = rng.uniform(-1.0, 1.0, model.dim)
        obs = indicator_observable(model, values)
        anchor = random_state(model, rng)
        target = float(values @ anchor.coords)
        return region_from_mean(obs, target)
    mx, my = squarebit_measurements(model)
    obs = mx if rng.uniform() < 0.5 else my
    anchor = random_state(model, rng)
    functional = np.sum([o.value * o.effect.functional for o in obs.outcomes], axis=0)
    target = float(functional @ anchor.coords)
    return region_from_mean(obs, target)


def region_eq(a, b):
    """Region equality as mutual inclusion (after vertex enumeration)."""
    return includes(a, b) and includes(b, a)


def reference_dedup_constraints(constraints):
    """The all-pairs duplicate loop ``regions._dedup_constraints`` must agree
    with: kept constraints by identity and order, and the empty flag."""
    kept = []
    normalized = []
    empty = False
    for c in constraints:
        norm = float(np.linalg.norm(c.functional))
        fn = c.functional / norm
        tn = c.target / norm
        duplicate = False
        for gn, sn in normalized:
            if np.max(np.abs(fn - gn)) <= _DUPLICATE_RTOL:
                duplicate = True
                if abs(tn - sn) > max(_DUPLICATE_RTOL, 1e-12 * max(1.0, abs(sn))):
                    empty = True
                break
        if not duplicate:
            kept.append(c)
            normalized.append((fn, tn))
    return tuple(kept), empty
