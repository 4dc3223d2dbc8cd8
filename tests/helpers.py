"""Shared generators for the test suite."""

import itertools

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
    SolveStatus,
    VonNeumann,
    evaluate,
    includes,
    meet,
    random_effect,
    random_povm,
    random_state,
    region_from_effect,
    region_from_mean,
    solve_dual,
    whole_space,
)
from gmaxent.hermitian import _LOG_ZERO_FLOOR, _divided_difference
from gmaxent.regions import (
    _DUPLICATE_RTOL,
    LinearConstraint,
    _in_hull,
    _state_from_weights,
    _weight_system,
)
from gmaxent.simplex import _BLOCK, FEASIBILITY_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult
from gmaxent.solver import _RANK_PIVOT_TOL, _ClassicalEvaluation


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
    # At lambda = 0, U = I and the exponent is zero, so every divided difference of exp is 1.
    phi = _divided_difference(np.zeros(len(ev.spectrum)) if ev._u is None else ev._shifted)
    u = np.eye(len(phi)) if ev._u is None else ev._u
    rotated = (u.conj().T @ ev._operators @ u).reshape(-1, phi.size)
    h = ((rotated.conj() * phi.ravel()) @ rotated.T).real / ev._z
    return h - np.outer(ev.means, ev.means)


def reference_hessian(ev):
    """Either reference Hessian; a drop-in for ``_DualEvaluation.hessian``."""
    if isinstance(ev, _ClassicalEvaluation):
        return reference_classical_hessian(ev)
    return reference_quantum_hessian(ev)


# ---------------------------------------------------------------------------
# Dense-tableau two-phase simplex: the reference the revised simplex in
# ``gmaxent.simplex`` is checked against. Its Phase I prices as that one's
# does; its Phase II prices by Bland's rule throughout.
# ---------------------------------------------------------------------------


def _tableau_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _tableau_simplex(tableau, basis, cost, pivot_tol, original=0):
    """Minimize cost over the tableau in place. Returns OPTIMAL or UNBOUNDED.

    With ``original`` = 0 it prices by Bland's rule throughout. Otherwise it
    prices as the revised simplex does, its first ``original`` columns in
    blocks of ``_BLOCK`` and the rest after them: the most negative reduced
    cost in the first block with an improving column (among the rest, the
    smallest improving index), and Bland's rule after a degenerate pivot.
    """
    m = tableau.shape[0]
    n = tableau.shape[1] - 1
    bland = original == 0
    for _ in range(200_000):
        reduced = cost - cost[basis] @ tableau[:, :n]
        improving = reduced < -pivot_tol
        entering = int(improving.argmax())
        if not improving[entering]:
            return OPTIMAL
        if not bland and entering < original:
            start = entering - entering % _BLOCK
            block = slice(start, min(start + _BLOCK, original))
            entering = start + int(np.where(improving[block], reduced[block], 0.0).argmin())
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
        bland = original == 0 or best_ratio <= pivot_tol
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
    _tableau_simplex(tableau, basis, cost, pivot_tol, original=n)
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


def fake_objective_terms(value, gradient):
    """A stand-in for ``solver._objective_terms`` that has ``solve_polytope`` maximize value, whose gradient is gradient.

    Frank-Wolfe's safety exits need an objective with a kink, which no entropy
    has. The face Hessian is zero, so ``_face_newton`` takes no step: the
    ``lstsq`` direction of its KKT system is 0.
    """

    def line(x, d):
        return lambda t: float(gradient(x + t * d) @ d)

    def face(x, atoms):
        return np.zeros((len(atoms), len(atoms)))

    return lambda problem: (value, gradient, line, face)


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


def indicator_observable(model, values=None):
    """One indicator effect per classical outcome, optionally valued."""
    outcomes = []
    for i in range(model.dim):
        v = None if values is None else float(values[i])
        outcomes.append(Outcome(label=str(i), effect=Effect(model, np.eye(model.dim)[i]), value=v))
    return Observable(model, tuple(outcomes))


def in_region(region, state):
    """Membership of state in region: the hull of its generators when it has them, else its conditions."""
    if region.known_empty:
        return False
    if region.v_rep is not None:
        return _in_hull(region.v_rep, state)
    return all(c.residual(state) <= FEASIBILITY_TOL for c in region.h_rep)


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


REFERENCE_VERTEX_CAP = 12  # constraint count + ambient dimension that the reference enumerates


def reference_vertices(region):
    """The generators the reference order reads: the region's own list, else
    the basic feasible solutions of its mixing-weight system, found by trying
    every column set of the system's rank (classical and polytope models).

    Each full-rank set is solved by ``lstsq``; a solution is kept when it
    meets the system within 1e-9 times max(1, max|b|) and no weight lies
    below -1e-9, then clipped. Distinct states come in column-set order,
    less each one within 1e-8 in max-abs of an earlier one. It tries
    C(n, rank) sets, so it is capped at REFERENCE_VERTEX_CAP.
    """
    if region.v_rep is not None:
        return region.v_rep
    if region.known_empty:
        return ()
    model = region.model
    assert len(region.h_rep) + model.ambient_dim <= REFERENCE_VERTEX_CAP, "past the reference's cap"
    a, b = _weight_system(model, region.h_rep)
    n = a.shape[1]
    rank = int(np.linalg.matrix_rank(a, tol=1e-11))
    scale = max(1.0, float(np.max(np.abs(b))))
    found = []
    for cols in itertools.combinations(range(n), rank):
        sub = a[:, cols]
        if np.linalg.matrix_rank(sub, tol=1e-11) < rank:
            continue
        w_sub, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.max(np.abs(sub @ w_sub - b)) > 1e-9 * scale or np.min(w_sub) < -1e-9:
            continue
        w = np.zeros(n)
        w[list(cols)] = w_sub
        s = _state_from_weights(model, np.maximum(w, 0.0))
        if all(np.max(np.abs(s.coords - u.coords)) >= 1e-8 for u in found):
            found.append(s)
    return tuple(found)


def reference_includes(outer, inner):
    """The inclusion order read from inner's enumerated vertices, the rule
    ``includes`` must agree with: an empty inner lies in everything, nothing
    else in a known-empty outer; every outer condition holds within
    FEASIBILITY_TOL at every vertex, and a generator outer holds each vertex
    in its hull."""
    if outer.is_whole_space():
        return True
    vertices = reference_vertices(inner)
    if not vertices:
        return True
    if outer.known_empty:
        return False
    if any(c.residual(v) > FEASIBILITY_TOL for c in outer.h_rep for v in vertices):
        return False
    return outer.v_rep is None or all(_in_hull(outer.v_rep, v) for v in vertices)


def reference_dedup_constraints(constraints):
    """The all-pairs duplicate loop ``regions._dedup_constraints`` must agree
    with: kept constraints by identity and order, and the empty flag. A new
    constraint replaces the kept ones it duplicates when its norm exceeds all
    of theirs, and is dropped otherwise."""
    kept = {}  # input position -> (constraint, unit functional, scaled target, norm)
    empty = False
    for i, c in enumerate(constraints):
        norm = float(np.linalg.norm(c.functional))
        fn = c.functional / norm
        tn = c.target / norm
        partners = [j for j, (_, gn, _, _) in kept.items() if np.max(np.abs(fn - gn)) <= _DUPLICATE_RTOL]
        for j in partners:
            _, _, sn, kept_norm = kept[j]
            if min(norm, kept_norm) * abs(tn - sn) > FEASIBILITY_TOL:
                empty = True
        if partners and max(kept[j][3] for j in partners) >= norm:
            continue
        for j in partners:
            del kept[j]
        kept[i] = (c, fn, tn, norm)
    return tuple(kept[i][0] for i in sorted(kept)), empty


def reference_select_independent(funcs, targets, unit, config):
    """The greedy rank filter ``solver._select_independent`` must agree with, modulo the unit functional u:
    Gram-Schmidt row by row on the raw rows from a basis seeded with u/|u|, norming every row and residual itself
    (the solver centres the rows, reads the residuals as the pivots of one QR, and the norms stored on the
    constraints), and a ``lstsq`` re-check that carries u as a column with target 1. Its tolerance scale is
    max(1, |t_i - s_i|), s_i = f_i . u / u . u, the target shifted as the solver's is. Returns (kept, dropped,
    witness): witness is None, or the coefficients on the kept rows and -1 on the row they contradict, which
    is appended to kept."""
    kept: list[int] = []
    dropped: list[int] = []
    basis = [unit / np.linalg.norm(unit)]
    for i, f in enumerate(funcs):
        res = f.astype(float).copy()
        for q in basis:
            res -= (res @ q) * q
        if np.linalg.norm(res) > _RANK_PIVOT_TOL * max(1.0, np.linalg.norm(f)):
            basis.append(res / np.linalg.norm(res))
            kept.append(i)
            continue
        coeff, *_ = np.linalg.lstsq(np.vstack([funcs[kept], unit]).T, f, rcond=None)
        implied = float(coeff @ np.append(targets[kept], 1.0))
        scale = max(1.0, abs(targets[i] - float(f @ unit) / float(unit @ unit)))
        if abs(implied - targets[i]) > config.residual_tol * scale:
            return kept + [i], dropped, np.append(coeff[:-1], -1.0)
        dropped.append(i)
    return kept, dropped, None


def infeasibility_witness(problem, solution):
    """(spread, margin) of an INFEASIBLE dual result's multipliers y on its kept conditions, read without the solver.

    phi = sum_j y_j f_j takes the value y . t on every state that meets the kept conditions, so y . t outside the
    range of phi over the states rules every state out: margin, the distance of y . t outside that range, is then
    positive. The range is spanned by phi's entries on a classical model and by its eigenvalues (``eigvalsh``) on
    a quantum one, and spread is its width: 0, up to rounding, for the rank filter's witness, whose phi is constant
    on the states. The test is symmetric in y, so the recession certificate's lambda reads the same way.
    """
    model = problem.model
    kept = [problem.region.h_rep[i] for i in solution.diagnostics.kept_indices]
    y = np.asarray(solution.multipliers, dtype=float)
    phi = y @ np.array([c.functional for c in kept])
    values = phi if model.kind == "classical" else np.linalg.eigvalsh(model.coords_to_matrix(phi).entries)
    implied = float(y @ np.array([c.target for c in kept]))
    lo, hi = float(values.min()), float(values.max())
    return hi - lo, max(lo - implied, implied - hi)


def consistency_repro_draws(n_trials):
    """The draws of a consistency repro on Classical(2..4), from ``default_rng(11)``, as {trial: (region, g, sigma_a)}.

    Per trial: d in 2..4 and a ``random_state`` sigma; d - 1 random effects, each with its probability in sigma as
    target, met left to right into region; its MaxEnt state sigma_a, and the trial is skipped unless that solve
    converges; then one more random effect g with target clip(g . sigma_a, 0, 1), returned as its region.
    """
    rng = np.random.default_rng(11)
    draws = {}
    for trial in range(n_trials):
        d = int(rng.integers(2, 5))
        model = Classical(d)
        sigma = random_state(model, rng)
        region = None
        for _ in range(d - 1):
            e = random_effect(model, rng)
            condition = region_from_effect(e, evaluate(e, sigma))
            region = condition if region is None else meet(region, condition)
        sol = solve_dual(MaxEntProblem(model, region, Shannon()))
        if sol.status is not SolveStatus.CONVERGED:
            continue
        g = random_effect(model, rng)
        target = float(np.clip(g.functional @ sol.state.coords, 0.0, 1.0))
        draws[trial] = (region, region_from_effect(g, target), sol.state)
    return draws


def reference_povm_validation(obs):
    """(completeness residual, [(min, max) of each effect over the states]) of obs, read one effect at a time.

    The per-effect loop that ``validate_povm`` replaced: each quantum effect gets its own matrix and ``eigvalsh``,
    and one with a non-finite entry reads (nan, nan) without an eigensolver call.
    """
    model = obs.model
    ranges = []
    for out in obs.outcomes:
        f = out.effect.functional
        if model.kind == "quantum":
            if not np.isfinite(f).all():
                ranges.append((np.nan, np.nan))
                continue
            k = np.linalg.eigvalsh(model.coords_to_matrix(f).entries)
            ranges.append((float(k[0]), float(k[-1])))
        else:
            values = f if model.kind == "classical" else model.vertices @ f
            ranges.append((float(np.min(values)), float(np.max(values))))
    gap = np.sum([out.effect.functional for out in obs.outcomes], axis=0) - model.unit_functional
    if model.kind == "quantum":
        gap = model.coords_to_matrix(gap).entries
    return float(np.max(np.abs(gap))), ranges
