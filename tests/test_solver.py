"""Tests for the dual Newton and Frank-Wolfe solvers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmaxent import (
    Classical,
    ConvexRegion,
    CustomObjective,
    FiducialMeasurementEntropy,
    IncompatibleObjective,
    MaxEntProblem,
    Polytope,
    Quantum,
    DEFAULT_SOLVER,
    Shannon,
    SolverConfig,
    SolveStatus,
    State,
    UnsupportedRepresentation,
    VonNeumann,
    entropy,
    evaluate,
    indicator_observable,
    maximally_mixed,
    meet,
    random_effect,
    random_povm,
    random_state,
    region_from_effect,
    region_from_mean,
    effect_from_matrix,
    solve,
    solve_dual,
    solve_polytope,
    spectral_observable,
    whole_space,
)
from gmaxent.hermitian import HermitianMatrix
from gmaxent.regions import LinearConstraint
from gmaxent.simplex import FEASIBILITY_TOL
from gmaxent.solver import _DualEvaluation, _evaluator

from helpers import (
    fiducial_gradient,
    fiducial_polytope_problem,
    frechet_exp_directional,
    highs_fw_gap,
    matrix_exp,
    random_classical_problem,
    random_hermitian,
    random_quantum_problem,
    reference_classical_hessian,
    reference_feasible_basis,
    reference_hessian,
    regular_polygon,
    sphere_polytope,
    squarebit_measurements,
    squarebit_model,
    squarebit_problem,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)

GIBBS_LAMBDA = np.log(7.0 / 3.0)
GIBBS_LNZ = np.log(10.0 / 7.0)
GIBBS_ENTROPY = -(0.7 * np.log(0.7) + 0.3 * np.log(0.3))
EFFECT_ENTROPY = -(0.125 * np.log(0.125) + 0.875 * np.log(0.875))


def gibbs_problem():
    model = Quantum(2)
    obs = spectral_observable(model, np.diag([0.0, 1.0]).astype(complex))
    return MaxEntProblem(model, region_from_mean(obs, 0.3), VonNeumann())


def near_boundary_problem(family, t):
    """Targets scaled by t against a face of the state space at t = 1 (t = 0 for the qutrit)."""
    if family == "classical":
        model = Classical(2)
        return MaxEntProblem(model, region_from_mean(indicator_observable(model, [0.0, 1.0]), t), Shannon())
    if family == "sigmaz":
        model = Quantum(2)
        return MaxEntProblem(model, region_from_mean(spectral_observable(model, SZ), t), VonNeumann())
    if family == "bloch":
        model = Quantum(2)
        direction = np.array([1.0, 2.0, 2.0]) / 3.0
        regions = [region_from_mean(spectral_observable(model, p), t * x) for p, x in zip((SX, SY, SZ), direction)]
        return MaxEntProblem(model, meet(meet(regions[0], regions[1]), regions[2]), VonNeumann())
    model = Quantum(3)
    projector = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    return MaxEntProblem(model, region_from_mean(spectral_observable(model, projector), t), VonNeumann())


def frechet_hessian(model, constraints, lambdas):
    """H_ij = tr(R_i . Dexp_{-sum(lam R)}[R_j]) / Z - <R_i><R_j>, one Frechet derivative per column."""
    ops = [model.coords_to_matrix(c.functional).entries for c in constraints]
    exponent = HermitianMatrix(-sum(l * op for l, op in zip(lambdas, ops)))
    expm = matrix_exp(exponent).entries
    z = np.trace(expm).real
    means = [np.trace(expm @ op).real / z for op in ops]
    expected = np.zeros((len(ops), len(ops)))
    for j, opj in enumerate(ops):
        dexp = frechet_exp_directional(exponent, HermitianMatrix(opj)).entries
        for i, opi in enumerate(ops):
            expected[i, j] = np.trace(opi @ dexp).real / z - means[i] * means[j]
    return expected


def assert_hessian_psd_at_every_step(monkeypatch, problems):
    """Each problem converges, and every Hessian its solve builds is PSD within 1e-9."""
    original = _DualEvaluation.hessian
    min_eigs = []

    def recorded(ev):
        h = original(ev)
        min_eigs.append(float(np.min(np.linalg.eigvalsh(h))))
        return h

    monkeypatch.setattr(_DualEvaluation, "hessian", recorded)
    for problem in problems:
        min_eigs.clear()
        sol = solve_dual(problem)
        assert sol.status == SolveStatus.CONVERGED
        assert min_eigs
        assert all(h >= -1e-9 for h in min_eigs)


def recession_certificate(problem, sol):
    """u . r + lambda_max(-sum_i u_i R_i) over the kept conditions, u = multipliers / |multipliers|."""
    model = problem.model
    kept = [problem.region.h_rep[i] for i in sol.diagnostics.kept_indices]
    u = sol.multipliers / np.linalg.norm(sol.multipliers)
    if model.kind == "classical":
        top = np.max(-(u @ np.stack([c.functional for c in kept])))
    else:
        exponent = -sum(ui * model.coords_to_matrix(c.functional).entries for ui, c in zip(u, kept))
        top = np.linalg.eigvalsh(exponent)[-1]
    return float(u @ [c.target for c in kept]) + float(top)


def assert_near_boundary_status(problem, expected):
    sol = solve_dual(problem)
    assert sol.status == expected
    if expected == SolveStatus.INFEASIBLE:
        assert sol.state is None
        assert recession_certificate(problem, sol) < -DEFAULT_SOLVER.residual_tol
    else:
        assert np.max(np.abs(sol.residuals)) <= 1e-8


class TestPartitionFunction:
    def test_quantum_zero_multiplier(self):
        model = Quantum(2)
        c = LinearConstraint(model, model.matrix_to_coords(SZ), 0.0)
        lnz = _evaluator(model, [c])(np.array([0.0])).lnz
        assert np.exp(lnz) == pytest.approx(2.0, abs=1e-12)
        assert lnz == pytest.approx(np.log(2.0), abs=1e-12)

    def test_classical(self):
        model = Classical(2)
        c = LinearConstraint(model, np.array([0.0, 1.0]), 0.3)
        lnz = _evaluator(model, [c])(np.array([GIBBS_LAMBDA])).lnz
        assert np.exp(lnz) == pytest.approx(10.0 / 7.0, abs=1e-12)

    def test_quantum_diagonal_reduces_to_classical(self):
        model = Quantum(2)
        c = LinearConstraint(model, model.matrix_to_coords(np.diag([0.0, 1.0])), 0.3)
        lnz = _evaluator(model, [c])(np.array([GIBBS_LAMBDA])).lnz
        assert np.exp(lnz) == pytest.approx(10.0 / 7.0, abs=1e-12)

    def test_shift_avoids_overflow(self):
        # Z = 2 cosh(1000) overflows a float; ln Z does not.
        model = Quantum(2)
        c = LinearConstraint(model, model.matrix_to_coords(SZ), 0.0)
        lnz = _evaluator(model, [c])(np.array([-1000.0])).lnz
        assert lnz == pytest.approx(1000.0, abs=1e-6)


class TestDualGradient:
    """The gradient of D(lambda) = ln Z + lambda . r is r - means."""

    def test_zero_multiplier_satisfied(self):
        model = Quantum(2)
        c = LinearConstraint(model, model.matrix_to_coords(SZ), 0.0)
        g = 0.0 - _evaluator(model, [c])(np.array([0.0])).means
        np.testing.assert_allclose(g, [0.0], atol=1e-12)

    def test_zero_multiplier_residual(self):
        model = Quantum(2)
        c = LinearConstraint(model, model.matrix_to_coords(np.diag([0.0, 1.0])), 0.3)
        g = 0.3 - _evaluator(model, [c])(np.array([0.0])).means
        np.testing.assert_allclose(g, [-0.2], atol=1e-12)

    def test_stationary_at_converged_point(self):
        problem = gibbs_problem()
        sol = solve_dual(problem)
        g = 0.3 - _evaluator(problem.model, problem.region.h_rep)(sol.multipliers).means
        assert np.max(np.abs(g)) <= 1e-10

    def test_matches_finite_difference_of_dual(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            problem = random_quantum_problem(rng, 3, 2)
            constraints = problem.region.h_rep
            dual = _evaluator(problem.model, constraints)
            targets = np.array([c.target for c in constraints])
            lambdas = rng.standard_normal(2) * 0.5
            g = targets - dual(lambdas).means
            eps = 1e-6
            for i in range(2):
                delta = np.zeros(2)
                delta[i] = eps
                d_up = dual(lambdas + delta).lnz + float((lambdas + delta) @ targets)
                d_down = dual(lambdas - delta).lnz + float((lambdas - delta) @ targets)
                assert (d_up - d_down) / (2 * eps) == pytest.approx(g[i], abs=1e-5)


class TestSolveDualQuantum:
    def test_unconstrained(self):
        model = Quantum(2)
        sol = solve_dual(MaxEntProblem(model, whole_space(model), VonNeumann()))
        assert sol.status == SolveStatus.CONVERGED
        assert sol.iterations == 0
        assert sol.entropy == pytest.approx(np.log(2.0), abs=1e-12)
        assert sol.lambda0 == pytest.approx(np.log(2.0), abs=1e-12)
        np.testing.assert_allclose(sol.state.coords, maximally_mixed(model).coords, atol=1e-12)

    def test_gibbs_qubit(self):
        sol = solve_dual(gibbs_problem())
        assert sol.status == SolveStatus.CONVERGED
        np.testing.assert_allclose(sol.state.density_matrix().entries, np.diag([0.7, 0.3]), atol=1e-9)
        assert sol.multipliers[0] == pytest.approx(GIBBS_LAMBDA, abs=1e-9)
        assert sol.lambda0 == pytest.approx(GIBBS_LNZ, abs=1e-9)
        assert sol.entropy == pytest.approx(GIBBS_ENTROPY, abs=1e-10)
        assert np.max(sol.residuals) <= 1e-8

    def test_negative_iteration_cap_is_non_convergence(self):
        sol = solve_dual(gibbs_problem(), SolverConfig(max_iter=-1))
        assert sol.status == SolveStatus.NON_CONVERGENCE
        assert sol.iterations == 0

    def test_effect_condition_same_code_path(self):
        model = Quantum(2)
        e = effect_from_matrix(model, np.diag([0.3, 0.7]))
        region = region_from_effect(e, 0.65)
        # one constraint type: probability conditions are mean conditions
        assert type(region.h_rep[0]) is LinearConstraint
        sol = solve_dual(MaxEntProblem(model, region, VonNeumann()))
        assert sol.status == SolveStatus.CONVERGED
        np.testing.assert_allclose(sol.state.density_matrix().entries, np.diag([0.125, 0.875]), atol=1e-8)
        assert sol.entropy == pytest.approx(EFFECT_ENTROPY, abs=1e-8)

    def test_boundary_target(self):
        model = Quantum(2)
        region = region_from_mean(spectral_observable(model, SZ), 1.0)
        sol = solve_dual(MaxEntProblem(model, region, VonNeumann()))
        assert sol.status == SolveStatus.BOUNDARY_ONLY
        np.testing.assert_allclose(sol.state.density_matrix().entries, np.diag([1.0, 0.0]), atol=1e-3)

    @pytest.mark.parametrize(
        "family,target,expected",
        [
            ("sigmaz", 1.001, SolveStatus.INFEASIBLE),
            ("sigmaz", 1.01, SolveStatus.INFEASIBLE),
            ("sigmaz", 1.05, SolveStatus.INFEASIBLE),
            ("sigmaz", 1.0 + 1e-6, SolveStatus.INFEASIBLE),
            ("bloch", 1.006, SolveStatus.INFEASIBLE),
            ("bloch", 1.063, SolveStatus.INFEASIBLE),
            ("qutrit", -1e-4, SolveStatus.INFEASIBLE),
            ("qutrit", -1e-6, SolveStatus.INFEASIBLE),
            ("sigmaz", 1.0, SolveStatus.BOUNDARY_ONLY),
            ("sigmaz", 0.999, SolveStatus.CONVERGED),
            ("sigmaz", 1.0 - 1e-6, SolveStatus.CONVERGED),
        ],
    )
    def test_near_boundary_targets(self, family, target, expected):
        assert_near_boundary_status(near_boundary_problem(family, target), expected)

    def test_contradictory_meet_infeasible(self):
        model = Quantum(2)
        region = meet(
            region_from_mean(spectral_observable(model, SZ), 1.0),
            region_from_mean(spectral_observable(model, SX), 1.0),
        )
        sol = solve_dual(MaxEntProblem(model, region, VonNeumann()))
        assert sol.status == SolveStatus.INFEASIBLE
        assert sol.state is None

    def test_redundant_constraint_dropped(self, caplog):
        model = Quantum(2)
        f = model.matrix_to_coords(SZ)
        region = ConvexRegion(
            model,
            (
                LinearConstraint(model, f, 0.2),
                LinearConstraint(model, -2.0 * f, -0.4),
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_dual(MaxEntProblem(model, region, VonNeumann()))
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("gmaxent", "WARNING", "dropping redundant constraint 1 (consistent with kept set)")
        ]
        assert sol.status == SolveStatus.CONVERGED
        assert len(sol.multipliers) == 1
        assert len(sol.residuals) == 2
        assert np.max(sol.residuals) <= 1e-8

    def test_inconsistent_dependent_constraints(self):
        model = Quantum(2)
        f = model.matrix_to_coords(SZ)
        region = ConvexRegion(
            model,
            (
                LinearConstraint(model, f, 0.2),
                LinearConstraint(model, 2.0 * f, 0.1),
            ),
        )
        sol = solve_dual(MaxEntProblem(model, region, VonNeumann()))
        assert sol.status == SolveStatus.INFEASIBLE

    def test_exponential_family_form(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            problem = random_quantum_problem(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            sol = solve_dual(problem)
            assert sol.status == SolveStatus.CONVERGED
            model = problem.model
            exponent = -sol.lambda0 * np.eye(model.dim, dtype=complex)
            for lam, idx in zip(sol.multipliers, sol.diagnostics.kept_indices):
                exponent -= lam * model.coords_to_matrix(problem.region.h_rep[idx].functional).entries
            reconstructed = matrix_exp(HermitianMatrix(exponent)).entries
            assert np.max(np.abs(sol.state.density_matrix().entries - reconstructed)) <= 1e-8
            kept = [problem.region.h_rep[i] for i in sol.diagnostics.kept_indices]
            assert abs(sol.lambda0 - _evaluator(model, kept)(sol.multipliers).lnz) <= 1e-10

    def test_constraint_operators_converted_once_per_solve(self, monkeypatch):
        problem = random_quantum_problem(np.random.default_rng(5), 4, 3)
        original = Quantum.coords_to_matrix
        calls = []

        def counted(model, coords):
            calls.append(1)
            return original(model, coords)

        monkeypatch.setattr(Quantum, "coords_to_matrix", counted)
        sol = solve_dual(problem)
        assert sol.status == SolveStatus.CONVERGED
        assert sol.iterations >= 2
        # m conversions of the operators, plus the checks on the solved state.
        assert len(calls) <= 3 + 5

    def test_entropy_read_from_the_final_spectrum(self, monkeypatch):
        problem = random_quantum_problem(np.random.default_rng(5), 4, 3)
        original = Quantum.coords_to_matrix
        calls = []

        def counted(model, coords):
            calls.append(1)
            return original(model, coords)

        monkeypatch.setattr(Quantum, "coords_to_matrix", counted)
        sol = solve_dual(problem)
        assert sol.status == SolveStatus.CONVERGED
        # m operator conversions and the State cone check; the entropy
        # converts nothing.
        assert len(calls) <= 3 + 1
        monkeypatch.undo()
        assert sol.entropy == pytest.approx(entropy(VonNeumann(), sol.state), abs=1e-12)

    def test_hessian_psd_at_every_step(self, monkeypatch):
        rng = np.random.default_rng(7)
        assert_hessian_psd_at_every_step(monkeypatch, [random_quantum_problem(rng, 3, 2) for _ in range(10)])

    def test_hessian_symmetric_and_covariance_like(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            problem = random_quantum_problem(rng, 3, 3)
            lambdas = rng.standard_normal(3)
            ev = _evaluator(problem.model, problem.region.h_rep)(lambdas)
            h = ev.hessian()
            assert np.max(np.abs(h - h.T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(h)) >= -1e-9

    def test_hessian_matches_frechet_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            problem = random_quantum_problem(rng, 3, 2)
            constraints = list(problem.region.h_rep)
            lambdas = 0.5 * rng.standard_normal(2)
            ev = _evaluator(problem.model, constraints)(lambdas)
            expected = frechet_hessian(problem.model, constraints, lambdas)
            np.testing.assert_allclose(ev.hessian(), expected, rtol=1e-12, atol=1e-12)

    def test_hessian_at_zero_multipliers(self):
        # The exponent is 0: every eigenvalue pair takes the close branch of
        # the divided difference.
        problem = random_quantum_problem(np.random.default_rng(22), 4, 3)
        constraints = list(problem.region.h_rep)
        lambdas = np.zeros(3)
        h = _evaluator(problem.model, constraints)(lambdas).hessian()
        assert np.array_equal(h, h.T)
        np.testing.assert_allclose(h, frechet_hessian(problem.model, constraints, lambdas), rtol=1e-12, atol=1e-12)

    def test_hessian_on_a_partly_degenerate_spectrum(self):
        # Two commuting operators share the eigenvalue 1 twice, so the
        # exponent has one repeated eigenvalue (close pairs) beside two
        # distinct ones (far pairs); a third operator, with multiplier 0,
        # mixes the degenerate block.
        rng = np.random.default_rng(23)
        model = Quantum(4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        ops = [(q * np.array(v)) @ q.conj().T for v in ([1.0, 1.0, 0.0, -1.0], [1.0, 1.0, 2.0, 0.5])]
        ops.append(random_hermitian(rng, 4).entries)
        constraints = [LinearConstraint(model, model.matrix_to_coords(op), 0.0) for op in ops]
        lambdas = np.array([0.7, -0.4, 0.0])
        k = np.linalg.eigvalsh(-sum(l * op for l, op in zip(lambdas, ops)))
        gaps = np.abs(np.subtract.outer(k, k))[np.triu_indices(4, 1)]
        assert np.sum(gaps < 1e-12) == 1 and np.min(gaps[gaps >= 1e-12]) > 0.05
        h = _evaluator(model, constraints)(lambdas).hessian()
        assert np.array_equal(h, h.T)
        np.testing.assert_allclose(h, frechet_hessian(model, constraints, lambdas), rtol=1e-12, atol=1e-12)

    def test_monotone_under_meets(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            model = Quantum(3)
            problem = random_quantum_problem(rng, 3, 3)
            region = whole_space(model)
            last = np.inf
            for c in problem.region.h_rep:
                region = meet(region, ConvexRegion(model, (c,)))
                sol = solve_dual(MaxEntProblem(model, region, VonNeumann()))
                assert sol.status == SolveStatus.CONVERGED
                assert sol.entropy <= last + 1e-8
                last = sol.entropy


class TestSolveDualClassical:
    @pytest.mark.parametrize("m", [1, 4, 32])
    def test_hessian_matches_general_product(self, m):
        rng = np.random.default_rng(40 + m)
        problem = random_classical_problem(rng, 10_000, m)
        dual_at = _evaluator(problem.model, problem.region.h_rep)
        # Random multipliers, then multipliers large enough that the tail of
        # the Gibbs distribution underflows to probability 0.
        for norm in (1.0, 500.0):
            lambdas = rng.standard_normal(m)
            ev = dual_at(norm * lambdas / np.linalg.norm(lambdas))
            h = ev.hessian()
            assert np.array_equal(h, h.T)
            np.testing.assert_allclose(h, reference_classical_hessian(ev), rtol=1e-12)
        assert np.any(ev.spectrum == 0.0)

    def test_hessian_psd_at_every_step(self, monkeypatch):
        rng = np.random.default_rng(7)
        assert_hessian_psd_at_every_step(monkeypatch, [random_classical_problem(rng, 50, 4) for _ in range(10)])

    def test_uniform(self):
        model = Classical(7)
        sol = solve_dual(MaxEntProblem(model, whole_space(model), Shannon()))
        assert sol.status == SolveStatus.CONVERGED
        assert sol.entropy == pytest.approx(np.log(7.0), abs=1e-12)
        np.testing.assert_allclose(sol.state.coords, np.full(7, 1.0 / 7.0), atol=1e-12)

    def test_gibbs(self):
        model = Classical(2)
        region = region_from_mean(indicator_observable(model, [0.0, 1.0]), 0.3)
        sol = solve_dual(MaxEntProblem(model, region, Shannon()))
        assert sol.status == SolveStatus.CONVERGED
        np.testing.assert_allclose(sol.state.coords, [0.7, 0.3], atol=1e-9)
        assert sol.multipliers[0] == pytest.approx(GIBBS_LAMBDA, abs=1e-9)

    def test_lp_detects_infeasible(self):
        model = Classical(2)
        region = region_from_mean(indicator_observable(model, [0.0, 1.0]), 2.0)
        sol = solve_dual(MaxEntProblem(model, region, Shannon()))
        assert sol.status == SolveStatus.INFEASIBLE
        assert sol.state is None
        # The recession certificate: the multiplier diverges downward, since
        # the target 2 lies above the largest outcome value 1.
        assert sol.multipliers[0] < 0
        assert sol.iterations <= 20

    @pytest.mark.parametrize(
        "max_iter,expected",
        [(0, SolveStatus.NON_CONVERGENCE), (2, SolveStatus.NON_CONVERGENCE), (3, SolveStatus.INFEASIBLE)],
    )
    def test_infeasible_needs_iterations_to_certify(self, max_iter, expected):
        # The certificate is computed only past multiplier_bound, which the
        # target 2 reaches in the step of iteration 2; a smaller cap stops first.
        model = Classical(2)
        region = region_from_mean(indicator_observable(model, [0.0, 1.0]), 2.0)
        sol = solve_dual(MaxEntProblem(model, region, Shannon()), SolverConfig(max_iter=max_iter))
        assert sol.status == expected

    @pytest.mark.parametrize(
        "target,expected",
        [
            (1.0 + 1e-6, SolveStatus.INFEASIBLE),
            (-1e-6, SolveStatus.INFEASIBLE),
            (1.0 - 1e-6, SolveStatus.CONVERGED),
            (1e-6, SolveStatus.CONVERGED),
            (0.0, SolveStatus.BOUNDARY_ONLY),
            (1.0, SolveStatus.BOUNDARY_ONLY),
        ],
    )
    def test_near_boundary_targets(self, target, expected):
        assert_near_boundary_status(near_boundary_problem("classical", target), expected)

    def test_boundary_target(self):
        model = Classical(2)
        region = region_from_mean(indicator_observable(model, [0.0, 1.0]), 0.0)
        sol = solve_dual(MaxEntProblem(model, region, Shannon()))
        assert sol.status == SolveStatus.BOUNDARY_ONLY
        np.testing.assert_allclose(sol.state.coords, [1.0, 0.0], atol=1e-6)

    def test_path_consistency_with_frank_wolfe(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            problem = random_classical_problem(rng, int(rng.integers(2, 5)), 1)
            dual = solve_dual(problem)
            fw = solve_polytope(problem)
            assert dual.status == SolveStatus.CONVERGED
            assert fw.status == SolveStatus.CONVERGED
            assert abs(dual.entropy - fw.entropy) <= 1e-6

    def test_unconstrained_classical_via_both_paths(self):
        model = Classical(3)
        problem = MaxEntProblem(model, whole_space(model), Shannon())
        fw = solve_polytope(problem)
        dual = solve_dual(problem)
        np.testing.assert_allclose(fw.state.coords, np.full(3, 1.0 / 3.0), atol=1e-9)
        assert fw.entropy == pytest.approx(np.log(3.0), abs=1e-9)
        assert abs(fw.entropy - dual.entropy) <= 1e-6


def trajectory_problem(family, size):
    if family == "classical":
        return random_classical_problem(np.random.default_rng(60 + size), 2000, size)
    if family == "quantum":
        return random_quantum_problem(np.random.default_rng(70 + size), 8, size)
    return near_boundary_problem(family, size)


class TestHessianTrajectory:
    """The symmetric-product Hessians take the Newton steps of the general products."""

    @pytest.mark.parametrize(
        "family,size,expected",
        [
            ("classical", 4, SolveStatus.CONVERGED),
            ("classical", 16, SolveStatus.CONVERGED),
            ("classical", 32, SolveStatus.CONVERGED),
            ("quantum", 1, SolveStatus.CONVERGED),
            ("quantum", 4, SolveStatus.CONVERGED),
            ("quantum", 16, SolveStatus.CONVERGED),
            ("sigmaz", 1.0 - 1e-3, SolveStatus.CONVERGED),
            ("sigmaz", 1.0, SolveStatus.BOUNDARY_ONLY),
            ("sigmaz", 1.0 + 1e-3, SolveStatus.INFEASIBLE),
        ],
    )
    def test_same_trajectory_as_general_product(self, monkeypatch, family, size, expected):
        problem = trajectory_problem(family, size)
        sol = solve_dual(problem)
        monkeypatch.setattr(_DualEvaluation, "hessian", reference_hessian)
        ref = solve_dual(problem)
        assert sol.status == ref.status == expected
        assert sol.iterations == ref.iterations
        assert sol.diagnostics.kept_indices == ref.diagnostics.kept_indices
        assert sol.diagnostics.dropped_indices == ref.diagnostics.dropped_indices
        if ref.state is None:
            assert sol.state is None
        else:
            assert np.max(np.abs(sol.state.coords - ref.state.coords)) <= 1e-12


class TestSolvePolytope:
    def test_squarebit_center(self):
        sol = solve_polytope(squarebit_problem())
        assert sol.status == SolveStatus.CONVERGED
        np.testing.assert_allclose(sol.state.point(), [0.0, 0.0], atol=1e-7)
        assert sol.entropy == pytest.approx(2.0 * np.log(2.0), abs=1e-9)
        assert sol.multipliers.size == 0 and sol.lambda0 is None

    def test_squarebit_effect_condition(self):
        model = squarebit_model()
        mx, _ = squarebit_measurements(model)
        region = region_from_effect(mx.outcomes[0].effect, 0.9)
        sol = solve_polytope(squarebit_problem(region, model))
        assert sol.status == SolveStatus.CONVERGED
        np.testing.assert_allclose(sol.state.point(), [0.8, 0.0], atol=1e-5)
        expected = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1)) + np.log(2.0)
        assert sol.entropy == pytest.approx(expected, abs=1e-8)

    def test_infeasible(self):
        model = squarebit_model()
        mx, _ = squarebit_measurements(model)
        region = meet(region_from_mean(mx, 1.0), region_from_mean(mx, -1.0))
        sol = solve_polytope(squarebit_problem(region, model))
        assert sol.status == SolveStatus.INFEASIBLE

    def test_custom_objective(self):
        model = squarebit_model()
        target = np.array([0.3, 0.2])

        def value(coords):
            return -float(np.sum((coords[1:] - target) ** 2))

        def gradient(coords):
            g = np.zeros_like(coords)
            g[1:] = -2.0 * (coords[1:] - target)
            return g

        problem = MaxEntProblem(model, whole_space(model), CustomObjective(value, gradient))
        sol = solve_polytope(problem)
        assert sol.status == SolveStatus.CONVERGED
        np.testing.assert_allclose(sol.state.point(), target, atol=1e-3)
        assert sol.entropy == pytest.approx(0.0, abs=1e-6)

    def test_one_phase_one_per_solve(self, monkeypatch):
        import gmaxent.simplex
        import gmaxent.solver

        rng = np.random.default_rng(3)
        angles = 2.0 * np.pi * np.arange(16) / 16
        model = Polytope(np.column_stack([np.cos(angles), np.sin(angles)]))
        objective = FiducialMeasurementEntropy((random_povm(model, rng, 3), random_povm(model, rng, 3)))
        effect = random_effect(model, rng)
        region = region_from_effect(effect, evaluate(effect, random_state(model, rng)))
        problem = MaxEntProblem(model, region, objective)

        original = gmaxent.simplex._phase_one
        systems = []

        def counted(a_eq, b_eq):
            systems.append(np.shape(a_eq))
            return original(a_eq, b_eq)

        monkeypatch.setattr(gmaxent.simplex, "_phase_one", counted)
        sol = solve_polytope(problem)
        assert sol.status == SolveStatus.CONVERGED
        assert sol.iterations >= 2
        # One Phase I on the weight system (sum and condition rows); the
        # result's State checks the Frank-Wolfe mixing weights, with no LP.
        assert systems == [(2, 16)]

        # Every LP a cold two-phase solve on the dense-tableau reference.
        monkeypatch.setattr(gmaxent.solver, "feasible_basis", reference_feasible_basis)
        reference = solve_polytope(problem)
        assert reference.status == SolveStatus.CONVERGED
        assert sol.iterations == reference.iterations
        assert sol.entropy == pytest.approx(reference.entropy, abs=1e-9)

    def test_one_lp_per_iteration(self, monkeypatch):
        # The solve starts at the Phase I vertex: every LP after Phase I prices
        # one Frank-Wolfe iteration.
        import gmaxent.solver

        feasible_basis = gmaxent.solver.feasible_basis
        calls = []

        def counting_basis(*args, **kwargs):
            basis = feasible_basis(*args, **kwargs)
            optimize = basis.optimize

            def counted(c, maximize=False):
                calls.append(c)
                return optimize(c, maximize)

            basis.optimize = counted
            return basis

        monkeypatch.setattr(gmaxent.solver, "feasible_basis", counting_basis)
        rng = np.random.default_rng(5)
        problems = [squarebit_problem()]
        for n in (8, 16, 32):
            angles = 2.0 * np.pi * np.arange(n) / n
            problems.append(fiducial_polytope_problem(Polytope(np.column_stack([np.cos(angles), np.sin(angles)])), rng))
        problems.append(fiducial_polytope_problem(sphere_polytope(16, 3, rng), rng))
        for problem in problems:
            calls.clear()
            sol = solve_polytope(problem)
            assert sol.status == SolveStatus.CONVERGED
            assert len(calls) == sol.iterations

    def test_stalled_search_is_not_converged(self):
        # The objective peaks with a kink at the first iterate, the Phase I
        # vertex, which is the origin here, so no trial point rounds back onto
        # it. The supergradient reported there has a Frank-Wolfe gap in
        # (fw_gap_tol, 10 fw_gap_tol], but every step lowers the objective, so
        # the gap never falls to fw_gap_tol and convergence is not certified.
        from gmaxent.regions import _weight_system, _weights_to_coords
        from gmaxent.simplex import feasible_basis

        model = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        region = whole_space(model)
        start = _weights_to_coords(model, feasible_basis(*_weight_system(model, region.h_rep)).x())
        np.testing.assert_array_equal(start, [1.0, 0.0, 0.0])
        slope = 5.0 * DEFAULT_SOLVER.fw_gap_tol * np.array([0.0, 1.0, -2.0])

        def value(coords):
            return float(slope @ coords - np.sum(np.abs(coords - start)))

        def gradient(coords):
            return slope - np.sign(coords - start)

        sol = solve_polytope(MaxEntProblem(model, region, CustomObjective(value, gradient)))
        assert DEFAULT_SOLVER.fw_gap_tol < sol.diagnostics.fw_gap <= 10 * DEFAULT_SOLVER.fw_gap_tol
        assert sol.status == SolveStatus.NON_CONVERGENCE
        np.testing.assert_array_equal(sol.state.coords, start)

    def test_step_that_rounds_back_ends_the_solve(self):
        # The kink sits at the square's centre, reached in a few steps; from
        # there every accepted step t > 0 is too small to change the iterate.
        model = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        centre = np.array([1.0, 0.5, 0.5])
        slope = 5.0 * DEFAULT_SOLVER.fw_gap_tol * np.array([0.0, 1.0, -2.0])

        def value(coords):
            return float(slope @ coords - np.sum(np.abs(coords - centre)))

        def gradient(coords):
            return slope - np.sign(coords - centre)

        sol = solve_polytope(MaxEntProblem(model, whole_space(model), CustomObjective(value, gradient)))
        assert sol.status == SolveStatus.NON_CONVERGENCE
        assert sol.iterations <= 10
        np.testing.assert_allclose(sol.state.coords, centre, atol=1e-12)

    @staticmethod
    def _assert_certified(problem, sol, max_iterations):
        assert sol.status == SolveStatus.CONVERGED
        assert sol.iterations <= max_iterations
        assert np.max(np.abs(sol.residuals)) <= 1e-8
        assert highs_fw_gap(problem, np.asarray(sol.state.coords)) <= 1e-6

    # The benchmark's sphere polytopes (seeds 1-4, four rounds of nv = 8, 16)
    # on which vanilla Frank-Wolfe stopped at fw_max_iter: (seed, instance).
    @pytest.mark.parametrize("seed,index", [(2, 0), (2, 2), (2, 3), (3, 4), (4, 3), (4, 4)])
    def test_sphere_polytopes_converge(self, seed, index):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(seed)
        problems = [
            fiducial_polytope_problem(sphere_polytope(nv, 3, rng), rng) for _ in range(4) for nv in (8, 16)
        ]
        problem = problems[index]
        self._assert_certified(problem, solve_polytope(problem), 500)

    # Frank-Wolfe results and random states are certified by their mixing
    # weights; the membership LP that those weights replace must agree.
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["n=8", "n=16", "n=32", "sphere8", "sphere16"]))
    def test_weight_certified_states_pass_the_membership_lp(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind.startswith("sphere"):
            model = sphere_polytope(int(kind[6:]), 3, rng)
        else:
            model = regular_polygon(int(kind[2:]))
        sol = solve_polytope(fiducial_polytope_problem(model, rng))
        for state in (sol.state, random_state(model, rng)):
            assert model.cone_residual(state.coords) <= FEASIBILITY_TOL

    @pytest.mark.parametrize("seed", [0, 2])
    def test_24_vertex_polytope_in_r4_converges(self, seed):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(seed)
        problem = fiducial_polytope_problem(sphere_polytope(24, 4, rng), rng)
        self._assert_certified(problem, solve_polytope(problem), 500)

    def test_exact_line_search_on_a_segment(self):
        # A polygon cut by one condition is a segment: one step of an exact
        # line search reaches the optimum, and the next iteration certifies it.
        angles = 2.0 * np.pi * np.arange(16) / 16
        model = Polytope(np.column_stack([np.cos(angles), np.sin(angles)]))
        for seed in range(8):
            sol = solve_polytope(fiducial_polytope_problem(model, np.random.default_rng(seed)))
            assert sol.status == SolveStatus.CONVERGED
            assert sol.iterations <= 3, seed

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_ascent_through_feasible_mixtures(self, seed, monkeypatch):
        import gmaxent.solver

        rng = np.random.default_rng(100 + seed)
        model = Polytope(rng.standard_normal((int(rng.integers(4, 13)), 2)))
        fiducial = fiducial_polytope_problem(model, rng)
        events = []  # ("grad", point) and ("lp", None), in call order
        value_calls = []

        def value(coords):
            value_calls.append(coords)
            return entropy(fiducial.objective, State(model, coords))

        def gradient(coords):
            events.append(("grad", np.array(coords)))
            return fiducial_gradient(fiducial.objective, coords)

        feasible_basis = gmaxent.solver.feasible_basis

        def recording_basis(*args, **kwargs):
            basis = feasible_basis(*args, **kwargs)
            optimize = basis.optimize

            def recorded(c, maximize=False):
                events.append(("lp", None))
                return optimize(c, maximize)

            basis.optimize = recorded
            return basis

        monkeypatch.setattr(gmaxent.solver, "feasible_basis", recording_basis)
        problem = MaxEntProblem(model, fiducial.region, CustomObjective(value, gradient))
        sol = solve_polytope(problem)
        assert sol.status == SolveStatus.CONVERGED
        # The objective's value is read once, for the reported entropy.
        assert len(value_calls) == 1

        # An iterate is the point whose gradient prices the next Frank-Wolfe LP.
        iterates = [p for (kind, p), (after, _) in zip(events, events[1:]) if kind == "grad" and after == "lp"]
        assert len(iterates) == sol.iterations
        values = [value(p) for p in iterates]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        (condition,) = problem.region.h_rep
        for p in iterates:  # value() built a State at each, so each lies in the polytope
            assert abs(float(condition.functional @ p) - condition.target) <= 1e-9
        # The result is the last iterate: the active-set mixture that was certified.
        np.testing.assert_allclose(sol.state.coords, iterates[-1], rtol=0, atol=1e-15)
        assert np.max(np.abs(sol.residuals)) <= 1e-9
        assert sol.entropy == pytest.approx(values[-1], abs=1e-12)

    def test_objective_compatibility(self):
        with pytest.raises(IncompatibleObjective):
            MaxEntProblem(Classical(2), whole_space(Classical(2)), VonNeumann())
        with pytest.raises(IncompatibleObjective):
            MaxEntProblem(Quantum(2), whole_space(Quantum(2)), Shannon())
        model = squarebit_model()
        with pytest.raises(IncompatibleObjective):
            solve_dual(squarebit_problem())
        with pytest.raises(IncompatibleObjective):
            solve_polytope(MaxEntProblem(Quantum(2), whole_space(Quantum(2)), VonNeumann()))


class TestEntropy:
    def test_uniform(self):
        model = Classical(5)
        assert entropy(Shannon(), maximally_mixed(model)) == pytest.approx(np.log(5.0), abs=1e-12)

    def test_pure_quantum(self):
        model = Quantum(2)
        v = np.array([1.0, 2.0]) / np.sqrt(5.0)
        s = State(model, model.matrix_to_coords(np.outer(v, v.conj())))
        assert entropy(VonNeumann(), s) == pytest.approx(0.0, abs=1e-10)

    def test_binary(self):
        model = Quantum(2)
        s = State(model, model.matrix_to_coords(np.diag([0.7, 0.3])))
        assert entropy(VonNeumann(), s) == pytest.approx(GIBBS_ENTROPY, abs=1e-10)

    def test_fiducial_on_center(self):
        problem = squarebit_problem()
        center = maximally_mixed(problem.model)
        assert entropy(problem.objective, center) == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


class TestRouting:
    def test_solve_routes_by_objective(self):
        assert solve(gibbs_problem()).status == SolveStatus.CONVERGED
        assert solve(squarebit_problem()).status == SolveStatus.CONVERGED

    def test_vrep_region_unsupported(self):
        model = Classical(2)
        region = ConvexRegion(model, (), (State(model, np.array([1.0, 0.0])),))
        with pytest.raises(UnsupportedRepresentation):
            solve_dual(MaxEntProblem(model, region, Shannon()))
