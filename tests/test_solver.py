"""Tests for the dual Newton and Frank-Wolfe solvers."""

import warnings
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gmaxent import (
    Classical,
    ConvexRegion,
    DegenerateInput,
    FiducialMeasurementEntropy,
    IncompatibleObjective,
    MaxEntProblem,
    ModelMismatch,
    NumericalFailure,
    Polytope,
    Quantum,
    DEFAULT_SOLVER,
    Effect,
    Shannon,
    SolverConfig,
    SolveStatus,
    State,
    UnsupportedRepresentation,
    VonNeumann,
    default_objective,
    entropy_from_spectrum,
    evaluate,
    maximally_mixed,
    meet,
    oracle_maxent,
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
from gmaxent.io import build_objective, build_region, load_problem, solver_config_from
from gmaxent.models import _state_range, random_unitary
from gmaxent.regions import LinearConstraint, _functional_matrix
from gmaxent.simplex import FEASIBILITY_TOL
from gmaxent.solver import (
    _BOUNDARY_RESIDUAL_TOL,
    _HESSIAN_RIDGE,
    _MULTIPLIER_BOUND,
    _ClassicalEvaluation,
    _CommutingEvaluation,
    _DualEvaluation,
    _QuantumEvaluation,
    _RANK_PIVOT_TOL,
    _centre,
    _evaluator,
    _face_newton,
    _objective_terms,
    _select_independent,
    _stack_r,
)

from helpers import (
    fake_objective_terms,
    fiducial_gradient,
    fiducial_polytope_problem,
    frechet_exp_directional,
    highs_fw_gap,
    consistency_repro_draws,
    indicator_observable,
    infeasibility_witness,
    matrix_exp,
    random_classical_problem,
    random_hermitian,
    random_quantum_problem,
    reference_classical_hessian,
    reference_feasible_basis,
    reference_hessian,
    reference_select_independent,
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
        lnz = _evaluator(model, _functional_matrix(model, [c]))(np.array([0.0])).lnz
        assert np.exp(lnz) == pytest.approx(2.0, abs=1e-12)
        assert lnz == pytest.approx(np.log(2.0), abs=1e-12)

    def test_classical(self):
        model = Classical(2)
        c = LinearConstraint(model, np.array([0.0, 1.0]), 0.3)
        lnz = _evaluator(model, _functional_matrix(model, [c]))(np.array([GIBBS_LAMBDA])).lnz
        assert np.exp(lnz) == pytest.approx(10.0 / 7.0, abs=1e-12)

    def test_quantum_diagonal_reduces_to_classical(self):
        model = Quantum(2)
        c = LinearConstraint(model, model.matrix_to_coords(np.diag([0.0, 1.0])), 0.3)
        lnz = _evaluator(model, _functional_matrix(model, [c]))(np.array([GIBBS_LAMBDA])).lnz
        assert np.exp(lnz) == pytest.approx(10.0 / 7.0, abs=1e-12)

    def test_shift_avoids_overflow(self):
        # Z = 2 cosh(1000) overflows a float; ln Z does not.
        model = Quantum(2)
        c = LinearConstraint(model, model.matrix_to_coords(SZ), 0.0)
        lnz = _evaluator(model, _functional_matrix(model, [c]))(np.array([-1000.0])).lnz
        assert lnz == pytest.approx(1000.0, abs=1e-6)


class TestDualGradient:
    """The gradient of D(lambda) = ln Z + lambda . r is r - means."""

    def test_zero_multiplier_satisfied(self):
        model = Quantum(2)
        c = LinearConstraint(model, model.matrix_to_coords(SZ), 0.0)
        g = 0.0 - _evaluator(model, _functional_matrix(model, [c]))(np.array([0.0])).means
        np.testing.assert_allclose(g, [0.0], atol=1e-12)

    def test_zero_multiplier_residual(self):
        model = Quantum(2)
        c = LinearConstraint(model, model.matrix_to_coords(np.diag([0.0, 1.0])), 0.3)
        g = 0.3 - _evaluator(model, _functional_matrix(model, [c]))(np.array([0.0])).means
        np.testing.assert_allclose(g, [-0.2], atol=1e-12)

    def test_stationary_at_converged_point(self):
        problem = gibbs_problem()
        sol = solve_dual(problem)
        funcs = _functional_matrix(problem.model, problem.region.h_rep)
        g = 0.3 - _evaluator(problem.model, funcs)(sol.multipliers).means
        assert np.max(np.abs(g)) <= 1e-10

    def test_matches_finite_difference_of_dual(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            problem = random_quantum_problem(rng, 3, 2)
            constraints = problem.region.h_rep
            dual = _evaluator(problem.model, _functional_matrix(problem.model, constraints))
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
            assert abs(sol.lambda0 - _evaluator(model, _functional_matrix(model, kept))(sol.multipliers).lnz) <= 1e-10

    def test_constraint_operators_converted_once_per_solve(self, monkeypatch):
        problem = random_quantum_problem(np.random.default_rng(5), 4, 3)
        original = Quantum.coords_to_matrices
        stacks = []

        def counted(model, coords):
            stacks.append(np.shape(coords))
            return original(model, coords)

        monkeypatch.setattr(Quantum, "coords_to_matrices", counted)
        sol = solve_dual(problem)
        assert sol.status == SolveStatus.CONVERGED
        assert sol.iterations >= 2
        # One stacked conversion of the 3 operators; the checks on the solved
        # state convert single rows through coords_to_matrix.
        assert [shape for shape in stacks if shape != (1, 16)] == [(3, 16)]
        assert len(stacks) <= 1 + 5

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
        # The State cone check; the operators are converted as one stack, and
        # the entropy converts nothing.
        assert len(calls) <= 1
        monkeypatch.undo()
        spectrum = np.linalg.eigvalsh(sol.state.density_matrix().entries)
        assert sol.entropy == pytest.approx(entropy_from_spectrum(spectrum), abs=1e-12)

    def test_solved_state_certified_by_its_factor_and_operators_rotated_only_for_a_hessian(self, monkeypatch):
        problem = random_quantum_problem(np.random.default_rng(0), 32, 16)
        original = Quantum.coords_to_matrices
        eigvalsh = np.linalg.eigvalsh
        rotations, spectra = [], []

        class Stack(np.ndarray):
            """The operator stack; counts the products that rotate all of it at once."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and any(np.ndim(x) == 3 for x in inputs):
                    rotations.append(1)
                return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        def counted(a):
            spectra.append(1)
            return eigvalsh(a)

        monkeypatch.setattr(Quantum, "coords_to_matrices", lambda model, coords: original(model, coords).view(Stack))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        sol = solve_dual(problem)
        assert sol.status == SolveStatus.CONVERGED
        # Three Newton steps: a Hessian at lambda = 0, which rotates nothing,
        # then one rotation for each of the two Hessians after it; the final
        # means are read from rho, and the state is certified by its factor.
        assert sol.iterations == 3
        assert len(rotations) == 2
        assert spectra == []
        monkeypatch.undo()
        assert State(problem.model, sol.state.coords) == sol.state

    def test_hessian_psd_at_every_step(self, monkeypatch):
        rng = np.random.default_rng(7)
        assert_hessian_psd_at_every_step(monkeypatch, [random_quantum_problem(rng, 3, 2) for _ in range(10)])

    def test_hessian_symmetric_and_covariance_like(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            problem = random_quantum_problem(rng, 3, 3)
            lambdas = rng.standard_normal(3)
            ev = _evaluator(problem.model, _functional_matrix(problem.model, problem.region.h_rep))(lambdas)
            h = ev.hessian()
            assert np.max(np.abs(h - h.T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(h)) >= -1e-9

    def test_hessian_matches_frechet_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            problem = random_quantum_problem(rng, 3, 2)
            constraints = list(problem.region.h_rep)
            lambdas = 0.5 * rng.standard_normal(2)
            ev = _evaluator(problem.model, _functional_matrix(problem.model, constraints))(lambdas)
            expected = frechet_hessian(problem.model, constraints, lambdas)
            np.testing.assert_allclose(ev.hessian(), expected, rtol=1e-12, atol=1e-12)

    def test_hessian_at_zero_multipliers(self):
        # The exponent is 0: every eigenvalue pair takes the close branch of
        # the divided difference.
        problem = random_quantum_problem(np.random.default_rng(22), 4, 3)
        constraints = list(problem.region.h_rep)
        lambdas = np.zeros(3)
        h = _evaluator(problem.model, _functional_matrix(problem.model, constraints))(lambdas).hessian()
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
        h = _evaluator(model, _functional_matrix(model, constraints))(lambdas).hessian()
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


def decomposed_evaluation(model, funcs, lambdas):
    """The quantum evaluation through eigh and the rotation of the operators, at any lambdas, 0 included."""
    d = model.dim
    operators = model.coords_to_matrices(funcs)
    ev = object.__new__(_QuantumEvaluation)
    k, u = np.linalg.eigh((-lambdas @ operators.reshape(-1, d * d)).reshape(d, d))
    ev._shifted = ev._gibbs(k)
    ev._model, ev._operators, ev._u = model, operators, u
    return ev


def counted_linalg(monkeypatch, name):
    """Route np.linalg.<name> through a counter; returns the list it appends to."""
    original = getattr(np.linalg, name)
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestMaximallyMixedStart:
    """At lambda = 0 the quantum dual is read at I/d in closed form, with no eigh and no rotation."""

    @pytest.mark.parametrize("m", [0, 1, 4, 16])
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_matches_the_decomposition_bit_for_bit(self, monkeypatch, d, m):
        model = Quantum(d)
        rng = np.random.default_rng(100 * d + m)
        funcs = np.array([random_effect(model, rng).functional for _ in range(m)]).reshape(m, model.ambient_dim)
        calls = counted_linalg(monkeypatch, "eigh")
        ev = _QuantumEvaluation(model, model.coords_to_matrices(funcs), np.zeros(m))
        closed = (ev.lnz, ev.top, ev.spectrum, ev.means, ev.hessian(), ev.state_coords)
        assert calls == []
        ref = decomposed_evaluation(model, funcs, np.zeros(m))
        assert calls == [1]
        expected = (ref.lnz, ref.top, ref.spectrum, ref.means, ref.hessian(), ref.state_coords)
        for got, want in zip(closed, expected):
            np.testing.assert_array_equal(got, want)
        assert ev.hessian().shape == (m, m)
        assert ev.lnz == np.log(d)
        np.testing.assert_array_equal(ev.spectrum, np.full(d, 1.0 / d))
        np.testing.assert_array_equal(reference_hessian(ev), reference_hessian(ref))

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_commuting_evaluator_runs_no_eigh_at_zero(self, monkeypatch, d):
        # One condition commutes with itself: its one eigh runs when the evaluator is built, none per evaluation.
        model = Quantum(d)
        funcs = random_effect(model, np.random.default_rng(d)).functional[None]
        calls = counted_linalg(monkeypatch, "eigh")
        ev = _evaluator(model, funcs)(np.zeros(1))
        closed = (ev.means, ev.hessian(), ev.state_coords)
        factor = ev.factor()
        assert calls == [1]
        assert isinstance(ev, _CommutingEvaluation)
        assert ev.lnz == np.log(d)
        assert ev.top == 0.0
        np.testing.assert_array_equal(ev.spectrum, np.full(d, 1.0 / d))
        ref = _QuantumEvaluation(model, model.coords_to_matrices(funcs), np.zeros(1))
        for got, want in zip(closed, (ref.means, ref.hessian(), ref.state_coords)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(factor @ factor.conj().T, np.eye(d) / d, rtol=0, atol=1e-15)

    def test_nonzero_multipliers_still_decompose(self):
        model = Quantum(4)
        rng = np.random.default_rng(12)
        funcs = np.array([random_effect(model, rng).functional for _ in range(3)])
        lambdas = np.array([0.0, 0.3, -1.2])
        ev = _evaluator(model, funcs)(lambdas)
        ref = decomposed_evaluation(model, funcs, lambdas)
        assert ev.lnz == ref.lnz
        for got, want in ((ev.means, ref.means), (ev.hessian(), ref.hessian()), (ev.state_coords, ref.state_coords)):
            np.testing.assert_array_equal(got, want)


def commuting_funcs(model, diagonals, u):
    """The coordinate rows of the operators U diag(a) U^H, one per row a of diagonals."""
    return np.array([model.matrix_to_coords((u * a) @ u.conj().T) for a in diagonals])


def single_conditions():
    """One condition each, as (model, funcs): random effects; a diagonal operator; rotated operators U diag(a) U^H,
    one with a 3-dimensional eigenspace."""
    rng = np.random.default_rng(26)
    sets = [
        pytest.param(Quantum(d), random_effect(Quantum(d), rng).functional[None], id=f"effect-d{d}")
        for d in (1, 2, 8, 32)
    ]
    diagonal = commuting_funcs(Quantum(5), rng.uniform(-1, 1, (1, 5)), np.eye(5))
    sets.append(pytest.param(Quantum(5), diagonal, id="diagonal"))
    degenerate = rng.uniform(-1, 1, (1, 6))
    degenerate[:, 1:3] = degenerate[:, :1]
    for name, diagonals in (("rotated", rng.uniform(-1, 1, (1, 6))), ("degenerate", degenerate)):
        sets.append(pytest.param(Quantum(6), commuting_funcs(Quantum(6), diagonals, random_unitary(6, rng)), id=name))
    return sets


class TestCommutingReduction:
    """One condition evaluated classically in its eigenbasis gives the Kubo-Mori evaluation."""

    @pytest.mark.parametrize("model,funcs", single_conditions())
    def test_same_evaluation_as_kubo_mori(self, model, funcs):
        dual_at = _evaluator(model, funcs)
        assert dual_at.func is _CommutingEvaluation
        operators = model.coords_to_matrices(funcs)
        rng = np.random.default_rng(model.dim)
        for scale in (0.0, 0.3, 3.0, 30.0):
            lambdas = scale * rng.standard_normal(1)
            ev, ref = dual_at(lambdas), _QuantumEvaluation(model, operators, lambdas)
            assert abs(ev.lnz - ref.lnz) <= 1e-12
            assert abs(ev.top - ref.top) <= 1e-12
            np.testing.assert_allclose(np.sort(ev.spectrum), np.sort(ref.spectrum), rtol=0, atol=1e-12)
            pairs = ((ev.means, ref.means), (ev.hessian(), ref.hessian()), (ev.state_coords, ref.state_coords))
            for got, want in pairs:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            State(model, ev.state_coords.copy(), factor=ev.factor())

    @pytest.mark.parametrize("m", [0, 2, 4])
    def test_other_stacks_take_the_kubo_mori_path(self, monkeypatch, m):
        # Only one condition is reduced; two or more, even diagonal ones, and the empty stack are not screened.
        model = Quantum(4)
        diagonals = np.random.default_rng(m).uniform(-1, 1, (m, 4))
        funcs = commuting_funcs(model, diagonals, np.eye(4)).reshape(m, model.ambient_dim)
        calls = counted_linalg(monkeypatch, "eigh")
        dual_at = _evaluator(model, funcs)
        assert dual_at.func is _QuantumEvaluation
        assert calls == []
        if m == 0:
            assert dual_at(np.zeros(0)).lnz == np.log(4)

    def test_eigensolver_failure_is_a_numerical_failure(self, monkeypatch):
        def faulty(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        model = Quantum(3)
        funcs = commuting_funcs(model, np.random.default_rng(1).uniform(-1, 1, (1, 3)), np.eye(3))
        monkeypatch.setattr(np.linalg, "eigh", faulty)
        with pytest.raises(NumericalFailure):
            _evaluator(model, funcs)


def kubo_mori_solve(monkeypatch, problem, config=DEFAULT_SOLVER):
    """solve_dual with the one-condition reduction turned off."""
    with monkeypatch.context() as patch:
        kubo_mori = lambda model, funcs: partial(_QuantumEvaluation, model, model.coords_to_matrices(funcs))
        patch.setattr("gmaxent.solver._evaluator", kubo_mori)
        return solve_dual(problem, config)


def file_problem(name):
    parsed = load_problem(Path(__file__).resolve().parent.parent / "problems" / f"{name}.json")
    return MaxEntProblem(parsed.model, build_region(parsed), build_objective(parsed)), solver_config_from(parsed)


def near_boundary_single_conditions():
    """Seeded one-condition targets on both sides of the boundary: sigma_z means and a random qutrit projector."""
    rng = np.random.default_rng(2026)
    out = [("sigmaz", 1.0), ("sigmaz", -1.0)]
    for delta in np.exp(rng.uniform(np.log(1e-8), np.log(5e-2), 4)):
        out += [("sigmaz", 1.0 - delta), ("sigmaz", -1.0 + delta), ("sigmaz", 1.0 + delta), ("sigmaz", -1.0 - delta)]
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    projector = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    model = Quantum(3)
    problems = [near_boundary_problem(family, t) for family, t in out]
    for t in (0.0, 1.0, 1e-6, 1e-3, -1e-6, -1e-3, 1.0 - 1e-4, 1.0 + 1e-4):
        problems.append(MaxEntProblem(model, region_from_mean(spectral_observable(model, projector), t), VonNeumann()))
    return problems


class TestCommutingSolves:
    """One eigh per single-condition quantum solve, with the statuses and steps of the Kubo-Mori path."""

    @staticmethod
    def assert_same_solve(monkeypatch, problem, config=DEFAULT_SOLVER):
        calls = counted_linalg(monkeypatch, "eigh")
        sol = solve_dual(problem, config)
        assert calls == [1]
        ref = kubo_mori_solve(monkeypatch, problem, config)
        assert sol.status == ref.status
        assert sol.iterations == ref.iterations
        if ref.state is None:
            assert sol.state is None
            return sol
        assert np.max(np.abs(sol.state.coords - ref.state.coords)) <= 1e-12
        assert abs(sol.entropy - ref.entropy) <= 1e-12
        return sol

    @pytest.mark.parametrize(
        "name,status",
        [
            ("gibbs_qubit", SolveStatus.CONVERGED),
            ("boundary_sigmaz", SolveStatus.BOUNDARY_ONLY),
            ("effect_condition_qubit", SolveStatus.CONVERGED),
        ],
    )
    def test_problem_files(self, monkeypatch, name, status):
        assert self.assert_same_solve(monkeypatch, *file_problem(name)).status == status

    @pytest.mark.parametrize("problem", near_boundary_single_conditions())
    def test_near_boundary_targets(self, monkeypatch, problem):
        self.assert_same_solve(monkeypatch, problem)


@pytest.mark.parametrize(
    "model", [Quantum(1), Quantum(2), Quantum(32), Classical(7)], ids=["quantum1", "quantum2", "quantum32", "classical7"]
)
def test_no_conditions_give_the_maximally_mixed_state(model):
    d = model.dim
    sol = solve(MaxEntProblem(model, whole_space(model), default_objective(model)))
    assert sol.status == SolveStatus.CONVERGED
    assert sol.iterations == 0
    assert sol.multipliers.shape == (0,)
    assert sol.residuals.shape == (0,)
    if model.kind == "quantum":
        np.testing.assert_allclose(sol.state.density_matrix().entries, np.eye(d) / d, rtol=0, atol=1e-15)
    else:
        np.testing.assert_allclose(sol.state.coords, np.full(d, 1.0 / d), rtol=0, atol=1e-15)
    assert sol.entropy == pytest.approx(np.log(d), rel=1e-15, abs=0)
    assert sol.lambda0 == pytest.approx(np.log(d), rel=1e-15, abs=0)
    assert np.copysign(1.0, sol.entropy) == 1.0


class TestSolveDualClassical:
    @pytest.mark.parametrize("m", [1, 4, 32])
    def test_hessian_matches_general_product(self, m):
        rng = np.random.default_rng(40 + m)
        problem = random_classical_problem(rng, 10_000, m)
        dual_at = _evaluator(problem.model, _functional_matrix(problem.model, problem.region.h_rep))
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
        [(0, SolveStatus.NON_CONVERGENCE), (1, SolveStatus.INFEASIBLE), (3, SolveStatus.INFEASIBLE)],
    )
    def test_infeasible_needs_iterations_to_certify(self, max_iter, expected):
        # The certificate is computed only past multiplier_bound. For the
        # target 2 the dual falls linearly along the Newton direction, so the
        # line search of the first step doubles it until lambda = -12288
        # passes the bound; a cap of 0 stops before any step. ``iterations``
        # counts the steps taken, the one that passed the bound included.
        model = Classical(2)
        region = region_from_mean(indicator_observable(model, [0.0, 1.0]), 2.0)
        sol = solve_dual(MaxEntProblem(model, region, Shannon()), SolverConfig(max_iter=max_iter))
        assert sol.status == expected
        assert sol.iterations == {0: 0, 1: 1, 3: 1}[max_iter]

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


def classical_condition_problem(seed):
    """Classical(d), d in 2..8, with 1 to 4 conditions whose targets come from an interior state.

    Past d - 1 conditions, and by chance before, a condition is a random
    combination of the earlier ones, which the rank filter drops.
    """
    rng = np.random.default_rng(seed)
    d, m = int(rng.integers(2, 9)), int(rng.integers(1, 5))
    model = Classical(d)
    anchor = rng.dirichlet(np.ones(d)) + 0.2 / d
    anchor /= anchor.sum()
    funcs = list(rng.uniform(-1.0, 1.0, (min(m, d - 1), d)))
    while len(funcs) < m:
        funcs.insert(int(rng.integers(1, len(funcs) + 1)), rng.uniform(-1.0, 1.0, len(funcs)) @ np.array(funcs))
    constraints = tuple(LinearConstraint(model, f, float(f @ anchor)) for f in funcs)
    return MaxEntProblem(model, ConvexRegion(model, constraints), Shannon())


def diagonal_embedding(problem):
    """The classical problem posed on Quantum(d): each condition f becomes the diagonal operator diag(f)."""
    model = Quantum(problem.model.dim)
    constraints = tuple(
        LinearConstraint(model, model.matrix_to_coords(np.diag(c.functional)), c.target) for c in problem.region.h_rep
    )
    return MaxEntProblem(model, ConvexRegion(model, constraints), VonNeumann())


class TestOnePrincipleOnEveryModel:
    """One MaxEnt answer for classical conditions, whichever model or solver poses them.

    Seed 98217081 draws two nearly dependent conditions on Classical(3) whose
    one feasible point is interior, but whose multipliers (-11282, 3332) lie
    past ``_MULTIPLIER_BOUND``: the dual stops there with NON_CONVERGENCE on
    either model, while Frank-Wolfe converges. Both tests run it every time.
    """

    @staticmethod
    def _stopped_at_the_bound(sol):
        return sol.status is SolveStatus.NON_CONVERGENCE and np.abs(sol.multipliers).max() > _MULTIPLIER_BOUND

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(seed=98217081)
    def test_diagonal_quantum_conditions_give_the_classical_answer(self, seed):
        problem = classical_condition_problem(seed)
        classical = solve_dual(problem)
        quantum = solve_dual(diagonal_embedding(problem))
        assert quantum.diagnostics.kept_indices == classical.diagnostics.kept_indices
        assert quantum.diagnostics.dropped_indices == classical.diagnostics.dropped_indices
        if self._stopped_at_the_bound(classical):
            assert self._stopped_at_the_bound(quantum)
            return
        assert classical.status == quantum.status == SolveStatus.CONVERGED
        assert abs(quantum.entropy - classical.entropy) <= 1e-12
        np.testing.assert_allclose(
            quantum.state.density_matrix().entries, np.diag(classical.state.coords), rtol=0, atol=1e-12
        )
        lambdas = classical.multipliers
        assert np.all(np.abs(quantum.multipliers - lambdas) <= 1e-10 * np.maximum(1.0, np.abs(lambdas)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(seed=98217081)
    def test_dual_and_frank_wolfe_agree_on_shannon(self, seed):
        problem = classical_condition_problem(seed)
        dual = solve_dual(problem)
        fw = solve_polytope(problem)
        assert fw.status == SolveStatus.CONVERGED
        if self._stopped_at_the_bound(dual):
            return
        assert dual.status == SolveStatus.CONVERGED
        # The Frank-Wolfe gap bounds how far its entropy sits below the maximum.
        assert abs(dual.entropy - fw.entropy) <= DEFAULT_SOLVER.fw_gap_tol


class TestNonUniformFaceLimit:
    """Targets on a face of the state space whose limiting state is not uniform on it.

    Classical(4) with p4 = 0 and p1 = 0.5, and Quantum(3) with <|2><2|> = 0
    and <|0><0|> = 0.7, solve to BOUNDARY_ONLY at finite multipliers (about
    (80.4, -0.69) and (28.5, -0.85)). Their dual certificate
    c(lambda) = h(-sum_i lambda_i f_i) + lambda . t is 4.3e-3 and 8.9e-3 of
    |lambda|, so the rule "BOUNDARY_ONLY iff c(lambda) <= grad_tol |lambda|"
    would call both converged.
    """

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_boundary_only_at_the_face_limit(self, kind):
        if kind == "classical":
            model = Classical(4)
            funcs = [np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0])]
            targets, limit = np.array([0.0, 0.5]), np.array([0.5, 0.25, 0.25, 0.0])
        else:
            model = Quantum(3)
            funcs = [model.matrix_to_coords(np.diag([0.0, 0.0, 1.0])), model.matrix_to_coords(np.diag([1.0, 0.0, 0.0]))]
            targets, limit = np.array([0.0, 0.7]), model.matrix_to_coords(np.diag([0.7, 0.3, 0.0]))
        region = meet(*(region_from_effect(Effect(model, f), t) for f, t in zip(funcs, targets)))
        sol = solve(MaxEntProblem(model, region, default_objective(model)))
        assert sol.status == SolveStatus.BOUNDARY_ONLY
        np.testing.assert_allclose(sol.state.coords, limit, atol=1e-9)
        lam = sol.multipliers
        certificate = _state_range(model, -lam @ np.array(funcs))[1] + lam @ targets
        assert certificate > 1e-3 * np.linalg.norm(lam) > DEFAULT_SOLVER.grad_tol * np.linalg.norm(lam)


def _random_effect_constraints(model, m, rng):
    interior = random_state(model, rng)
    effects = [random_effect(model, rng) for _ in range(m)]
    return [LinearConstraint(model, e.functional, evaluate(e, interior)) for e in effects]


def _orthogonal_unit(model, funcs, rng):
    """A unit vector orthogonal to the rows of funcs and to the unit functional."""
    v = rng.standard_normal(funcs.shape[1])
    q, _ = np.linalg.qr(np.vstack([funcs, model.unit_functional]).T)
    v -= q @ (q.T @ v)
    return v / np.linalg.norm(v)


def _rank_filter_case(name):
    """(constraints, expected (kept, dropped, contradiction)) for one rank-filter input."""
    rng = np.random.default_rng(19)
    if name in ("classical-4", "classical-32"):
        m = int(name.split("-")[1])
        return _random_effect_constraints(Classical(10_000), m, rng), (list(range(m)), [], False)
    if name == "quantum-8":
        return _random_effect_constraints(Quantum(8), 6, rng), (list(range(6)), [], False)
    wide = name in ("planted", "conflicting") or name.endswith("-wide")
    model = Classical(10_000) if wide else Classical(20)
    base = _random_effect_constraints(model, 5, rng)
    funcs = _functional_matrix(model, base)
    targets = np.array([c.target for c in base])
    if name in ("planted", "conflicting"):
        # Exact combinations of earlier rows, a positive rescaling among them.
        shift = 1e-3 if name == "conflicting" else 0.0
        planted = [
            LinearConstraint(model, w @ funcs, float(w @ targets) + shift)
            for w in (np.array([0.3, 1.0, -1.7, 0.0, 0.0]), np.array([0.0, 2.5, 0.0, 0.0, 0.0]))
        ]
        constraints = base[:3] + planted[:1] + base[3:] + planted[1:]
        expected = ([0, 1, 2, 3], [], True) if shift else ([0, 1, 2, 4, 5], [3, 6], False)
        return constraints, expected
    # A row whose residual off the span of the others sits just above or
    # just below _RANK_PIVOT_TOL times its norm, off the others and the unit functional; a -wide stack spans
    # several QR blocks.
    u = _orthogonal_unit(model, funcs, rng)
    factor = 1.01 if name.startswith("pivot-above") else 0.99
    f = funcs[0] + factor * _RANK_PIVOT_TOL * np.linalg.norm(funcs[0]) * u
    constraints = base + [LinearConstraint(model, f, base[0].target)]
    expected = (list(range(6)), [], False) if name.startswith("pivot-above") else (list(range(5)), [5], False)
    return constraints, expected


class TestBoundaryPastTheMultiplierBound:
    """f = (0, 1e-3, 1) with target 0 on Classical(3) holds only at p = (1, 0, 0).

    The first Newton step, doubled along the exponential tail, takes lambda to
    about 1.23e4, past ``_MULTIPLIER_BOUND``. No recession certificate fires,
    since the face is met, and the residual, about 4.5e-9, lies within
    ``_BOUNDARY_RESIDUAL_TOL``: the status is BOUNDARY_ONLY, with that step's
    state and multipliers. The diagonal Quantum(3) problem goes through the
    one-condition reduction to the same answer.
    """

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_boundary_only_past_the_bound(self, kind):
        model = Classical(3)
        problem = MaxEntProblem(
            model, ConvexRegion(model, (LinearConstraint(model, np.array([0.0, 1e-3, 1.0]), 0.0),)), Shannon()
        )
        if kind == "quantum":
            problem = diagonal_embedding(problem)
            funcs = _functional_matrix(problem.model, problem.region.h_rep)
            assert _evaluator(problem.model, funcs).func is _CommutingEvaluation
        sol = solve_dual(problem)
        assert sol.status is SolveStatus.BOUNDARY_ONLY
        assert sol.iterations == 1
        assert sol.state is not None and sol.multipliers.shape == (1,)
        assert _MULTIPLIER_BOUND < sol.multipliers[0] < 2.0 * _MULTIPLIER_BOUND
        assert np.abs(sol.residuals).max() <= _BOUNDARY_RESIDUAL_TOL
        p = sol.state.coords if kind == "classical" else np.diag(sol.state.density_matrix().entries).real
        np.testing.assert_allclose(p, [1.0, 0.0, 0.0], rtol=0, atol=1e-5)
        assert p[1] > 0.0


def _filter(model, funcs, norms, targets):
    """``_select_independent`` on copies of the rows and targets centred as ``solve_dual`` centres them."""
    centred = funcs.copy()
    shift = _centre(model, centred)
    return _select_independent(centred, norms, targets - shift, DEFAULT_SOLVER)


def _assert_matches_reference(model, funcs, targets, result):
    """(kept, dropped) as the reference's, and the same witness: both None, or equal within 1e-9."""
    kept, dropped, witness, _ = result
    ref_kept, ref_dropped, ref_witness = reference_select_independent(
        funcs, targets, model.unit_functional, DEFAULT_SOLVER
    )
    assert (kept, dropped) == (ref_kept, ref_dropped)
    assert (witness is None) == (ref_witness is None)
    if witness is not None:
        np.testing.assert_allclose(witness, ref_witness, rtol=1e-9, atol=1e-9)


class TestSelectIndependent:
    """The rank filter works modulo the unit functional u, since a combination of conditions in span(u) is constant
    on the states. It reads the stored norms and matches the reference, Gram-Schmidt from a basis seeded with u/|u|
    that norms every row itself and re-checks a dependent row's target with the u column in its ``lstsq``."""

    @pytest.mark.parametrize(
        "name",
        [
            "classical-4",
            "classical-32",
            "quantum-8",
            "planted",
            "pivot-above",
            "pivot-below",
            "pivot-above-wide",
            "pivot-below-wide",
            "conflicting",
        ],
    )
    def test_matches_reference(self, name):
        constraints, expected = _rank_filter_case(name)
        model = constraints[0].model
        funcs = _functional_matrix(model, constraints)
        targets = np.array([c.target for c in constraints])
        result = _filter(model, funcs, [c.norm for c in constraints], targets)
        _assert_matches_reference(model, funcs, targets, result)
        kept, dropped, witness, _ = result
        assert (kept, dropped, witness is not None) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["classical", "quantum", "overfull"]),
        st.sampled_from(["none", "combination", "shifted", "pivot-0.5", "pivot-2"]),
        st.data(),
    )
    def test_qr_pivots_match_gram_schmidt(self, seed, shape, plant, data):
        # Random effects measured on one interior state, so a dependent row is
        # consistent unless its target is shifted; one row may be planted as a
        # combination of the rows before it, or off them by a multiple of the floor.
        rng = np.random.default_rng(seed)
        if shape == "overfull":
            model, m = data.draw(st.sampled_from([(Quantum(2), 5), (Classical(3), 4)]))
        else:
            d = data.draw(st.integers(2, 60) if shape == "classical" else st.integers(2, 6))
            model, m = (Classical(d) if shape == "classical" else Quantum(d)), data.draw(st.integers(1, 8))
        constraints = _random_effect_constraints(model, m, rng)
        funcs = _functional_matrix(model, constraints)
        targets = np.array([c.target for c in constraints])
        if plant.startswith("pivot") and m + 1 >= model.ambient_dim:
            plant = "combination"
        if plant != "none":
            k = data.draw(st.integers(1, m))
            w = rng.standard_normal(k)
            f, t = w @ funcs[:k], float(w @ targets[:k]) + (1e-3 if plant == "shifted" else 0.0)
            if plant.startswith("pivot"):
                factor = float(plant.split("-")[1])
                f = f + factor * _RANK_PIVOT_TOL * max(1.0, np.linalg.norm(f)) * _orthogonal_unit(model, funcs, rng)
            funcs = np.insert(funcs, k, f, axis=0)
            targets = np.insert(targets, k, t)
        norms = [float(np.linalg.norm(f)) for f in funcs]
        result = _filter(model, funcs, norms, targets)
        _assert_matches_reference(model, funcs, targets, result)
        if plant.startswith("pivot"):
            assert (k in result[0]) == (plant == "pivot-2")

    @pytest.mark.parametrize("name", ["classical-4", "quantum-8", "planted"])
    def test_one_factorization_unless_a_row_drops(self, name, monkeypatch):
        calls = {"qr": 0, "lstsq": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        constraints, (_, dropped, _) = _rank_filter_case(name)
        model = constraints[0].model
        funcs = _functional_matrix(model, constraints)
        targets = np.array([c.target for c in constraints])
        # "qr" counts whole factorizations, each one blocked QR of the stack.
        monkeypatch.setattr("gmaxent.solver._stack_r", counted(_stack_r, "qr"))
        monkeypatch.setattr(np.linalg, "lstsq", counted(np.linalg.lstsq, "lstsq"))
        _filter(model, funcs, [c.norm for c in constraints], targets)
        # planted drops rows 3 and 6 of 7: row 3 refactors the rest, row 6 is last.
        assert calls == ({"qr": 1, "lstsq": 0} if not dropped else {"qr": 2, "lstsq": 2})
        calls.update(qr=0, lstsq=0)
        _filter(model, funcs[:1], [constraints[0].norm], targets[:1])
        assert calls == {"qr": 0, "lstsq": 0}

    @pytest.mark.parametrize("name", ["classical-4", "quantum-8", "planted"])
    def test_returns_the_kept_rows_factor(self, name):
        # R^T R is the Gram matrix of the kept centred rows, whichever rows were dropped on the way.
        constraints, _ = _rank_filter_case(name)
        model = constraints[0].model
        funcs = _functional_matrix(model, constraints)
        kept, _, _, r = _filter(model, funcs, [c.norm for c in constraints], np.array([c.target for c in constraints]))
        centred = funcs[kept].copy()
        _centre(model, centred)
        gram = centred @ centred.T
        np.testing.assert_allclose(r.T @ r, gram, rtol=0, atol=1e-12 * np.abs(gram).max())


class TestBlockedFactorization:
    """``_stack_r`` is ``np.linalg.qr(stack.T, mode="r")`` factored in column blocks: the same |R_jj|."""

    @pytest.mark.parametrize("m", [2, 4, 16, 32, 40])
    def test_wide_pivots_match_one_qr(self, m):
        # m = 2 fits one 256 KB block; m = 4, 16, 32 and 40 span 2, 5, 10 and 13.
        model = Classical(10_000)
        funcs = _functional_matrix(model, _random_effect_constraints(model, m, np.random.default_rng(m)))
        np.testing.assert_allclose(
            np.abs(_stack_r(funcs).diagonal()), np.abs(np.linalg.qr(funcs.T, mode="r").diagonal()), rtol=1e-13, atol=0
        )

    def test_planted_dependent_row(self):
        # Row 3 is a combination of rows 0-2. The filter reads pivots up to it and refactors
        # without it, since every later pivot rests on its noise reflector.
        constraints, _ = _rank_filter_case("planted")
        funcs = _functional_matrix(constraints[0].model, constraints)
        ours = np.abs(_stack_r(funcs).diagonal())[:4]
        ref = np.abs(np.linalg.qr(funcs.T, mode="r").diagonal())[:4]
        np.testing.assert_allclose(ours[:3], ref[:3], rtol=1e-13, atol=0)
        # Both of its pivots are rounding noise, within 1e-13 of its norm and far below the floor.
        norm = np.linalg.norm(funcs[3])
        assert abs(ours[3] - ref[3]) < 1e-13 * norm
        assert max(ours[3], ref[3]) < 1e-3 * _RANK_PIVOT_TOL * norm

    @pytest.mark.parametrize("model", [Quantum(8), Classical(20)], ids=["quantum-8", "classical-20"])
    def test_one_block_is_one_qr_bit_for_bit(self, model):
        funcs = _functional_matrix(model, _random_effect_constraints(model, 6, np.random.default_rng(3)))
        assert np.array_equal(_stack_r(funcs), np.linalg.qr(funcs.T, mode="r"))


def _dual_problem(model, rows, targets):
    """The MaxEnt problem of the conditions rows[i] . x = targets[i] on model."""
    constraints = tuple(LinearConstraint(model, np.asarray(f, dtype=float), t) for f, t in zip(rows, targets))
    return MaxEntProblem(model, ConvexRegion(model, constraints), default_objective(model))


def _span_case(name, consistent):
    """(problem, index of the planted row): a row a . kept + b u, in span(kept, u) but not in span(kept), whose target
    the kept conditions and u = 1 imply, or miss by 0.1 (the Classical(3) pair) or 1e-3."""
    if name == "classical-3":
        # f1 + f2 = u, so t2 = 1 - t1 = 0.7 is implied.
        return _dual_problem(Classical(3), [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [0.3, 0.7 if consistent else 0.6]), 1
    model = Classical(10) if name == "classical-10" else Quantum(3)
    rng = np.random.default_rng(23)
    base = _random_effect_constraints(model, 2, rng)
    a, b = np.array([0.4, -1.3]), 0.9
    f = a @ np.array([c.functional for c in base]) + b * model.unit_functional
    t = float(a @ [c.target for c in base]) + b + (0.0 if consistent else 1e-3)
    return _dual_problem(model, [c.functional for c in base] + [f], [c.target for c in base] + [t]), 2


class TestDependenceModuloUnit:
    """A condition that the kept ones and the unit functional u fix on the states cannot change the answer.

    A row in span(kept, u) whose target they imply is dropped, and the state is the one without it; when the target
    disagrees the solve is INFEASIBLE before any Newton step, and its multipliers y, the ``lstsq`` coefficients on
    the kept rows and -1 on that row, are a witness: sum_j y_j f_j is constant on the states, and y . t misses it.
    """

    @pytest.mark.parametrize("name", ["classical-3", "classical-10", "quantum-3"])
    def test_implied_target_is_dropped(self, name):
        problem, planted = _span_case(name, consistent=True)
        sol = solve_dual(problem)
        assert sol.status is SolveStatus.CONVERGED
        assert sol.diagnostics.dropped_indices == (planted,)
        rest = ConvexRegion(problem.model, problem.region.h_rep[:planted])
        alone = solve_dual(MaxEntProblem(problem.model, rest, problem.objective))
        np.testing.assert_allclose(sol.state.coords, alone.state.coords, rtol=0, atol=1e-12)
        assert np.max(sol.residuals) <= DEFAULT_SOLVER.residual_tol

    @pytest.mark.parametrize("name", ["classical-3", "classical-10", "quantum-3"])
    def test_contradicted_target_has_a_witness(self, name):
        problem, planted = _span_case(name, consistent=False)
        sol = solve_dual(problem)
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.state is None and sol.iterations == 0
        assert sol.diagnostics.kept_indices == tuple(range(planted + 1))
        assert len(sol.multipliers) == planted + 1 and sol.multipliers[-1] == -1.0
        spread, margin = infeasibility_witness(problem, sol)
        assert spread <= 1e-12
        assert margin >= (0.1 if name == "classical-3" else 1e-3) * (1.0 - 1e-9)
        if name == "classical-3":
            np.testing.assert_allclose(sol.multipliers, [-1.0, -1.0], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("model", [Classical(4), Quantum(2)], ids=["classical-4", "quantum-2"])
    @pytest.mark.parametrize("target", [0.7, 0.9])
    def test_lone_multiple_of_the_unit(self, model, target):
        # f = 0.7 u takes the value 0.7 on every state: target 0.7 leaves the whole space, and 0.9 no state.
        problem = _dual_problem(model, [0.7 * model.unit_functional], [target])
        sol = solve_dual(problem)
        if target == 0.7:
            assert sol.status is SolveStatus.CONVERGED and sol.iterations == 0
            assert sol.diagnostics.kept_indices == () and sol.diagnostics.dropped_indices == (0,)
            np.testing.assert_allclose(sol.state.coords, maximally_mixed(model).coords, rtol=0, atol=1e-15)
            return
        assert sol.status is SolveStatus.INFEASIBLE and sol.iterations == 0
        assert sol.diagnostics.kept_indices == (0,)
        np.testing.assert_array_equal(sol.multipliers, [-1.0])
        spread, margin = infeasibility_witness(problem, sol)
        assert spread <= 1e-15 and abs(margin - 0.2) <= 1e-12

    def test_recession_witness_reads_the_same_way(self):
        # Classical(2), target 2 on outcome values (0, 1): the multiplier passes the bound, and -lambda certifies.
        model = Classical(2)
        problem = MaxEntProblem(model, region_from_mean(indicator_observable(model, [0.0, 1.0]), 2.0), Shannon())
        sol = solve_dual(problem)
        assert sol.status is SolveStatus.INFEASIBLE
        assert infeasibility_witness(problem, sol)[1] > DEFAULT_SOLVER.residual_tol


class TestFirstHessianFromTheFactor:
    """Every solve starts at the uniform state, where the Hessian is R^T R / u . u, R the rank filter's factor of the
    kept centred rows: a solve computes one Hessian fewer than its Newton steps, and takes the same first step as a
    Hessian pass at lambda = 0 on the raw rows."""

    @pytest.mark.parametrize(
        "family,size", [("classical", 4), ("classical", 16), ("quantum", 1), ("quantum", 4), ("sigmaz", 0.999)]
    )
    def test_one_hessian_fewer_than_newton_steps(self, monkeypatch, family, size):
        problem = trajectory_problem(family, size)
        original = _DualEvaluation.hessian
        calls = []

        def counted(ev):
            calls.append(None)
            return original(ev)

        monkeypatch.setattr(_DualEvaluation, "hessian", counted)
        sol = solve_dual(problem)
        assert sol.status is SolveStatus.CONVERGED and sol.iterations >= 2
        assert len(calls) == sol.iterations - 1

    @pytest.mark.parametrize("family,size", [("classical", 4), ("classical", 16), ("quantum", 4), ("quantum", 16)])
    def test_first_direction_is_the_lambda_zero_hessians(self, monkeypatch, family, size):
        import gmaxent.solver

        problem = trajectory_problem(family, size)
        funcs = _functional_matrix(problem.model, problem.region.h_rep)
        ev = _evaluator(problem.model, funcs)(np.zeros(len(funcs)))
        g = np.array([c.target for c in problem.region.h_rep]) - ev.means
        expected = np.linalg.solve(ev.hessian() + _HESSIAN_RIDGE * np.eye(len(g)), g)
        solve = np.linalg.solve
        directions = []

        def recorded(a, b):
            directions.append(solve(a, b))
            return directions[-1]

        monkeypatch.setattr(gmaxent.solver.np.linalg, "solve", recorded)
        solve_dual(problem)
        np.testing.assert_allclose(directions[0], expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("n,m", [(5, 1), (2000, 4), (10_000, 16)])
    def test_classical_closed_form_at_zero_bit_for_bit(self, n, m):
        funcs = np.random.default_rng(n).uniform(size=(m, n))
        ev = _ClassicalEvaluation(funcs, np.zeros(m))
        ref = object.__new__(_ClassicalEvaluation)
        ref._funcs = funcs
        ref._gibbs(-(np.zeros(m) @ funcs))
        assert ev.lnz == ref.lnz == np.log(n) and ev.top == ref.top
        for got, want in ((ev.spectrum, ref.spectrum), (ev.means, ref.means), (ev.hessian(), ref.hessian())):
            np.testing.assert_array_equal(got, want)


def _law_draw(kind, seed):
    """(model, conditions measured at a random full-support state sigma, sigma, rng): k random effects, k in 1..3,
    on Classical(2..6) or Quantum(2..4), with k + 1 below the dimension of the state space's affine hull."""
    rng = np.random.default_rng(seed)
    model = Classical(int(rng.integers(2, 7))) if kind == "classical" else Quantum(int(rng.integers(2, 5)))
    sigma = random_state(model, rng)
    k = int(rng.integers(1, min(3, model.ambient_dim - 1) + 1))
    effects = [random_effect(model, rng) for _ in range(k)]
    return model, [region_from_effect(e, evaluate(e, sigma)) for e in effects], sigma, rng


def _maxent(model, regions, config=DEFAULT_SOLVER):
    """The dual's answer on the meet of regions; a draw it does not solve is no case of a law (see the class)."""
    region = regions[0]
    for other in regions[1:]:
        region = meet(region, other)
    sol = solve_dual(MaxEntProblem(model, region, default_objective(model)), config)
    assume(sol.status is SolveStatus.CONVERGED)
    return sol


def _entropy_of(model, coords):
    if model.kind == "classical":
        return entropy_from_spectrum(coords)
    return entropy_from_spectrum(np.linalg.eigvalsh(model.coords_to_matrix(coords).entries))


class TestMaxEntLatticeLaws:
    """Three laws of the MaxEnt map on the lattice of condition regions, each checked without a second solver.

    Antitone: A <= B gives S*(A) <= S*(B). Consistency (Jaynes; Shore & Johnson, IEEE Trans. Inf. Theory 26, 1980):
    meeting A with a condition that sigma_A already meets leaves sigma_A unchanged. Sampled optimality: no feasible
    state has more entropy than sigma_A, since S(sigma_A) - S(rho) = D(rho || sigma_A) for rho with the same
    condition values (Csiszar, Ann. Probab. 3, 1975). Conditions are measured at a full-support state, so every
    region drawn is met in its interior. A draw whose conditions nearly pin a quantum state can put its multipliers
    past the bound, where the dual ends BOUNDARY_ONLY on an interior state (item 10 of ROADMAP.md): such a draw,
    about 1 quantum draw in 1000, is not checked.
    """

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_antitone(self, kind, seed):
        model, regions, sigma, rng = _law_draw(kind, seed)
        e = random_effect(model, rng)
        outer = _maxent(model, regions)
        inner = _maxent(model, regions + [region_from_effect(e, evaluate(e, sigma))])
        assert inner.entropy <= outer.entropy + 1e-12

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_consistency(self, kind, seed):
        # sigma_A meets its conditions only within grad_tol, and a g independent of them moves the state by that
        # much over the conditioning: up to 3.2e-7 in 8000 draws at the default 1e-10, and 5.1e-11 at 1e-13.
        config = SolverConfig(grad_tol=1e-13)
        model, regions, _, rng = _law_draw(kind, seed)
        sol = _maxent(model, regions, config)
        # Half the draws take g in span(kept, u), which is dropped: the same solve, so the same state.
        g = random_effect(model, rng)
        dependent = rng.random() < 0.5
        if dependent:
            funcs = np.array([r.h_rep[0].functional for r in regions])
            w = rng.uniform(0.0, 1.0, len(funcs))
            w /= 2.0 * w.sum()
            g = Effect(model, w @ funcs + 0.25 * model.unit_functional)
        dependent = dependent or len(regions) + 1 == model.ambient_dim  # then every g is in span(kept, u)
        met = _maxent(model, regions + [region_from_effect(g, evaluate(g, sol.state))], config)
        assert (met.diagnostics.dropped_indices == (len(regions),)) == dependent
        np.testing.assert_allclose(met.state.coords, sol.state.coords, rtol=0, atol=1e-12 if dependent else 1e-9)
        assert abs(met.entropy - sol.entropy) <= (1e-12 if dependent else 1e-10)

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_sampled_optimality(self, kind, seed):
        model, regions, sigma, rng = _law_draw(kind, seed)
        sol = _maxent(model, regions)
        best = sol.state.coords
        # Feasible samples: mixtures with the state the targets were read from, and moves off sigma_A along
        # directions that no condition and not u sees, half-way to the boundary.
        samples = [t * sigma.coords + (1.0 - t) * best for t in (0.25, 0.5, 1.0)]
        funcs = np.array([r.h_rep[0].functional for r in regions] + [model.unit_functional])
        q, _ = np.linalg.qr(funcs.T, mode="complete")
        for _ in range(3 if model.ambient_dim > len(funcs) else 0):
            delta = q[:, len(funcs):] @ rng.standard_normal(model.ambient_dim - len(funcs))
            if model.kind == "classical":
                room, reach = float(best.min()), float(np.abs(delta).max())
            else:
                room = float(np.linalg.eigvalsh(model.coords_to_matrix(best).entries)[0])
                reach = float(np.abs(np.linalg.eigvalsh(model.coords_to_matrix(delta).entries)).max())
            samples.append(best + 0.5 * room / reach * delta)
        bound = sol.entropy + 1e-10 * max(1.0, float(np.abs(sol.multipliers).max()))
        for rho in samples:
            assert _entropy_of(model, rho) <= bound


@lru_cache(maxsize=1)
def _repro_draws():
    return consistency_repro_draws(263)


class TestConsistencyRepro:
    """The draws of ``consistency_repro_draws`` whose last effect g, in span(kept, u), was once kept as independent:
    15 ended ``boundary_only`` and trial 10 ``non_convergence`` after 500 iterations, off sigma_A by up to 2.5e-5.
    g is dropped, and the state is sigma_A."""

    @pytest.mark.parametrize(
        "trial", [0, 10, 58, 61, 75, 93, 102, 113, 137, 150, 209, 228, 232, 239, 243, 262]
    )
    def test_pinned_draw(self, trial):
        region, g_region, sigma_a = _repro_draws()[trial]
        sol = solve_dual(MaxEntProblem(region.model, meet(region, g_region), Shannon()))
        assert sol.status is SolveStatus.CONVERGED
        assert sol.diagnostics.dropped_indices == (len(region.h_rep),)
        np.testing.assert_allclose(sol.state.coords, sigma_a.coords, rtol=0, atol=1e-12)


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


class TestSteepestDescentFallback:
    """One Newton solve that fails, or returns an ascent direction, costs one steepest-descent step."""

    @pytest.mark.parametrize("failure", ["singular", "ascent"])
    @pytest.mark.parametrize("family,size", [("classical", 4), ("quantum", 4)])
    def test_one_fallback_then_the_same_state(self, monkeypatch, failure, family, size):
        import gmaxent.solver

        problem = trajectory_problem(family, size)
        reference = solve_dual(problem)
        assert reference.diagnostics.gradient_fallbacks == 0
        solve = np.linalg.solve
        calls = []

        def fails_once(a, b):
            calls.append(None)
            if len(calls) > 1:
                return solve(a, b)
            if failure == "singular":
                raise np.linalg.LinAlgError("singular matrix")
            return -b

        monkeypatch.setattr(gmaxent.solver.np.linalg, "solve", fails_once)
        sol = solve_dual(problem)
        assert sol.diagnostics.gradient_fallbacks == 1
        assert sol.status == reference.status == SolveStatus.CONVERGED
        assert np.max(np.abs(sol.state.coords - reference.state.coords)) <= 1e-10


class TestNewtonSystem:
    """One condition's Newton step is a division; two or more conditions solve their system with LAPACK."""

    @pytest.mark.parametrize("family", ["classical", "sigmaz"])
    @pytest.mark.parametrize("t", [0.3, 1.0 - 1e-6, 1.0])
    def test_one_condition_runs_no_linalg_solve(self, monkeypatch, family, t):
        calls = counted_linalg(monkeypatch, "solve")
        sol = solve_dual(near_boundary_problem(family, t))
        assert calls == []
        assert sol.iterations > 0
        assert sol.status == (SolveStatus.BOUNDARY_ONLY if t == 1.0 else SolveStatus.CONVERGED)

    @pytest.mark.parametrize("family", ["classical", "quantum"])
    def test_two_conditions_solve_once_per_newton_step(self, monkeypatch, family):
        problem = trajectory_problem(family, 2)
        calls = counted_linalg(monkeypatch, "solve")
        sol = solve_dual(problem)
        assert sol.status == SolveStatus.CONVERGED
        assert sol.diagnostics.kept_indices == (0, 1)
        assert sol.iterations > 0
        assert len(calls) == sol.iterations


class TestLineSearch:
    """Extrapolation along exponential tails, and no extra work where the dual is quadratic."""

    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_near_boundary_inside_targets_in_few_iterations(self, sign, delta):
        # Damped Newton without extrapolation takes 13, 17 and 20 iterations here.
        sol = solve_dual(near_boundary_problem("sigmaz", sign * (1.0 - delta)))
        assert sol.status == SolveStatus.CONVERGED
        assert sol.iterations <= 9

    @pytest.mark.parametrize(
        "family,size",
        [("quantum", 1), ("quantum", 4), ("quantum", 16), ("classical", 4), ("classical", 16), ("classical", 32)],
    )
    def test_one_evaluation_per_iteration_when_the_step_is_quadratic(self, monkeypatch, family, size):
        calls = []
        for cls in (_ClassicalEvaluation, _QuantumEvaluation):
            def counted(ev, *args, _init=cls.__init__):
                calls.append(None)
                _init(ev, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        sol = solve_dual(trajectory_problem(family, size))
        assert sol.status == SolveStatus.CONVERGED
        assert len(calls) == sol.iterations + 1

    @pytest.mark.parametrize(
        "family,target",
        [
            ("classical", 0.0), ("classical", 1.0), ("classical", -1e-6), ("classical", 1.0 + 1e-6), ("classical", 2.0),
            ("sigmaz", 1.0), ("sigmaz", -1.0), ("sigmaz", 1.0 + 1e-6),
            ("sigmaz", 1.001), ("sigmaz", 1.05), ("sigmaz", 5.0),
            ("bloch", 1.0), ("bloch", 1.006), ("bloch", 1.063),
            ("qutrit", 0.0), ("qutrit", -1e-6), ("qutrit", -1e-4),
        ],
    )
    def test_multipliers_stay_near_the_bound(self, family, target):
        sol = solve_dual(near_boundary_problem(family, target))
        assert sol.status in (SolveStatus.BOUNDARY_ONLY, SolveStatus.INFEASIBLE)
        assert np.all(np.isfinite(sol.multipliers))
        assert np.max(np.abs(sol.multipliers)) < 4.0 * _MULTIPLIER_BOUND


class TestSolvePolytope:
    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_max_iter_caps_frank_wolfe(self, max_iter):
        # The square-bit centre takes two iterations; max_iter, the Newton cap, caps Frank-Wolfe too.
        sol = solve_polytope(squarebit_problem(), SolverConfig(max_iter=max_iter))
        assert sol.status == SolveStatus.NON_CONVERGENCE
        assert sol.iterations == max_iter

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

    def test_stalled_search_is_not_converged(self, monkeypatch):
        # The objective peaks with a kink at the first iterate, the Phase I
        # vertex, which is the origin here, so no trial point rounds back onto
        # it. The supergradient reported there has a Frank-Wolfe gap in
        # (fw_gap_tol, 10 fw_gap_tol], but every step lowers the objective, so
        # the gap never falls to fw_gap_tol and convergence is not certified.
        import gmaxent.solver
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

        # The fake maximizes value in place of the entropy of this measurement.
        objective = FiducialMeasurementEntropy((random_povm(model, np.random.default_rng(0)),))
        monkeypatch.setattr(gmaxent.solver, "_objective_terms", fake_objective_terms(value, gradient))
        sol = solve_polytope(MaxEntProblem(model, region, objective))
        assert sol.status == SolveStatus.NON_CONVERGENCE
        np.testing.assert_array_equal(sol.state.coords, start)
        # The last Frank-Wolfe gap, g . (s - x) at the iterate, which is start.
        gap = max(float(gradient(start) @ (vertex - start)) for vertex in model.vertices)
        assert DEFAULT_SOLVER.fw_gap_tol < gap <= 10 * DEFAULT_SOLVER.fw_gap_tol

    def test_step_that_rounds_back_ends_the_solve(self, monkeypatch):
        # The kink sits at the square's centre, reached in a few steps; from
        # there every accepted step t > 0 is too small to change the iterate.
        import gmaxent.solver

        model = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        centre = np.array([1.0, 0.5, 0.5])
        slope = 5.0 * DEFAULT_SOLVER.fw_gap_tol * np.array([0.0, 1.0, -2.0])

        def value(coords):
            return float(slope @ coords - np.sum(np.abs(coords - centre)))

        def gradient(coords):
            return slope - np.sign(coords - centre)

        objective = FiducialMeasurementEntropy((random_povm(model, np.random.default_rng(0)),))
        monkeypatch.setattr(gmaxent.solver, "_objective_terms", fake_objective_terms(value, gradient))
        sol = solve_polytope(MaxEntProblem(model, whole_space(model), objective))
        assert sol.status == SolveStatus.NON_CONVERGENCE
        assert sol.iterations <= 10
        np.testing.assert_allclose(sol.state.coords, centre, atol=1e-12)

    @staticmethod
    def _assert_certified(problem, sol, max_iterations=15):
        assert sol.status == SolveStatus.CONVERGED
        assert sol.iterations <= max_iterations
        assert np.max(np.abs(sol.residuals)) <= 1e-8
        assert highs_fw_gap(problem, np.asarray(sol.state.coords)) <= DEFAULT_SOLVER.fw_gap_tol

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
        self._assert_certified(problem, solve_polytope(problem))

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
        self._assert_certified(problem, solve_polytope(problem))

    # Sphere instances and their iteration caps: the near-face R^3 nv = 16
    # default_rng(9) and (11) cases, R^4 nv = 24 seeds 0-5, and nv = 64 seeds
    # 0-3 in R^3 and R^4.
    _FACE_STEP_CAPS = {
        (16, 3, 9): 6, (16, 3, 11): 7,
        **{(24, 4, s): n for s, n in enumerate((7, 5, 7, 3, 2, 5))},
        **{(64, 3, s): n for s, n in enumerate((4, 2, 6, 4))},
        **{(64, 4, s): n for s, n in enumerate((7, 2, 13, 2))},
    }
    @pytest.mark.parametrize("nv,dim,seed", list(_FACE_STEP_CAPS))
    def test_baseline_sphere_instances_converge(self, nv, dim, seed):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(seed)
        problem = fiducial_polytope_problem(sphere_polytope(nv, dim, rng), rng)
        self._assert_certified(problem, solve_polytope(problem), self._FACE_STEP_CAPS[nv, dim, seed])

    def test_exact_line_search_on_a_segment(self, monkeypatch):
        # A polygon cut by one condition is a segment: at most two vertices are
        # active at once, so no Newton step on the face runs, and no lstsq; one
        # step of an exact line search from the Phase I vertex reaches the
        # optimum, and the next iteration certifies it.
        def no_newton(*args, **kwargs):
            raise AssertionError("a Newton step ran on a segment")

        monkeypatch.setattr(np.linalg, "lstsq", no_newton)
        for n in (8, 16, 32):
            for seed in range(8):
                sol = solve_polytope(fiducial_polytope_problem(regular_polygon(n), np.random.default_rng(seed)))
                assert sol.status == SolveStatus.CONVERGED
                assert sol.iterations <= 2, (n, seed)

    def test_newton_on_affinely_dependent_vertices(self):
        # Four points of the 2-simplex are affinely dependent, so the KKT system
        # is singular; the lstsq steps still raise the entropy to its maximum
        # over their hull, the uniform point, and keep the weights convex.
        model = Classical(3)
        _, grad, line, face = _objective_terms(MaxEntProblem(model, whole_space(model), Shannon()))
        atoms = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0], [0.1, 0.1, 0.8]])
        alpha = np.array([0.1, 0.2, 0.3, 0.4])
        x = alpha @ atoms
        new_x, new_atoms, mixes, new_alpha = _face_newton(face, grad, line, x, atoms, atoms.copy(), alpha)
        assert entropy_from_spectrum(new_x) > entropy_from_spectrum(x)
        assert np.all(new_alpha > 0.0) and abs(new_alpha.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(new_alpha @ new_atoms, new_x, atol=1e-15)
        np.testing.assert_array_equal(mixes, new_atoms)
        np.testing.assert_allclose(new_x, np.full(3, 1.0 / 3.0), atol=1e-9)  # the optimum of the hull

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_ascent_through_feasible_mixtures(self, seed, monkeypatch):
        import gmaxent.solver

        rng = np.random.default_rng(100 + seed)
        model = Polytope(rng.standard_normal((int(rng.integers(4, 13)), 2)))
        fiducial = fiducial_polytope_problem(model, rng)
        events = []  # ("grad", point) and ("lp", None), in call order
        value_calls = []
        outcome_rows = np.array([out.effect.functional for m in fiducial.objective.measurements for out in m.outcomes])

        def value(coords):
            value_calls.append(coords)
            return entropy_from_spectrum(outcome_rows @ State(model, coords).coords)

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

        terms = gmaxent.solver._objective_terms

        def recording_terms(problem):
            _, _, line, face = terms(problem)
            return value, gradient, line, face

        monkeypatch.setattr(gmaxent.solver, "feasible_basis", recording_basis)
        monkeypatch.setattr(gmaxent.solver, "_objective_terms", recording_terms)
        sol = solve_polytope(fiducial)
        assert sol.status == SolveStatus.CONVERGED
        # The objective's value is read once, for the reported entropy.
        assert len(value_calls) == 1

        # An iterate is the point whose gradient prices the next Frank-Wolfe LP.
        iterates = [p for (kind, p), (after, _) in zip(events, events[1:]) if kind == "grad" and after == "lp"]
        assert len(iterates) == sol.iterations
        values = [value(p) for p in iterates]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        (condition,) = fiducial.region.h_rep
        for p in iterates:  # value() built a State at each, so each lies in the polytope
            assert abs(float(condition.functional @ p) - condition.target) <= 1e-9
        # The result is the last iterate: the active-set mixture that was certified.
        np.testing.assert_allclose(sol.state.coords, iterates[-1], rtol=0, atol=1e-15)
        assert np.max(np.abs(sol.residuals)) <= 1e-9
        assert sol.entropy == pytest.approx(values[-1], abs=1e-12)

    def test_objective_compatibility(self):
        # Every model kind against every objective that is not its own, and against values that are no objective.
        squarebit = squarebit_problem()
        fiducial = squarebit.objective
        for model, own in ((Classical(2), Shannon()), (Quantum(2), VonNeumann()), (squarebit.model, fiducial)):
            MaxEntProblem(model, whole_space(model), own)
            for objective in (Shannon(), VonNeumann(), fiducial, "x", None):
                if type(objective) is not type(own):
                    with pytest.raises(IncompatibleObjective):
                        MaxEntProblem(model, whole_space(model), objective)
        with pytest.raises(IncompatibleObjective):
            default_objective(squarebit.model)
        with pytest.raises(IncompatibleObjective):
            solve_dual(squarebit_problem())
        with pytest.raises(IncompatibleObjective):
            solve_polytope(MaxEntProblem(Quantum(2), whole_space(Quantum(2)), VonNeumann()))

    def test_fiducial_objective_needs_a_measurement(self):
        model = squarebit_model()
        with pytest.raises(DegenerateInput):
            MaxEntProblem(model, whole_space(model), FiducialMeasurementEntropy(()))

    def test_problem_parts_share_one_model(self):
        with pytest.raises(ModelMismatch):
            MaxEntProblem(Classical(2), whole_space(Classical(3)), Shannon())
        pentagon = regular_polygon(5)
        with pytest.raises(ModelMismatch):
            MaxEntProblem(pentagon, whole_space(pentagon), squarebit_problem().objective)


class TestObjectiveTerms:
    """The line function against the gradient route: slope(t) = grad(x + t d) . d."""

    @staticmethod
    def _assert_line_matches_gradient(problem, x, d, ts):
        _, grad, line, _ = _objective_terms(problem)
        slope = line(x, d)
        for t in ts:
            assert slope(t) == pytest.approx(float(grad(x + t * d) @ d), rel=1e-12, abs=0.0), t

    def test_shannon_line_on_a_classical_model(self):
        model = Classical(6)
        rng = np.random.default_rng(3)
        x = random_state(model, rng).coords
        d = np.eye(6)[2] - x  # toward a vertex: at t = 1 five probabilities are 0
        problem = MaxEntProblem(model, whole_space(model), Shannon())
        assert np.sum(x + d <= 1e-300) == 5
        self._assert_line_matches_gradient(problem, x, d, [0.0, 0.1, 0.37, 0.8, 0.999, 1.0])

    def test_fiducial_line_on_a_sphere_polytope(self):
        rng = np.random.default_rng(4)
        model = sphere_polytope(16, 3, rng)
        problem = fiducial_polytope_problem(model, rng)
        rows = np.vstack([[o.effect.functional for o in m.outcomes] for m in problem.objective.measurements])
        x = random_state(model, rng).coords
        d = x - model.vertices[int(np.argmax(rows[0] @ model.vertices.T))]
        # Past the first zero of an outcome probability both routes floor it
        # at 1e-300; t_max lies beyond that zero.
        rx, rd = rows @ x, rows @ d
        falling = rd < 0.0
        zero = float(np.min(-rx[falling] / rd[falling]))
        t_max = 1.5 * zero
        assert np.min(rows @ (x + t_max * d)) < 0.0
        self._assert_line_matches_gradient(problem, x, d, np.linspace(0.0, t_max, 7))

    @pytest.mark.parametrize("kind", ["shannon", "fiducial"])
    def test_face_hessian_is_the_gradient_derivative(self, kind):
        # face(x, A)_ij = a_i . H a_j, H the derivative of the gradient at x:
        # against central differences of the gradient along each row of A.
        rng = np.random.default_rng(6)
        if kind == "shannon":
            model = Classical(5)
            problem = MaxEntProblem(model, whole_space(model), Shannon())
        else:
            model = sphere_polytope(16, 3, rng)
            problem = fiducial_polytope_problem(model, rng)
        x = random_state(model, rng).coords
        atoms = np.array([random_state(model, rng).coords for _ in range(4)])
        _, grad, _, face = _objective_terms(problem)
        h = 1e-6
        columns = [(grad(x + h * a) - grad(x - h * a)) / (2.0 * h) for a in atoms]
        np.testing.assert_allclose(face(x, atoms), atoms @ np.array(columns).T, rtol=1e-6, atol=1e-8)


class TestEntropy:
    def test_uniform(self):
        model = Classical(5)
        assert entropy_from_spectrum(maximally_mixed(model).coords) == pytest.approx(np.log(5.0), abs=1e-12)

    def test_pure_quantum(self):
        model = Quantum(2)
        v = np.array([1.0, 2.0]) / np.sqrt(5.0)
        s = State(model, model.matrix_to_coords(np.outer(v, v.conj())))
        assert entropy_from_spectrum(np.linalg.eigvalsh(s.density_matrix().entries)) == pytest.approx(0.0, abs=1e-10)

    def test_binary(self):
        model = Quantum(2)
        s = State(model, model.matrix_to_coords(np.diag([0.7, 0.3])))
        assert entropy_from_spectrum(np.linalg.eigvalsh(s.density_matrix().entries)) == pytest.approx(GIBBS_ENTROPY, abs=1e-10)

    def test_fiducial_on_center(self):
        problem = squarebit_problem()
        center = maximally_mixed(problem.model)
        rows = np.array([out.effect.functional for m in problem.objective.measurements for out in m.outcomes])
        assert entropy_from_spectrum(rows @ center.coords) == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


class TestRouting:
    def test_solve_routes_by_objective(self):
        assert solve(gibbs_problem()).status == SolveStatus.CONVERGED
        assert solve(squarebit_problem()).status == SolveStatus.CONVERGED

    def test_vrep_region_unsupported(self):
        model = Classical(2)
        region = ConvexRegion(model, (), (State(model, np.array([1.0, 0.0])),))
        with pytest.raises(UnsupportedRepresentation):
            solve_dual(MaxEntProblem(model, region, Shannon()))

    def test_region_with_conditions_and_generators_unsupported(self):
        # The hull of e1 inside {x2 = 0} is the point e1; solving over the slice
        # alone would return (1/2, 0, 1/2), which lies outside it.
        model = Classical(3)
        condition = LinearConstraint(model, np.array([0.0, 1.0, 0.0]), 0.0)
        region = ConvexRegion(model, (condition,), (State(model, np.array([1.0, 0.0, 0.0])),))
        for solver in (solve_dual, solve_polytope, lambda p: oracle_maxent(p, 1e-2)):
            with pytest.raises(UnsupportedRepresentation):
                solver(MaxEntProblem(model, region, Shannon()))
            empty = ConvexRegion(model, (condition,), ())
            assert SolveStatus(solver(MaxEntProblem(model, empty, Shannon())).status) == SolveStatus.INFEASIBLE
