"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import time

import numpy as np
import pytest

from gmaxent import (
    Classical,
    ConvexRegion,
    HermitianMatrix,
    MaxEntProblem,
    Quantum,
    Shannon,
    SolveStatus,
    VonNeumann,
    check_state_axioms,
    effect_from_matrix,
    includes,
    join,
    meet,
    oracle_maxent,
    region_from_effect,
    region_from_mean,
    solve_dual,
    spectral_observable,
    whole_space,
)
from gmaxent.cli import main
from gmaxent.regions import LinearConstraint, _functional_matrix
from gmaxent.solver import _evaluator

from helpers import (
    matrix_exp,
    random_classical_problem,
    random_density,
    random_projector_family,
    random_quantum_problem,
    random_region,
    region_eq,
    squarebit_model,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

GIBBS_LAMBDA = np.log(7.0 / 3.0)
GIBBS_ENTROPY = -(0.7 * np.log(0.7) + 0.3 * np.log(0.3))
EFFECT_ENTROPY = -(0.125 * np.log(0.125) + 0.875 * np.log(0.875))


def _announce(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def _stationarity_problems():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        yield random_quantum_problem(rng, d, n)


def test_criterion_1_gibbs_state_reproduction():
    model = Quantum(2)
    obs = spectral_observable(model, np.diag([0.0, 1.0]).astype(complex))
    problem = MaxEntProblem(model, region_from_mean(obs, 0.3), VonNeumann())
    start = time.perf_counter()
    sol = solve_dual(problem)
    elapsed = time.perf_counter() - start
    assert sol.status == SolveStatus.CONVERGED
    assert np.max(np.abs(sol.state.density_matrix().entries - np.diag([0.7, 0.3]))) <= 1e-8
    assert abs(sol.multipliers[0] - GIBBS_LAMBDA) <= 1e-8
    assert abs(sol.lambda0 - np.log(10.0 / 7.0)) <= 1e-8
    lnz = _evaluator(model, _functional_matrix(model, problem.region.h_rep))(sol.multipliers).lnz
    assert abs(sol.lambda0 - lnz) <= 1e-8
    assert abs(sol.entropy - GIBBS_ENTROPY) <= 1e-8
    assert elapsed < 0.050, f"solve took {elapsed * 1e3:.1f} ms"
    _announce(1, "Gibbs-state reproduction")


def test_criterion_2_dual_stationarity():
    start = time.perf_counter()
    eps = 1e-6
    for problem in _stationarity_problems():
        sol = solve_dual(problem)
        assert sol.status == SolveStatus.CONVERGED
        kept = [problem.region.h_rep[i] for i in sol.diagnostics.kept_indices]
        targets = np.array([c.target for c in kept])
        dual = _evaluator(problem.model, _functional_matrix(problem.model, kept))
        for i in range(len(kept)):
            delta = np.zeros(len(kept))
            delta[i] = eps
            up = dual(sol.multipliers + delta).lnz
            down = dual(sol.multipliers - delta).lnz
            assert (up - down) / (2.0 * eps) == pytest.approx(-targets[i], abs=1e-5)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    _announce(2, "dual stationarity on 50 random problems")


def test_criterion_3_exponential_family_form():
    for problem in _stationarity_problems():
        sol = solve_dual(problem)
        assert sol.status == SolveStatus.CONVERGED
        model = problem.model
        exponent = -sol.lambda0 * np.eye(model.dim, dtype=complex)
        for lam, idx in zip(sol.multipliers, sol.diagnostics.kept_indices):
            exponent -= lam * model.coords_to_matrix(problem.region.h_rep[idx].functional).entries
        gibbs = matrix_exp(HermitianMatrix(exponent)).entries
        assert np.max(np.abs(sol.state.density_matrix().entries - gibbs)) <= 1e-8
    _announce(3, "exponential-family form on 50 random problems")


def test_criterion_4_oracle_equivalence():
    resolution = 1e-3
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        n = 1 if d == 2 else int(rng.integers(1, 3))
        problem = random_classical_problem(rng, d, n)
        sol = solve_dual(problem)
        assert sol.status == SolveStatus.CONVERGED
        assert np.max(sol.residuals) <= 1e-8
        oracle = oracle_maxent(problem, resolution)
        assert oracle.status == "feasible"
        assert sol.entropy >= oracle.entropy - 2e-3
    for _ in range(50):
        problem = random_quantum_problem(rng, 2, int(rng.integers(1, 3)))
        sol = solve_dual(problem)
        assert sol.status == SolveStatus.CONVERGED
        assert np.max(sol.residuals) <= 1e-8
        oracle = oracle_maxent(problem, resolution)
        assert oracle.status == "feasible"
        assert sol.entropy >= oracle.entropy - 2e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    _announce(4, "oracle equivalence on 100 random problems")


def test_criterion_5_povm_condition_path():
    model = Quantum(2)
    effect = effect_from_matrix(model, np.diag([0.3, 0.7]))
    effect_region = region_from_effect(effect, 0.65)
    mean_region = region_from_mean(spectral_observable(model, SZ), 0.0)
    # one constraint type: effect-probability conditions reuse the mean-value path
    assert type(effect_region.h_rep[0]) is type(mean_region.h_rep[0]) is LinearConstraint
    sol = solve_dual(MaxEntProblem(model, effect_region, VonNeumann()))
    assert sol.status == SolveStatus.CONVERGED
    assert np.max(np.abs(sol.state.density_matrix().entries - np.diag([0.125, 0.875]))) <= 1e-8
    assert abs(sol.entropy - EFFECT_ENTROPY) <= 1e-8
    _announce(5, "POVM-condition path")


def test_criterion_6_lattice_laws():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    models = [Classical(3), squarebit_model()]
    for model in models:
        for _ in range(100):
            a = random_region(model, rng)
            b = random_region(model, rng)
            assert region_eq(meet(a, b), meet(b, a))
            assert region_eq(join(a, b), join(b, a))
            assert region_eq(meet(a, a), a)
            assert region_eq(join(a, a), a)
            assert region_eq(meet(a, join(a, b)), a)
            assert region_eq(join(a, meet(a, b)), a)
            assert includes(a, meet(a, b))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    _announce(6, "lattice laws on 200 random region pairs")


def test_criterion_7_infeasibility_and_boundary():
    model = Quantum(2)
    sz = spectral_observable(model, SZ)
    sx = spectral_observable(model, SX)
    contradiction = meet(region_from_mean(sz, 1.0), region_from_mean(sx, 1.0))
    sol = solve_dual(MaxEntProblem(model, contradiction, VonNeumann()))
    assert sol.status == SolveStatus.INFEASIBLE
    assert main(["solve", "problems/infeasible_bloch.json", "--output", "/dev/null"]) == 3

    boundary = region_from_mean(sz, 1.0)
    sol = solve_dual(MaxEntProblem(model, boundary, VonNeumann()))
    assert sol.status == SolveStatus.BOUNDARY_ONLY
    assert np.max(np.abs(sol.state.density_matrix().entries - np.diag([1.0, 0.0]))) <= 1e-3
    assert main(["solve", "problems/boundary_sigmaz.json", "--output", "/dev/null"]) == 4
    _announce(7, "infeasibility and boundary handling")


def test_criterion_8_state_axioms():
    rng = np.random.default_rng(808)
    model_cache = {d: Quantum(d) for d in (2, 3, 4)}
    for _ in range(500):
        d = int(rng.integers(2, 5))
        model = model_cache[d]
        rho = random_density(rng, d)
        state_vec = model.matrix_to_coords(rho)
        from gmaxent import State

        s = State(model, state_vec)
        family = random_projector_family(rng, d, n_groups=int(rng.integers(2, d + 1)))
        report = check_state_axioms(s, family)
        assert report.zero_residual <= 1e-9
        assert report.additivity_residual <= 1e-9
        assert all(r <= 1e-9 for r in report.complement_residuals)
    _announce(8, "state-axiom suite (500 random states)")


def test_criterion_9_monotonicity():
    rng = np.random.default_rng(909)
    for chain in range(30):
        if chain % 2 == 0:
            d = int(rng.integers(2, 4))
            problem = random_quantum_problem(rng, d, 3)
            model = problem.model
            objective = VonNeumann()
            solver = solve_dual
        else:
            problem = random_classical_problem(rng, int(rng.integers(3, 5)), 2)
            model = problem.model
            objective = Shannon()
            solver = solve_dual
        region = whole_space(model)
        previous = np.inf
        for constraint in problem.region.h_rep:
            region = meet(region, ConvexRegion(model, (constraint,)))
            sol = solver(MaxEntProblem(model, region, objective))
            assert sol.status == SolveStatus.CONVERGED
            assert sol.entropy <= previous + 1e-8
            previous = sol.entropy
    _announce(9, "monotonicity along 30 nested constraint chains")
