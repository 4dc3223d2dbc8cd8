"""Grid-oracle tests: closed-form checks and solver dominance."""

import numpy as np
import pytest

from gmaxent import (
    Classical,
    MaxEntProblem,
    Quantum,
    Shannon,
    SolveStatus,
    Unsupported,
    VonNeumann,
    indicator_observable,
    meet,
    oracle_maxent,
    region_from_effect,
    region_from_mean,
    solve_dual,
    solve_polytope,
    spectral_observable,
    whole_space,
)

from helpers import (
    random_classical_problem,
    random_quantum_problem,
    squarebit_measurements,
    squarebit_model,
    squarebit_problem,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
GIBBS_ENTROPY = -(0.7 * np.log(0.7) + 0.3 * np.log(0.3))


def gibbs_problem():
    model = Quantum(2)
    obs = spectral_observable(model, np.diag([0.0, 1.0]).astype(complex))
    return MaxEntProblem(model, region_from_mean(obs, 0.3), VonNeumann())


class TestOracleExamples:
    def test_gibbs_qubit(self):
        result = oracle_maxent(gibbs_problem(), 1e-3)
        assert result.status == "feasible"
        assert abs(result.entropy - GIBBS_ENTROPY) <= 2e-3

    def test_classical_uniform(self):
        model = Classical(2)
        result = oracle_maxent(MaxEntProblem(model, whole_space(model), Shannon()), 1e-4)
        np.testing.assert_allclose(result.state.coords, [0.5, 0.5], atol=1e-4)
        assert abs(result.entropy - np.log(2.0)) <= 2e-4

    def test_bloch_contradiction(self):
        model = Quantum(2)
        region = meet(
            region_from_mean(spectral_observable(model, SZ), 1.0),
            region_from_mean(spectral_observable(model, SX), 1.0),
        )
        result = oracle_maxent(MaxEntProblem(model, region, VonNeumann()), 1e-3)
        assert result.status == "infeasible"

    def test_boundary_point_found(self):
        model = Quantum(2)
        region = region_from_mean(spectral_observable(model, SZ), 1.0)
        result = oracle_maxent(MaxEntProblem(model, region, VonNeumann()), 1e-3)
        assert result.status == "feasible"
        assert result.entropy <= 5e-3
        np.testing.assert_allclose(result.state.density_matrix().entries, np.diag([1.0, 0.0]), atol=1e-2)


class TestOracleCaps:
    def test_quantum_dim_cap(self):
        model = Quantum(3)
        with pytest.raises(Unsupported):
            oracle_maxent(MaxEntProblem(model, whole_space(model), VonNeumann()), 1e-2)

    def test_classical_dim_cap(self):
        model = Classical(5)
        with pytest.raises(Unsupported):
            oracle_maxent(MaxEntProblem(model, whole_space(model), Shannon()), 1e-2)

    def test_grid_size_cap(self):
        # unconstrained qubit at 1e-3 would need ~8e9 points
        model = Quantum(2)
        with pytest.raises(Unsupported):
            oracle_maxent(MaxEntProblem(model, whole_space(model), VonNeumann()), 1e-3)

    def test_point_slice_needs_no_grid_axis(self):
        # A mean condition pins Classical(2) to one point, so a resolution
        # too fine for any grid axis still scans that one point.
        model = Classical(2)
        region = region_from_mean(indicator_observable(model, [0.0, 1.0]), 0.3)
        result = oracle_maxent(MaxEntProblem(model, region, Shannon()), 1e-300)
        assert result.points_scanned == 1
        np.testing.assert_allclose(result.state.coords, [0.7, 0.3], atol=1e-12)

    def test_unconstrained_qubit_coarse(self):
        model = Quantum(2)
        result = oracle_maxent(MaxEntProblem(model, whole_space(model), VonNeumann()), 2e-2)
        assert abs(result.entropy - np.log(2.0)) <= 4e-2


class TestOracleDominance:
    """solver entropy >= oracle - 2 * resolution on random feasible problems."""

    def test_classical(self):
        rng = np.random.default_rng(101)
        resolution = 2e-3
        for _ in range(50):
            d = int(rng.integers(2, 5))
            n_constraints = 1 if d < 4 else int(rng.integers(1, 3))
            problem = random_classical_problem(rng, d, n_constraints)
            sol = solve_dual(problem)
            assert sol.status == SolveStatus.CONVERGED
            assert np.max(sol.residuals) <= 1e-8
            oracle = oracle_maxent(problem, resolution)
            assert oracle.status == "feasible"
            assert sol.entropy >= oracle.entropy - 2 * resolution

    def test_quantum(self):
        rng = np.random.default_rng(103)
        resolution = 2e-3
        for _ in range(50):
            problem = random_quantum_problem(rng, 2, int(rng.integers(1, 3)))
            sol = solve_dual(problem)
            assert sol.status == SolveStatus.CONVERGED
            assert np.max(sol.residuals) <= 1e-8
            oracle = oracle_maxent(problem, resolution)
            assert oracle.status == "feasible"
            assert sol.entropy >= oracle.entropy - 2 * resolution

    def test_squarebit(self):
        rng = np.random.default_rng(107)
        resolution = 2e-3
        model = squarebit_model()
        mx, my = squarebit_measurements(model)
        for _ in range(50):
            lam = float(rng.uniform(0.1, 0.9))
            obs = mx if rng.uniform() < 0.5 else my
            region = region_from_effect(obs.outcomes[0].effect, lam)
            problem = squarebit_problem(region, model)
            sol = solve_polytope(problem)
            assert sol.status == SolveStatus.CONVERGED
            assert np.max(sol.residuals) <= 1e-8
            oracle = oracle_maxent(problem, resolution)
            assert oracle.status == "feasible"
            assert sol.entropy >= oracle.entropy - 2 * resolution
