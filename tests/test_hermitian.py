"""Tests for the Hermitian matrix algebra layer."""

import numpy as np
import pytest

from gmaxent import HermitianMatrix, NumericalFailure, Quantum, entropy_from_spectrum, spectral_observable

from helpers import frechet_exp_directional, matrix_exp, matrix_log, random_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def taylor_exp(m, terms=20):
    """Independent series oracle: sum_k m^k / k!."""
    acc = np.eye(m.shape[0], dtype=complex)
    power = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        power = power @ m / k
        acc = acc + power
    return acc


class TestHermitianMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_coords_to_matrix_equals_the_checked_construction(self, d):
        # coords_to_matrix skips the Hermiticity check; what it stores must be
        # bit for bit what the checked constructor stores.
        model = Quantum(d)
        rng = np.random.default_rng(d)
        for _ in range(20):
            m = model.coords_to_matrix(rng.standard_normal(d * d))
            assert not m.entries.flags.writeable
            checked = HermitianMatrix(np.array(m.entries)).entries
            assert m.entries.tobytes() == checked.tobytes()

    def test_symmetrizes_small_noise(self):
        noisy = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 3e-14j, 2.0]])
        m = HermitianMatrix(noisy)
        assert np.max(np.abs(m.entries - m.entries.conj().T)) == 0.0


def spectrum(matrix):
    """Values and eigenprojectors of ``spectral_observable``, in outcome order."""
    obs = spectral_observable(Quantum(matrix.dim), matrix)
    return [o.value for o in obs.outcomes], [obs.model.coords_to_matrix(out.effect.functional).entries for out in obs.outcomes]


class TestEig:
    """The checked eigendecomposition behind ``spectral_observable``."""

    def test_diagonal(self):
        values, projectors = spectrum(HermitianMatrix(np.diag([3.0, 1.0])))
        np.testing.assert_allclose(values, [1.0, 3.0])
        np.testing.assert_allclose(projectors, [np.diag([0.0, 1.0]), np.diag([1.0, 0.0])], atol=1e-12)

    def test_sigma_x(self):
        values, projectors = spectrum(HermitianMatrix(SIGMA_X))
        # characteristic polynomial k^2 - 1 = 0
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(projectors[1], (np.eye(2) + SIGMA_X) / 2.0, atol=1e-12)

    def test_identity(self):
        # four equal eigenvalues make one outcome
        values, projectors = spectrum(HermitianMatrix(np.eye(4)))
        np.testing.assert_allclose(values, [1.0])
        np.testing.assert_allclose(projectors[0], np.eye(4), atol=1e-12)

    def test_reconstruction_and_unitarity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            m = random_hermitian(rng, d)
            values, projectors = spectrum(m)
            assert np.all(np.diff(values) > 0)
            scale = 1.0 + np.max(np.abs(values))
            recon = sum(v * p for v, p in zip(values, projectors))
            assert np.max(np.abs(recon - m.entries)) <= 1e-10 * scale
            assert np.max(np.abs(sum(projectors) - np.eye(d))) <= 1e-10

    @pytest.mark.parametrize("fault", ["no-convergence", "wrong-values", "not-unitary"])
    def test_failed_decomposition_is_a_numerical_failure(self, monkeypatch, fault):
        eigh = np.linalg.eigh

        def faulty(a):
            if fault == "no-convergence":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            k, u = eigh(a)
            if fault == "wrong-values":
                return k + 1e-6, u
            # a longer eigenvector of eigenvalue 0 still reconstructs the matrix
            return k, u * [2.0, 1.0]

        monkeypatch.setattr(np.linalg, "eigh", faulty)
        with pytest.raises(NumericalFailure):
            spectral_observable(Quantum(2), np.diag([0.0, 1.0]))


class TestMatrixExp:
    def test_zero(self):
        np.testing.assert_allclose(matrix_exp(HermitianMatrix(np.zeros((3, 3)))).entries, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        result = matrix_exp(HermitianMatrix(np.diag([0.0, np.log(2.0)])))
        np.testing.assert_allclose(result.entries, np.diag([1.0, 2.0]), atol=1e-14)

    def test_sigma_x_closed_form(self):
        # exp(theta sigma_x) = cosh(theta) I + sinh(theta) sigma_x
        result = matrix_exp(HermitianMatrix(SIGMA_X))
        expected = np.cosh(1.0) * np.eye(2) + np.sinh(1.0) * SIGMA_X
        np.testing.assert_allclose(result.entries, expected, atol=1e-12)
        np.testing.assert_allclose(result.entries.real, [[1.54308, 1.17520], [1.17520, 1.54308]], atol=1e-5)

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            m = random_hermitian(rng, d)
            norm = np.max(np.abs(m.entries)) * d
            if norm > 2.0:
                m = HermitianMatrix(m.entries * (2.0 / norm))
            reference = taylor_exp(m.entries)
            result = matrix_exp(m).entries
            assert np.max(np.abs(result - reference)) <= 1e-8 * np.max(np.abs(reference))

    def test_overflow(self):
        with pytest.raises(OverflowError):
            matrix_exp(HermitianMatrix(np.diag([800.0, 0.0])))

    def test_commutes_with_input(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            m = random_hermitian(rng, int(rng.integers(2, 7)))
            e = matrix_exp(m).entries
            assert np.max(np.abs(e @ m.entries - m.entries @ e)) <= 1e-9

    def test_trace_convexity_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            m = random_hermitian(rng, d)
            tr_exp = np.trace(matrix_exp(m).entries).real
            assert tr_exp >= d * np.exp(np.trace(m.entries).real / d) - 1e-9


class TestMatrixLog:
    def test_identity(self):
        np.testing.assert_allclose(matrix_log(HermitianMatrix(np.eye(3))).entries, np.zeros((3, 3)), atol=1e-14)

    def test_diagonal(self):
        result = matrix_log(HermitianMatrix(np.diag([np.e, 1.0])))
        np.testing.assert_allclose(result.entries, np.diag([1.0, 0.0]), atol=1e-14)

    def test_binary_entropy_contraction(self):
        rho = HermitianMatrix(np.diag([0.5, 0.5]))
        log_rho = matrix_log(rho)
        entropy = -np.trace(rho.entries @ log_rho.entries).real
        assert abs(entropy - np.log(2.0)) <= 1e-12

    def test_zero_eigenvalue_convention(self):
        # ln on a degenerate direction contributes nothing to -tr(rho ln rho)
        rho = HermitianMatrix(np.diag([1.0, 0.0]))
        log_rho = matrix_log(rho)
        entropy = -np.trace(rho.entries @ log_rho.entries).real
        assert abs(entropy) <= 1e-12

    def test_not_positive(self):
        with pytest.raises(ValueError, match="negative"):
            matrix_log(HermitianMatrix(np.diag([1.0, -0.5])))


class TestFrechetDirectional:
    def test_at_zero_is_identity_map(self):
        rng = np.random.default_rng(19)
        h = random_hermitian(rng, 3)
        result = frechet_exp_directional(HermitianMatrix(np.zeros((3, 3))), h)
        np.testing.assert_allclose(result.entries, h.entries, atol=1e-12)

    def test_commuting_case(self):
        m = HermitianMatrix(np.diag([0.0, np.log(2.0)]))
        h = HermitianMatrix(np.eye(2))
        result = frechet_exp_directional(m, h)
        np.testing.assert_allclose(result.entries, np.diag([1.0, 2.0]), atol=1e-12)

    def test_divided_difference_off_diagonal(self):
        m = HermitianMatrix(np.diag([0.0, 1.0]))
        result = frechet_exp_directional(m, HermitianMatrix(SIGMA_X))
        expected = np.e - 1.0  # (e^1 - e^0) / (1 - 0)
        np.testing.assert_allclose(result.entries.real, [[0.0, expected], [expected, 0.0]], atol=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(23)
        eps = 1e-5
        for _ in range(25):
            d = int(rng.integers(2, 6))
            m = random_hermitian(rng, d)
            h = random_hermitian(rng, d)
            result = frechet_exp_directional(m, h).entries
            plus = matrix_exp(HermitianMatrix(m.entries + eps * h.entries)).entries
            minus = matrix_exp(HermitianMatrix(m.entries - eps * h.entries)).entries
            fd = (plus - minus) / (2.0 * eps)
            assert np.max(np.abs(result - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd)))

    def test_linear_in_direction(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = random_hermitian(rng, d)
            h1 = random_hermitian(rng, d)
            h2 = random_hermitian(rng, d)
            a, b = rng.standard_normal(2)
            combo = HermitianMatrix(a * h1.entries + b * h2.entries)
            lhs = frechet_exp_directional(m, combo).entries
            rhs = a * frechet_exp_directional(m, h1).entries + b * frechet_exp_directional(m, h2).entries
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_trace_identity(self):
        # d/dt tr(exp(m + t h)) at t=0 equals tr(exp(m) h)
        rng = np.random.default_rng(31)
        eps = 1e-6
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = random_hermitian(rng, d)
            h = random_hermitian(rng, d)
            plus = np.trace(matrix_exp(HermitianMatrix(m.entries + eps * h.entries)).entries).real
            minus = np.trace(matrix_exp(HermitianMatrix(m.entries - eps * h.entries)).entries).real
            fd = (plus - minus) / (2.0 * eps)
            direct = np.trace(matrix_exp(m).entries @ h.entries).real
            assert abs(fd - direct) <= 1e-6 * (1.0 + abs(direct))


def test_entropy_from_spectrum_conventions():
    assert entropy_from_spectrum(np.array([0.5, 0.5])) == pytest.approx(np.log(2.0))
    assert entropy_from_spectrum(np.array([1.0, 0.0])) == 0.0
    assert entropy_from_spectrum(np.array([1.0, -1e-320])) == 0.0
    # A pure spectrum has entropy +0.0; == 0.0 cannot see the sign.
    for pure in ([1.0], [1.0, 0.0], [0.0, 1.0, -1e-320], []):
        assert np.copysign(1.0, entropy_from_spectrum(np.array(pure))) == 1.0
