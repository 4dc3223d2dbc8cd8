"""Tests for models, states, effects, observables, and the axiom checker."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmaxent import (
    Classical,
    MaxEntProblem,
    default_objective,
    region_from_effect,
    solve,
    Effect,
    HermitianMatrix,
    InvalidEffect,
    InvalidObservable,
    InvalidState,
    ModelMismatch,
    NoValues,
    Observable,
    Outcome,
    Polytope,
    Quantum,
    NotAProjection,
    NotOrthogonal,
    check_state_axioms,
    effect_from_matrix,
    evaluate,
    maximally_mixed,
    random_effect,
    random_povm,
    random_state,
    region_from_mean,
    spectral_observable,
    validate_povm,
    State,
)
from gmaxent import models, regions
from gmaxent.regions import LinearConstraint
from helpers import (
    hermitian_basis,
    indicator_observable,
    random_density,
    random_projector_family,
    random_quantum_problem,
    reference_povm_validation,
    squarebit_model,
)

MODELS = [Classical(3), Quantum(2), squarebit_model()]


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_orthonormal(self, d):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        gram = np.einsum("aij,bji->ab", basis, basis).real
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-12)

    def test_coords_roundtrip(self):
        rng = np.random.default_rng(3)
        model = Quantum(3)
        m = random_density(rng, 3)
        coords = model.matrix_to_coords(m)
        np.testing.assert_allclose(model.coords_to_matrix(coords).entries, m, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_conversions_match_dense_basis(self, d):
        rng = np.random.default_rng(40 + d)
        model = Quantum(d)
        basis = hermitian_basis(d)
        for _ in range(5):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for m in (g, (g + g.conj().T) / 2.0):  # non-Hermitian, then Hermitian
                expected = np.einsum("kij,ji->k", basis, m).real
                np.testing.assert_allclose(model.matrix_to_coords(m), expected, rtol=0, atol=1e-12)
            coords = rng.standard_normal(d * d)
            matrix = model.coords_to_matrix(coords).entries
            np.testing.assert_allclose(matrix, np.einsum("k,kij->ij", coords, basis), rtol=0, atol=1e-12)
            np.testing.assert_allclose(model.matrix_to_coords(matrix), coords, rtol=0, atol=1e-12)

    def test_model_memory_is_quadratic_in_dimension(self):
        # A dense (d^2, d, d) complex basis alone would take 85 MB at d = 48.
        tracemalloc.start()
        try:
            model = Quantum(48)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.ambient_dim == 48 * 48
        assert peak < 4e6

    @pytest.mark.parametrize("m", [0, 1, 16])
    @pytest.mark.parametrize("d", [1, 2, 3, 32])
    def test_stacked_conversion_matches_rows(self, d, m):
        model = Quantum(d)
        coords = np.random.default_rng(70 + d + m).standard_normal((m, d * d))
        stack = model.coords_to_matrices(coords)
        assert stack.shape == (m, d, d) and stack.dtype == complex
        for row, matrix in zip(coords, stack):
            expected = model.coords_to_matrix(row).entries
            # The diagonal is one d-term sum per entry, which BLAS rounds
            # differently for one row and for a stack: up to 3.9 eps of the
            # largest entry at d = 32 over 200 seeds.
            tol = 8 * np.finfo(float).eps * max(1.0, np.max(np.abs(expected)))
            np.testing.assert_allclose(matrix, expected, rtol=0, atol=tol)
            np.testing.assert_array_equal(matrix, matrix.conj().T)
        with pytest.raises(ValueError):
            model.coords_to_matrices(np.zeros(d * d))

    def test_models_of_one_dimension_share_read_only_tables(self):
        a, b = Quantum(4), Quantum(4)
        assert a.unit_functional is b.unit_functional
        with pytest.raises(ValueError):
            a.unit_functional[0] = 0.0
        m = random_density(np.random.default_rng(8), 4)
        np.testing.assert_array_equal(b.matrix_to_coords(m), a.matrix_to_coords(m))


class TestModelSpaces:
    def test_classical_unit(self):
        model = Classical(4)
        np.testing.assert_allclose(model.unit_functional, np.ones(4))
        assert model.ambient_dim == 4

    def test_quantum_unit_is_trace(self):
        model = Quantum(2)
        rng = np.random.default_rng(1)
        rho = random_density(rng, 2)
        coords = model.matrix_to_coords(rho)
        assert model.unit_value(coords) == pytest.approx(np.trace(rho).real, abs=1e-12)

    def test_polytope_embedding(self):
        model = squarebit_model()
        assert model.ambient_dim == 3
        # unit functional is 1 on every embedded vertex
        np.testing.assert_allclose(model.vertices @ model.unit_functional, np.ones(4))

    @pytest.mark.parametrize(
        "vertices", [[1.0, -1.0], 2.0, [[[1.0, 0.0]], [[0.0, 1.0]]]], ids=["flat", "scalar", "3-D"]
    )
    def test_polytope_needs_a_list_of_points(self, vertices):
        # A flat list is neither read as one point in R^2 nor as two in R^1.
        with pytest.raises(ValueError, match="list of points"):
            Polytope(vertices)
        assert Polytope([[1.0], [-1.0]]).vertices.tolist() == [[1.0, 1.0], [1.0, -1.0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_polytope_vertices_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Polytope([[0.0, bad], [1.0, 0.0]])

    def test_unit_strictly_positive_on_generators(self):
        # cone generators: basis points / pure states / vertices
        c = Classical(3)
        assert np.all(c.unit_functional > 0)
        q = Quantum(2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            s = pure_state(q, v / np.linalg.norm(v))
            assert q.unit_value(s.coords) > 0
        p = squarebit_model()
        assert np.all(p.vertices @ p.unit_functional > 0)


class TestPolytopeEquality:
    def test_same_vertices_equal_and_hash_equal(self):
        a = squarebit_model()
        b = squarebit_model()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a == a

    def test_different_vertices_unequal(self):
        a = squarebit_model()
        b = Polytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -0.5]])
        assert a != b
        assert a != Polytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
        assert a != Classical(3)


class TestCallerArrays:
    """Constructors keep a read-only array, and copy a writeable one the caller passed."""

    BUILDERS = {
        "state": lambda f: State(Classical(3), f).coords,
        "effect": lambda f: Effect(Classical(3), f).functional,
        "constraint": lambda f: LinearConstraint(Classical(3), f, 1.0).functional,
    }

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_caller_buffer_stays_writeable(self, kind):
        f = np.full(3, 1.0 / 3.0)
        kept = self.BUILDERS[kind](f)
        assert f.flags.writeable and not kept.flags.writeable
        f[0] = 0.5
        assert kept[0] == 1.0 / 3.0

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_read_only_array_kept_as_it_is(self, kind):
        f = np.full(3, 1.0 / 3.0)
        f.setflags(write=False)
        assert self.BUILDERS[kind](f) is f

    def test_arrays_built_for_the_object_are_not_copied(self, monkeypatch):
        copied = []
        original = models._read_only

        def spy(values):
            out = original(values)
            if out is not values and isinstance(values, np.ndarray):
                copied.append(values.shape)
            return out

        monkeypatch.setattr(models, "_read_only", spy)
        monkeypatch.setattr(regions, "_read_only", spy)
        rng = np.random.default_rng(31)
        for model in (Classical(50), Quantum(3), squarebit_model()):
            maximally_mixed(model)
            effect = random_effect(model, rng)
            region = region_from_effect(effect, evaluate(effect, random_state(model, rng)))
            if model.kind != "polytope":
                assert solve(MaxEntProblem(model, region, default_objective(model))).state is not None
        assert copied == []


class TestState:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidState):
            State(Classical(2), np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(InvalidState):
            State(Classical(2), np.array([1.5, -0.5]))

    def test_rejects_non_psd_quantum(self):
        model = Quantum(2)
        with pytest.raises(InvalidState):
            State(model, model.matrix_to_coords(np.diag([1.5, -0.5]).astype(complex)))

    def test_rejects_point_outside_polytope(self):
        model = squarebit_model()
        with pytest.raises(InvalidState):
            State(model, model.embed_point([1.5, 0.0]))

    def _mixture(self):
        model = squarebit_model()
        w = np.array([0.1, 0.2, 0.3, 0.4])
        return model, w, w @ model.vertices

    def test_accepts_its_mixing_weights(self):
        model, w, coords = self._mixture()
        s = State(model, coords, weights=w)
        np.testing.assert_array_equal(s.coords, coords)
        assert s == State(model, coords)
        # Slack within the tolerances passes.
        State(model, coords, weights=w + np.array([-5e-9, 5e-9, 0.0, 0.0]))

    def test_rejects_a_negative_weight(self):
        model = squarebit_model()
        bad = np.array([-2e-8, 0.3 + 2e-8, 0.3, 0.4])  # sums to 1 and gives its coords
        with pytest.raises(InvalidState, match="negative"):
            State(model, bad @ model.vertices, weights=bad)

    def test_rejects_weights_off_the_unit_sum(self):
        model, w, coords = self._mixture()
        with pytest.raises(InvalidState, match="sum"):
            State(model, coords, weights=w * (1.0 + 2e-10))

    def test_rejects_weights_of_wrong_length(self):
        model, w, coords = self._mixture()
        with pytest.raises(InvalidState, match="mixing weights"):
            State(model, coords, weights=w[:3])

    def test_rejects_weights_that_miss_the_coordinates(self):
        model, w, coords = self._mixture()
        with pytest.raises(InvalidState, match="miss"):
            State(model, coords + np.array([0.0, 2e-8, 0.0]), weights=w)

    def test_rejects_nan_weights(self):
        model, w, coords = self._mixture()
        w[1] = np.nan
        with pytest.raises(InvalidState):
            State(model, coords, weights=w)

    def test_weights_are_polytope_only(self):
        with pytest.raises(ModelMismatch):
            State(Classical(2), np.array([0.5, 0.5]), weights=np.array([0.5, 0.5]))

    def test_weights_are_keyword_only_and_not_stored(self):
        model, w, coords = self._mixture()
        with pytest.raises(TypeError):
            State(model, coords, w)
        assert "weights" not in vars(State(model, coords, weights=w))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("model", MODELS, ids=["classical", "quantum", "polytope"])
    def test_rejects_a_non_finite_coordinate(self, model, bad):
        coords = maximally_mixed(model).coords.copy()
        coords[-1] = bad  # where the unit functional of quantum and polytope models is 0
        with pytest.raises(InvalidState, match="unit functional"), np.errstate(invalid="ignore"):  # 0 * inf
            State(model, coords)

    @pytest.mark.parametrize(
        "model,coords",
        [
            (Classical(4), [np.nan, 0.5, 0.5, 0.0]),
            (Quantum(2), [np.nan, 0.0, 0.0, 0.0]),
            (squarebit_model(), [1.0, np.nan, 0.0]),
        ],
        ids=["classical", "quantum", "polytope"],
    )
    def test_nan_coordinates_are_not_inside_the_cone(self, model, coords):
        # max(0, nan) is 0, which read as inside; the polytope's Phase I raised on the NaN.
        residual = model.cone_residual(np.array(coords))
        assert not residual <= 1e300

    @pytest.mark.parametrize("model", MODELS, ids=["classical", "quantum", "polytope"])
    def test_random_states_valid(self, model):
        rng = np.random.default_rng(11)
        for _ in range(500):
            s = random_state(model, rng)
            assert abs(model.unit_value(s.coords) - 1.0) <= 1e-10
            tol = 1e-8 if model.kind == "polytope" else 1e-10
            assert model.cone_residual(s.coords) <= tol


def factor_and_coords(model, rng, columns=None):
    """A random factor B with tr(B B^H) = 1 and the coordinates of B B^H."""
    shape = (model.dim, columns or model.dim)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b /= np.linalg.norm(b)
    return b, model.matrix_to_coords(b @ b.conj().T)


class TestFactorCertificate:
    """A quantum state rho = B B^H is certified by its factor B instead of by its spectrum."""

    @pytest.fixture
    def no_eigvalsh(self, monkeypatch):
        def refused(a):
            raise AssertionError("eigvalsh ran on a state that carries a factor")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)

    def test_solved_random_and_maximally_mixed_states_pass_the_spectral_test(self, monkeypatch):
        model = Quantum(5)
        rng = np.random.default_rng(3)
        problem = random_quantum_problem(rng, 5, 3)
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def counted(a):
            calls.append(1)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        sol = solve(problem)
        states = [sol.state, random_state(model, rng), maximally_mixed(model), maximally_mixed(Quantum(1))]
        assert sol.status.value == "converged" and calls == []
        for s in states:
            assert State(s.model, s.coords) == s
            assert np.min(eigvalsh(s.density_matrix().entries)) >= -1e-10
        assert len(calls) == len(states)

    def test_accepts_its_factor_of_any_width(self, no_eigvalsh):
        model = Quantum(4)
        rng = np.random.default_rng(5)
        for columns in (1, 2, 4, 7):
            b, coords = factor_and_coords(model, rng, columns)
            s = State(model, coords, factor=b)
            np.testing.assert_array_equal(s.coords, coords)
            # A gap below the 1e-10 tolerance passes.
            State(model, coords + np.r_[0.0, 5e-11, np.zeros(14)], factor=b)

    def test_rejects_coordinates_moved_off_the_factor(self):
        model = Quantum(4)
        b, coords = factor_and_coords(model, np.random.default_rng(7))
        moved = coords.copy()
        moved[-1] += 1e-9  # a traceless direction: the unit value stays 1
        assert State(model, moved) is not None  # the spectrum alone does not see it
        with pytest.raises(InvalidState, match="factor misses"):
            State(model, moved, factor=b)

    def test_rejects_the_factor_of_another_state(self, no_eigvalsh):
        model = Quantum(4)
        rng = np.random.default_rng(9)
        _, coords = factor_and_coords(model, rng)
        other, _ = factor_and_coords(model, rng)
        with pytest.raises(InvalidState, match="factor misses"):
            State(model, coords, factor=other)

    def test_rejects_a_nan_entry(self, no_eigvalsh):
        model = Quantum(3)
        b, coords = factor_and_coords(model, np.random.default_rng(11))
        b[1, 2] = np.nan
        with pytest.raises(InvalidState):
            State(model, coords, factor=b)

    def test_rejects_a_factor_of_the_wrong_height(self, no_eigvalsh):
        model = Quantum(3)
        b, coords = factor_and_coords(model, np.random.default_rng(13))
        with pytest.raises(InvalidState, match="rows"):
            State(model, coords, factor=b[:2])
        with pytest.raises(InvalidState, match="rows"):
            State(model, coords, factor=b[0])

    def test_factors_are_quantum_only(self):
        with pytest.raises(ModelMismatch):
            State(Classical(3), np.full(3, 1.0 / 3.0), factor=np.eye(3) / np.sqrt(3.0))
        model = squarebit_model()
        w = np.full(4, 0.25)
        with pytest.raises(ModelMismatch):
            State(model, w @ model.vertices, weights=w, factor=np.eye(3))

    def test_factor_is_keyword_only_and_not_stored(self):
        model = Quantum(2)
        b, coords = factor_and_coords(model, np.random.default_rng(17))
        with pytest.raises(TypeError):
            State(model, coords, None, b)
        assert "factor" not in vars(State(model, coords, factor=b))


def nan_effect(model):
    """The effect u/2 of model with a NaN first component, built unchecked."""
    f = 0.5 * model.unit_functional
    f[0] = np.nan
    return Effect(model, f, check=False)


class TestNanFailsEveryCheck:
    """A NaN fails each range and completeness test, as it fails the unit test of ``State``."""

    @pytest.mark.parametrize("model", MODELS, ids=["classical", "quantum", "polytope"])
    def test_effect(self, model):
        # On Quantum(2) the matrix of (nan, 0, 0, 0) is nan * I, whose eigvalsh LAPACK may return as (0, 0).
        with pytest.raises(InvalidEffect, match="nan"):
            Effect(model, nan_effect(model).functional)

    @pytest.mark.parametrize("model", MODELS, ids=["classical", "quantum", "polytope"])
    def test_observable(self, model):
        outcomes = (Outcome("a", nan_effect(model)), Outcome("b", Effect(model, 0.5 * model.unit_functional)))
        with pytest.raises(InvalidObservable, match="nan"):
            Observable(model, outcomes)

    @pytest.mark.parametrize("model", MODELS, ids=["classical", "quantum", "polytope"])
    def test_validate_povm(self, model):
        outcomes = (Outcome("a", nan_effect(model)), Outcome("b", Effect(model, 0.5 * model.unit_functional)))
        report = validate_povm(Observable(model, outcomes, check=False))
        assert not report.valid
        assert [i for i, _ in report.negative_effects] == [0] == [i for i, _ in report.above_unit_effects]
        assert "completeness residual nan" in report.issues()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: HermitianMatrix([[np.nan, 0.0], [0.0, 1.0]]),
            lambda: HermitianMatrix([[np.inf, 0.0], [0.0, 1.0]]),
            lambda: spectral_observable(Quantum(2), [[np.nan, 0.0], [0.0, 1.0]]),
        ],
        ids=["hermitian-nan", "hermitian-inf", "spectral-nan"],
    )
    def test_hermitian_checks(self, build):
        # inf - inf is a NaN, and a NaN passes "> tol": a non-finite entry is rejected before the asymmetry test.
        with pytest.raises(ValueError, match="must be finite"):
            build()


class TestBatchedPovmCheck:
    """validate_povm reads every range from one stack and agrees with the per-effect reference."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["classical", "quantum", "polytope"]),
        st.integers(1, 6),
        st.integers(2, 5),
        st.lists(st.sampled_from(["keep", "scale", "shift", "nan"]), min_size=5, max_size=5),
    )
    def test_matches_per_effect_reference(self, seed, kind, d, n, changes):
        rng = np.random.default_rng(seed)
        model = {"classical": Classical(d), "quantum": Quantum(d), "polytope": squarebit_model()}[kind]
        funcs = [out.effect.functional.copy() for out in random_povm(model, rng, n).outcomes]
        for f, change in zip(funcs, changes):
            if change == "scale":  # out of range on both sides for most draws
                f *= rng.uniform(-3.0, 3.0)
            elif change == "shift":
                f += rng.uniform(-0.5, 0.5) * model.unit_functional
            elif change == "nan":
                f[rng.integers(len(f))] = np.nan
        obs = Observable(model, tuple(Outcome(str(i), Effect(model, f, check=False)) for i, f in enumerate(funcs)), check=False)
        residual, ranges = reference_povm_validation(obs)
        same = lambda got, want: (np.isnan(got) and np.isnan(want)) or abs(got - want) <= 1e-14 * (1.0 + abs(want))
        for (lo, hi), got_lo, got_hi in zip(ranges, *models._state_ranges(model, np.array(funcs))):
            assert same(got_lo, lo) and same(got_hi, hi)
        report = validate_povm(obs)
        # The residual is read from the same coordinate sum as the reference's, so it is equal, not just close.
        want = 0.0 if residual <= 1e-10 else residual
        assert report.completeness_residual == want or (np.isnan(want) and np.isnan(report.completeness_residual))
        assert [i for i, _ in report.negative_effects] == [i for i, (lo, _) in enumerate(ranges) if not -lo <= 1e-10]
        assert [i for i, _ in report.above_unit_effects] == [i for i, (_, hi) in enumerate(ranges) if not hi - 1.0 <= 1e-10]
        assert report.valid == (want == 0.0 and not report.negative_effects and not report.above_unit_effects)


class TestEvaluate:
    def test_projector_on_maximally_mixed(self):
        model = Quantum(2)
        e = effect_from_matrix(model, np.diag([1.0, 0.0]).astype(complex))
        assert evaluate(e, maximally_mixed(model)) == pytest.approx(0.5, abs=1e-12)

    def test_classical_indicator(self):
        model = Classical(3)
        e = Effect(model, np.array([1.0, 0.0, 0.0]))
        s = State(model, np.array([0.2, 0.5, 0.3]))
        assert evaluate(e, s) == pytest.approx(0.2, abs=1e-12)

    def test_quantum_diagonal(self):
        model = Quantum(2)
        e = effect_from_matrix(model, np.diag([0.3, 0.7]).astype(complex))
        s = State(model, model.matrix_to_coords(np.diag([0.125, 0.875]).astype(complex)))
        assert evaluate(e, s) == pytest.approx(0.65, abs=1e-12)

    def test_model_mismatch(self):
        with pytest.raises(ModelMismatch):
            evaluate(Effect(Classical(2), np.array([1.0, 0.0])), maximally_mixed(Classical(3)))

    def test_clamps_tiny_excursions(self):
        model = Classical(2)
        e = Effect(model, np.array([1.0 + 5e-11, 0.0]), check=False)
        s = State(model, np.array([1.0, 0.0]))
        assert evaluate(e, s) == 1.0

    def test_clamps_tiny_negative_excursions(self):
        # A probability in [-1e-10, 0) reads 0; one below that window is returned as it is.
        model = Classical(2)
        s = State(model, np.array([1.0, 0.0]))
        assert evaluate(Effect(model, np.array([-5e-11, 0.0]), check=False), s) == 0.0
        assert evaluate(Effect(model, np.array([-2e-10, 0.0]), check=False), s) == -2e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["classical", "quantum", "polytope"]))
    def test_probability_range(self, seed, kind):
        model = {"classical": Classical(4), "quantum": Quantum(3), "polytope": squarebit_model()}[kind]
        rng = np.random.default_rng(seed)
        e = random_effect(model, rng)
        s = random_state(model, rng)
        assert 0.0 <= evaluate(e, s) <= 1.0

    def test_projector_complement(self):
        model = Quantum(3)
        rng = np.random.default_rng(23)
        for _ in range(50):
            s = random_state(model, rng)
            family = random_projector_family(rng, 3, n_groups=2)
            p = family[0].entries
            e = effect_from_matrix(model, p)
            e_comp = effect_from_matrix(model, np.eye(3) - p)
            assert abs(evaluate(e, s) + evaluate(e_comp, s) - 1.0) <= 1e-10


def region_mean(obs, s):
    """The mean of ``obs`` in ``s``, read through the functional of its mean-value region."""
    return float(region_from_mean(obs, 0.0).h_rep[0].functional @ s.coords)


class TestMeanValue:
    def test_sigma_z_symmetric(self):
        model = Quantum(2)
        obs = spectral_observable(model, np.diag([1.0, -1.0]).astype(complex))
        assert region_mean(obs, maximally_mixed(model)) == pytest.approx(0.0, abs=1e-12)

    def test_sigma_z_tilted(self):
        model = Quantum(2)
        obs = spectral_observable(model, np.diag([1.0, -1.0]).astype(complex))
        s = State(model, model.matrix_to_coords(np.diag([0.75, 0.25]).astype(complex)))
        assert region_mean(obs, s) == pytest.approx(0.5, abs=1e-12)

    def test_classical(self):
        model = Classical(2)
        obs = indicator_observable(model, [0.0, 1.0])
        s = State(model, np.array([0.7, 0.3]))
        assert region_mean(obs, s) == pytest.approx(0.3, abs=1e-12)

    def test_no_values(self):
        model = Classical(2)
        obs = indicator_observable(model)
        with pytest.raises(NoValues):
            region_mean(obs, State(model, np.array([0.7, 0.3])))


class TestValidatePovm:
    def test_valid_pair(self):
        model = Quantum(2)
        obs = Observable(model, (
            Outcome("a", effect_from_matrix(model, np.diag([0.3, 0.7]).astype(complex))),
            Outcome("b", effect_from_matrix(model, np.diag([0.7, 0.3]).astype(complex))),
        ))
        assert validate_povm(obs).valid

    def test_out_of_range_effects(self):
        model = Quantum(2)
        obs = Observable(model, (
            Outcome("a", Effect(model, model.matrix_to_coords(np.diag([1.2, 0.0]).astype(complex)), check=False)),
            Outcome("b", Effect(model, model.matrix_to_coords(np.diag([-0.2, 1.0]).astype(complex)), check=False)),
        ), check=False)
        report = validate_povm(obs)
        assert not report.valid
        assert any(idx == 0 for idx, _ in report.above_unit_effects)
        assert any(idx == 1 for idx, _ in report.negative_effects)
        assert report.completeness_residual == 0.0

    def test_incomplete(self):
        model = Quantum(2)
        obs = Observable(model, (
            Outcome("a", effect_from_matrix(model, np.diag([0.5, 0.5]).astype(complex))),
        ), check=False)
        report = validate_povm(obs)
        assert not report.valid
        assert report.completeness_residual == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=["classical", "quantum", "polytope"])
    def test_generator_accepted_and_mutations_rejected(self, model):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            obs = random_povm(model, rng, n)
            assert validate_povm(obs).valid
            k = int(rng.integers(0, n))
            mutated_outcomes = list(obs.outcomes)
            broken = Effect(model, obs.outcomes[k].effect.functional * 1.1, check=False)
            mutated_outcomes[k] = Outcome(obs.outcomes[k].label, broken)
            mutated = Observable(model, tuple(mutated_outcomes), check=False)
            assert not validate_povm(mutated).valid


def pure_state(model, amplitudes):
    v = np.asarray(amplitudes, dtype=complex)
    return State(model, model.matrix_to_coords(np.outer(v, v.conj())))


class TestPureStates:
    """Rank-one density matrices lie on the boundary of the cone, and State accepts them."""

    def test_basis_vector(self):
        s = pure_state(Quantum(2), [1.0, 0.0])
        np.testing.assert_allclose(s.density_matrix().entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_normalization_forced(self):
        model = Quantum(2)
        s = pure_state(model, np.array([1.0, 1.0]) / np.sqrt(2.0))
        np.testing.assert_allclose(s.density_matrix().entries, 0.5 * np.ones((2, 2)), atol=1e-12)
        with pytest.raises(InvalidState):
            pure_state(model, [1.0, 1.0])

    def test_complex_amplitudes(self):
        rho = pure_state(Quantum(2), [0.6, 0.8j]).density_matrix().entries
        assert rho[0, 0] == pytest.approx(0.36, abs=1e-12)
        assert rho[1, 1] == pytest.approx(0.64, abs=1e-12)
        assert rho[0, 1] == pytest.approx(-0.48j, abs=1e-12)

    def test_zero_vector(self):
        with pytest.raises(InvalidState):
            pure_state(Quantum(2), [0.0, 0.0])


class TestSpectralMixture:
    """A state's spectral mixture is the eigenprojector observable of its density matrix."""

    def test_diagonal(self):
        obs = spectral_observable(Quantum(2), np.diag([0.7, 0.3]).astype(complex))
        np.testing.assert_allclose([o.value for o in obs.outcomes], [0.3, 0.7], atol=1e-12)
        for out in obs.outcomes:
            p = obs.model.coords_to_matrix(out.effect.functional).entries
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(p @ p - p)) <= 1e-12

    def test_reconstruction(self):
        model = Quantum(3)
        rng = np.random.default_rng(37)
        for _ in range(25):
            s = random_state(model, rng)
            rho = s.density_matrix().entries
            obs = spectral_observable(model, rho)
            assert abs(np.sum([o.value for o in obs.outcomes]) - 1.0) <= 1e-10
            recon = np.sum([out.value * model.coords_to_matrix(out.effect.functional).entries for out in obs.outcomes], axis=0)
            assert np.max(np.abs(recon - rho)) <= 1e-9

    def test_rank_one_single_term(self):
        model = Quantum(2)
        s = State(model, model.matrix_to_coords(0.5 * np.ones((2, 2), dtype=complex)))
        obs = spectral_observable(model, s.density_matrix())
        weighted = [out for out in obs.outcomes if out.value > 1e-12]
        assert len(weighted) == 1
        assert weighted[0].value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(weighted[0].effect.functional, s.coords, atol=1e-9)

    def test_weights_match_eigenvalues(self):
        model = Quantum(4)
        rng = np.random.default_rng(41)
        for _ in range(20):
            rho = random_state(model, rng).density_matrix().entries
            eigs = np.sort(np.linalg.eigvalsh(rho))
            np.testing.assert_allclose([o.value for o in spectral_observable(model, rho).outcomes], eigs, atol=1e-9)


class TestStateAxioms:
    def test_zero_projection(self):
        model = Quantum(2)
        report = check_state_axioms(maximally_mixed(model), [HermitianMatrix(np.zeros((2, 2)))])
        assert report.zero_residual <= 1e-15

    def test_projector_and_complement(self):
        model = Quantum(2)
        report = check_state_axioms(maximally_mixed(model), [HermitianMatrix(np.diag([1.0, 0.0]))])
        assert report.passed

    def test_additivity(self):
        model = Quantum(3)
        s = State(model, model.matrix_to_coords(np.diag([0.2, 0.3, 0.5]).astype(complex)))
        family = [HermitianMatrix(np.diag([1.0, 0.0, 0.0])), HermitianMatrix(np.diag([0.0, 1.0, 0.0]))]
        report = check_state_axioms(s, family)
        assert report.passed
        rho = s.density_matrix().entries
        total = family[0].entries + family[1].entries
        assert np.trace(rho @ total).real == pytest.approx(0.5, abs=1e-12)

    def test_not_a_projection(self):
        with pytest.raises(NotAProjection):
            check_state_axioms(maximally_mixed(Quantum(2)), [HermitianMatrix(np.diag([0.5, 0.0]))])

    def test_not_orthogonal(self):
        family = [HermitianMatrix(np.diag([1.0, 0.0])), HermitianMatrix(0.5 * np.ones((2, 2)))]
        with pytest.raises(NotOrthogonal):
            check_state_axioms(maximally_mixed(Quantum(2)), family)

    def test_empty_family(self):
        report = check_state_axioms(maximally_mixed(Quantum(2)), [])
        assert report.additivity_residual == 0.0
        assert report.passed


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: Classical(0), ValueError, "^dimension must be positive$"),
            (lambda: Quantum(0), ValueError, "^dimension must be positive$"),
            (lambda: Quantum(2).coords_to_matrix(np.zeros(3)), ValueError,
             r"^expected 4 coordinates, got shape \(3,\)$"),
            (lambda: Quantum(2).matrix_to_coords(np.zeros((2, 3))), ValueError,
             r"^expected a 2 x 2 matrix, got shape \(2, 3\)$"),
            (lambda: State(Classical(2), np.ones(3) / 3), InvalidState, r"^expected 2 coordinates, got \(3,\)$"),
            (lambda: Effect(Classical(2), np.zeros(3)), InvalidEffect, r"^expected 2 components, got \(3,\)$"),
            (lambda: maximally_mixed(Classical(2)).density_matrix(), ModelMismatch, "quantum states only$"),
            (lambda: maximally_mixed(Quantum(2)).point(), ModelMismatch, "polytope states only$"),
            (lambda: Observable(Classical(2), ()), InvalidObservable, "^observable needs at least one outcome$"),
            (lambda: Observable(Classical(2), (Outcome("0", Effect(Classical(3), np.ones(3))),)), ModelMismatch,
             "^outcome effect belongs to a different model$"),
            (lambda: check_state_axioms(maximally_mixed(Classical(2)), []), ModelMismatch,
             "^state axioms are stated over quantum projections$"),
            (lambda: random_povm(Classical(2), np.random.default_rng(0), 1), ValueError,
             "^a POVM needs at least two outcomes$"),
            # The base class names no model, so two bare instances have no key to compare.
            (lambda: models.ModelSpace(2, np.ones(2)) == models.ModelSpace(2, np.ones(2)), NotImplementedError, None),
        ],
        ids=["classical-0", "quantum-0", "coords-shape", "matrix-shape", "state-shape", "effect-shape",
             "classical-density-matrix", "quantum-point", "empty-observable", "mixed-observable",
             "classical-axioms", "one-outcome-povm", "bare-model-spaces"],
    )
    def test_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_repr_names_the_model(self):
        assert repr(Classical(3)) == "Classical(ambient_dim=3)"
        assert repr(Quantum(2)) == "Quantum(ambient_dim=4)"

    def test_state_is_not_equal_to_another_type(self):
        assert maximally_mixed(Classical(2)) != 1

    def test_random_effect_on_a_one_vertex_polytope(self):
        # Every functional is constant on one vertex, so no rescaling into [0, 1] exists.
        e = random_effect(Polytope([[0.0]]), np.random.default_rng(0))
        np.testing.assert_array_equal(e.functional, [0.5, 0.0])


def test_unit_effect_evaluates_to_one():
    for model in MODELS:
        rng = np.random.default_rng(43)
        s = random_state(model, rng)
        assert evaluate(Effect(model, model.unit_functional), s) == pytest.approx(1.0, abs=1e-10)
