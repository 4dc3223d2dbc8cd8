"""Tests for constraint regions and the lattice operations."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmaxent import (
    Classical,
    ConvexRegion,
    DegenerateInput,
    Effect,
    FeasibilityStatus,
    FiducialMeasurementEntropy,
    InvalidTarget,
    MaxEntProblem,
    ModelMismatch,
    Observable,
    Outcome,
    Polytope,
    Quantum,
    Shannon,
    SolveStatus,
    State,
    Unsupported,
    UnsupportedRepresentation,
    default_objective,
    effect_from_matrix,
    enumerate_vertices,
    evaluate,
    feasibility,
    includes,
    join,
    maximally_mixed,
    meet,
    random_effect,
    random_povm,
    random_state,
    region_from_effect,
    region_from_mean,
    solve,
    spectral_observable,
    whole_space,
)
import gmaxent.regions as regions_module
from gmaxent.io import ParsedCondition, ParsedProblem, build_region
from gmaxent.models import _state_range
from gmaxent.regions import (
    _SCREEN_BLOCK,
    LinearConstraint,
    affine_hull_constraints,
    _dedup_constraints,
)
from gmaxent.simplex import FEASIBILITY_TOL

from helpers import (
    in_region,
    indicator_observable,
    random_region,
    reference_dedup_constraints,
    reference_includes,
    reference_vertices,
    region_eq,
    sphere_polytope,
    squarebit_model,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def quantum_state(model, diag_matrix):
    return State(model, model.matrix_to_coords(np.asarray(diag_matrix, dtype=complex)))


class TestConstraints:
    def test_zero_functional_rejected(self):
        with pytest.raises(DegenerateInput):
            LinearConstraint(Classical(2), np.zeros(2), 0.5)

    @pytest.mark.parametrize("kind", ["classical", "quantum", "polytope"])
    def test_stored_norm_is_the_2_norm(self, kind):
        rng = np.random.default_rng(23)
        model = {"classical": Classical(10_000), "quantum": Quantum(8)}.get(kind) or sphere_polytope(16, 3, rng)
        for scale in (1e-150, 1e-3, 1.0, 1e150):
            c = LinearConstraint(model, scale * rng.standard_normal(model.ambient_dim), 0.5)
            assert c.norm == np.linalg.norm(c.functional)
        with pytest.raises(DegenerateInput):
            LinearConstraint(model, np.zeros(model.ambient_dim), 0.5)

    @pytest.mark.parametrize(
        "functional,target",
        [([np.nan, 0.0, 0.0], 1.0), ([np.inf, 0.0, 0.0], 1.0), ([1.0, 0.0, 0.0], np.nan)],
        ids=["nan-entry", "inf-entry", "nan-target"],
    )
    def test_non_finite_rejected(self, functional, target):
        with pytest.raises(ValueError, match="finite"):
            LinearConstraint(Classical(3), np.array(functional), target)

    def test_vrep_must_satisfy_hrep(self):
        model = Classical(2)
        constraint = LinearConstraint(model, np.array([0.0, 1.0]), 0.3)
        good = State(model, np.array([0.7, 0.3]))
        bad = State(model, np.array([0.5, 0.5]))
        ConvexRegion(model, (constraint,), (good,))
        with pytest.raises(ValueError):
            ConvexRegion(model, (constraint,), (bad,))


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: LinearConstraint(Classical(2), np.ones(3), 0.5), ValueError,
             r"^expected 2 components, got \(3,\)$"),
            (lambda: ConvexRegion(Classical(2), (LinearConstraint(Classical(3), np.ones(3), 1.0),)), ModelMismatch,
             "^constraint belongs to a different model$"),
            (lambda: ConvexRegion(Classical(2), (), (maximally_mixed(Classical(3)),)), ModelMismatch,
             "^generator belongs to a different model$"),
            (lambda: affine_hull_constraints(Classical(2), ()), DegenerateInput,
             "^affine hull of an empty generator list$"),
            (lambda: includes(whole_space(Classical(2)), whole_space(Classical(3))), ModelMismatch,
             "^regions live on different models$"),
            (lambda: join(whole_space(Classical(2)), whole_space(Classical(3))), ModelMismatch,
             "^regions live on different models$"),
        ],
        ids=["constraint-shape", "constraint-model", "generator-model", "empty-hull", "includes-models", "join-models"],
    )
    def test_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestRegionBuilders:
    def test_mean_target_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            region_from_mean(indicator_observable(Classical(2), [0.0, 1.0]), np.nan)

    def test_mean_region_contains_center(self):
        model = Quantum(2)
        region = region_from_mean(spectral_observable(model, SZ), 0.0)
        assert in_region(region, maximally_mixed(model))

    def test_mean_region_boundary_point(self):
        model = Quantum(2)
        region = region_from_mean(spectral_observable(model, SZ), 1.0)
        top = quantum_state(model, np.diag([1.0, 0.0]))
        bottom = quantum_state(model, np.diag([0.0, 1.0]))
        assert in_region(region, top)
        assert not in_region(region, bottom)
        # z = 1 pins the Bloch vector, so the region is that single state
        result = feasibility(region)
        assert result.status == FeasibilityStatus.BOUNDARY_ONLY
        np.testing.assert_allclose(result.witness.coords, top.coords, atol=1e-6)

    def test_classical_mean_region_single_point(self):
        model = Classical(2)
        region = region_from_mean(indicator_observable(model, [0.0, 1.0]), 0.3)
        vertices = enumerate_vertices(region)
        assert len(vertices) == 1
        np.testing.assert_allclose(vertices[0].coords, [0.7, 0.3], atol=1e-10)

    def test_effect_region(self):
        model = Quantum(2)
        e = effect_from_matrix(model, np.diag([0.3, 0.7]))
        region = region_from_effect(e, 0.65)
        assert in_region(region, quantum_state(model, np.diag([0.125, 0.875])))

    def test_effect_region_membership_matches_evaluate(self):
        model = Classical(3)
        rng = np.random.default_rng(19)
        e = Effect(model, model.unit_functional)
        for _ in range(10):
            eff = random_effect(model, rng)
            lam = float(rng.uniform(0.2, 0.8))
            region = region_from_effect(eff, lam)
            for _ in range(10):
                s = random_state(model, rng)
                inside = abs(evaluate(eff, s) - lam) <= 1e-8
                assert in_region(region, s) == inside

    def test_unit_effect_full_target(self):
        model = Quantum(2)
        region = region_from_effect(Effect(model, model.unit_functional), 1.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            assert in_region(region, random_state(model, rng))

    def test_unit_effect_half_target_infeasible(self):
        for model in (Classical(3), Quantum(2)):
            region = region_from_effect(Effect(model, model.unit_functional), 0.5)
            assert feasibility(region).status == FeasibilityStatus.INFEASIBLE

    def test_invalid_target(self):
        with pytest.raises(InvalidTarget):
            region_from_effect(Effect(Classical(2), np.ones(2)), 1.5)


class TestMeet:
    def test_whole_space_is_identity(self):
        model = Classical(3)
        region = random_region(model, np.random.default_rng(3))
        merged = meet(region, whole_space(model))
        assert [c.target for c in merged.h_rep] == [c.target for c in region.h_rep]
        assert region_eq(merged, region)

    def test_idempotent(self):
        region = random_region(Classical(3), np.random.default_rng(5))
        assert region_eq(meet(region, region), region)
        assert len(meet(region, region).h_rep) == len(region.h_rep)

    def test_bloch_contradiction_infeasible(self):
        model = Quantum(2)
        region = meet(
            region_from_mean(spectral_observable(model, SZ), 1.0),
            region_from_mean(spectral_observable(model, SX), 1.0),
        )
        assert feasibility(region).status == FeasibilityStatus.INFEASIBLE

    def test_conflicting_duplicate_marks_empty(self):
        model = Classical(3)
        obs = indicator_observable(model, [0.0, 1.0, 2.0])
        region = meet(region_from_mean(obs, 1.0), region_from_mean(obs, 1.5))
        assert region.known_empty
        assert feasibility(region).status == FeasibilityStatus.INFEASIBLE

    def test_empty_meet_screens_duplicates(self):
        model = Classical(3)
        obs = indicator_observable(model, [0.0, 1.0, 2.0])
        empty = meet(region_from_mean(obs, 1.0), region_from_mean(obs, 1.5))
        for other in (region_from_mean(obs, 1.0), region_from_mean(obs, 0.5), empty):
            for merged in (meet(empty, other), meet(other, empty)):
                assert merged.known_empty
                assert len(merged.h_rep) == 1

    def test_scaled_duplicate_dropped(self):
        model = Classical(3)
        f = np.array([0.0, 1.0, 2.0])
        a = ConvexRegion(model, (LinearConstraint(model, f, 1.0),))
        b = ConvexRegion(model, (LinearConstraint(model, 2.0 * f, 2.0),))
        merged = meet(a, b)
        assert len(merged.h_rep) == 1
        assert not merged.known_empty

    def test_model_mismatch(self):
        with pytest.raises(ModelMismatch):
            meet(whole_space(Classical(2)), whole_space(Classical(3)))

    @pytest.mark.parametrize("model", [Classical(3), Quantum(2)])
    def test_empty_generator_list_is_the_empty_region(self, model):
        empty = ConvexRegion(model, v_rep=())
        assert empty.known_empty and not empty.is_whole_space()
        for other in (whole_space(model), region_from_effect(Effect(model, 0.5 * model.unit_functional), 0.5)):
            for merged in (meet(empty, other), meet(other, empty)):
                assert merged.known_empty
                assert [c.target for c in merged.h_rep] == [c.target for c in other.h_rep]
        solution = solve(MaxEntProblem(model, empty, default_objective(model)))
        assert solution.status == SolveStatus.INFEASIBLE
        assert solution.state is None


def unsampled_coordinates(model):
    """Coordinates the duplicate screen of ``meet`` does not look at."""
    n = model.ambient_dim
    return np.flatnonzero(np.arange(n) % max(1, n // 64))


def near_duplicate(c, gap):
    """A constraint whose normalized functional differs from c's by about gap,
    on one coordinate the screen does not sample when there is one."""
    norm = np.linalg.norm(c.functional)
    unit = c.functional / norm
    spots = unsampled_coordinates(c.model)
    spots = spots if spots.size else np.arange(unit.size)
    spot = spots[np.argmin(np.abs(unit[spots]))]
    moved = unit.copy()
    # Renormalizing shrinks the bump by unit[spot]^2 to first order.
    moved[spot] += gap / (1.0 - unit[spot] ** 2)
    return LinearConstraint(c.model, moved, c.target / norm * np.linalg.norm(moved))


def duplicate_family(model, rng):
    """Random constraints, then, of some of them: positive rescalings, a
    rescaling with a conflicting target, near-duplicates just inside and just
    outside the 1e-10 tolerance, and copies with their unsampled coordinates
    permuted, which agree with the original on every sampled coordinate and
    differ elsewhere. Shuffled, so a repeat may come before its original."""
    base = [
        LinearConstraint(model, rng.standard_normal(model.ambient_dim), float(rng.standard_normal()))
        for _ in range(rng.integers(2, 6))
    ]
    out = list(base)
    for c in base:
        scale = float(np.exp(rng.uniform(-5.0, 5.0)))
        out.append(LinearConstraint(model, scale * c.functional, scale * c.target))
        out.append(near_duplicate(c, 0.9e-10))
        out.append(near_duplicate(c, 1.1e-10))
    if rng.uniform() < 0.5:
        c = base[rng.integers(len(base))]
        scale = float(np.exp(rng.uniform(-5.0, 5.0)))
        shifted = c.target + 1e-6 * np.linalg.norm(c.functional)
        out.append(LinearConstraint(model, scale * c.functional, scale * shifted))
    spots = unsampled_coordinates(model)
    for _ in range(8):
        f = base[0].functional.copy()
        f[spots] = rng.permutation(f[spots])
        out.append(LinearConstraint(model, f, base[0].target))
    return tuple(out[i] for i in rng.permutation(len(out)))


class TestDuplicateScreen:
    """``meet``'s duplicate detection agrees with comparing every pair in full."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["classical", "quantum", "polytope"]))
    def test_matches_all_pairs_reference(self, seed, kind):
        rng = np.random.default_rng(seed)
        model = {"classical": Classical(10_000), "quantum": Quantum(32)}.get(kind) or sphere_polytope(8, 3, rng)
        constraints = duplicate_family(model, rng)
        kept, empty = _dedup_constraints(constraints)
        reference_kept, reference_empty = reference_dedup_constraints(constraints)
        assert [id(c) for c in kept] == [id(c) for c in reference_kept]
        assert empty == reference_empty

    def test_screen_in_several_blocks_matches_reference(self):
        # About 200 constraints with 64 samples each exceed one screen block.
        model = Classical(4096)
        rng = np.random.default_rng(47)
        constraints = sum((duplicate_family(model, rng) for _ in range(8)), ())
        assert len(constraints) ** 2 * 64 > _SCREEN_BLOCK
        kept, empty = _dedup_constraints(constraints)
        reference_kept, reference_empty = reference_dedup_constraints(constraints)
        assert [id(c) for c in kept] == [id(c) for c in reference_kept]
        assert empty == reference_empty

    @pytest.mark.parametrize("model", [Classical(10_000), Quantum(32)], ids=["classical", "quantum"])
    def test_near_duplicates_off_the_sample(self, model):
        rng = np.random.default_rng(41)
        c = LinearConstraint(model, rng.uniform(0.0, 1.0, model.ambient_dim), 0.5)
        unit = c.functional / np.linalg.norm(c.functional)
        spots = unsampled_coordinates(model)
        for gap, dropped in ((0.9e-10, True), (1.1e-10, False)):
            near = near_duplicate(c, gap)
            shift = near.functional / np.linalg.norm(near.functional) - unit
            assert np.max(np.abs(shift[spots])) == pytest.approx(gap, rel=1e-3)
            assert np.max(np.abs(np.delete(shift, spots))) < 1e-13  # the screen sees no gap
            merged = meet(ConvexRegion(model, (c,)), ConvexRegion(model, (near,)))
            assert [id(k) for k in merged.h_rep] == ([id(c)] if dropped else [id(c), id(near)])
            assert not merged.known_empty

    def test_agreeing_on_the_sample_is_not_a_duplicate(self):
        model = Classical(10_000)
        rng = np.random.default_rng(43)
        f = rng.uniform(0.0, 1.0, model.ambient_dim)
        spots = unsampled_coordinates(model)
        copies = [LinearConstraint(model, f, 0.5)]
        for _ in range(6):
            g = f.copy()
            g[spots] = rng.permutation(g[spots])
            copies.append(LinearConstraint(model, g, 0.25))
        kept, empty = _dedup_constraints(tuple(copies))
        assert [id(c) for c in kept] == [id(c) for c in copies]
        assert not empty

    @pytest.mark.parametrize("conflict", [False, True], ids=["rescaled", "conflicting"])
    def test_balanced_tree_of_random_effects_with_repeats(self, conflict):
        model = Classical(10_000)
        rng = np.random.default_rng(2011)
        interior = random_state(model, rng)
        effects = [random_effect(model, rng) for _ in range(32)]
        regions = [region_from_effect(e, evaluate(e, interior)) for e in effects]
        originals = [r.h_rep[0] for r in regions]
        while len(regions) > 1:
            regions = [meet(regions[i], regions[i + 1]) for i in range(0, len(regions), 2)]
        shift = 0.25 if conflict else 0.0
        picks, scales = rng.choice(32, size=5, replace=False), rng.uniform(0.1, 10.0, size=5)
        repeats = tuple(
            LinearConstraint(model, scale * originals[i].functional, scale * (originals[i].target + shift))
            for i, scale in zip(picks, scales)
        )
        merged = meet(regions[0], ConvexRegion(model, repeats))
        # A repeat of larger norm replaces its original and comes after the originals.
        larger = [i for i, scale in zip(picks, scales) if scale > 1.0]
        assert 0 < len(larger) < 5
        expected = [c for i, c in enumerate(originals) if i not in larger]
        expected += [r for r, scale in zip(repeats, scales) if scale > 1.0]
        assert [id(c) for c in merged.h_rep] == [id(c) for c in expected]
        assert merged.known_empty == conflict

    def test_equal_norms_keep_the_earlier(self):
        model = Classical(3)
        c, twin = (LinearConstraint(model, np.array([0.0, 1.0, 2.0]), 1.0) for _ in range(2))
        for pair in ((c, twin), (twin, c)):
            kept, empty = _dedup_constraints(pair)
            assert [id(k) for k in kept] == [id(pair[0])] and not empty

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["classical", "quantum", "polytope"])
    def test_build_region_chain_matches_reference(self, kind, seed):
        # io.build_region meets one condition at a time, as a problem file lists them.
        rng = np.random.default_rng(53 + seed)
        model = {"classical": Classical(10_000), "quantum": Quantum(32)}.get(kind) or sphere_polytope(8, 3, rng)
        constraints = duplicate_family(model, rng)
        observables = {
            f"c{i}": Observable(model, (Outcome("x", Effect(model, c.functional, check=False), 1.0),), check=False)
            for i, c in enumerate(constraints)
        }

        def chain(n):
            conditions = [ParsedCondition(f"c{i}", None, "mean", c.target) for i, c in enumerate(constraints[:n])]
            return build_region(ParsedProblem(model, observables, {}, conditions, None, {}))

        region = chain(len(constraints))
        kept, empty = reference_dedup_constraints(constraints)
        assert region.known_empty == empty
        assert [(c.functional.tobytes(), c.target) for c in region.h_rep] == [
            (c.functional.tobytes(), c.target) for c in kept
        ]


class TestMeetConflictTolerance:
    """meet flags parallel conditions as conflicting only when includes rejects even the one of smaller norm."""

    @staticmethod
    def _pair(scale, shift):
        model = Classical(3)
        f = np.array([0.0, 1.0, 2.0])
        return (
            ConvexRegion(model, (LinearConstraint(model, f, 1.0),)),
            ConvexRegion(model, (LinearConstraint(model, scale * f, scale * 1.0 + shift),)),
        )

    @staticmethod
    def _assert_order_read_through_the_meet(a, b):
        for x, y in ((a, b), (b, a)):
            assert includes(x, y) == includes(meet(x, y), y)

    @pytest.mark.parametrize("shift, empty", [(1e-9, False), (1e-6, True)])
    def test_equal_functionals(self, shift, empty):
        a, b = self._pair(1.0, shift)
        assert meet(a, b).known_empty == meet(b, a).known_empty == empty
        assert includes(a, b) == includes(b, a) == (not empty)
        self._assert_order_read_through_the_meet(a, b)

    @pytest.mark.parametrize("shift, empty", [(5e-7, False), (2e-6, True)])
    def test_in_the_scale_of_the_smaller_norm(self, shift, empty):
        # f . x = 1 misses 100 f . x = 100 + shift by shift / 100, and 100 f misses f's plane by shift.
        a, b = self._pair(100.0, shift)
        assert meet(a, b).known_empty == meet(b, a).known_empty == empty
        assert includes(a, b) == (not empty)
        assert not includes(b, a)
        self._assert_order_read_through_the_meet(a, b)


class TestJoin:
    def test_two_quantum_points(self):
        model = Quantum(2)
        a = ConvexRegion(model, (), (quantum_state(model, np.diag([1.0, 0.0])),))
        b = ConvexRegion(model, (), (quantum_state(model, np.diag([0.0, 1.0])),))
        hull = join(a, b)
        assert len(hull.v_rep) == 2
        assert in_region(hull, maximally_mixed(model))

    def test_idempotent(self):
        model = Classical(3)
        region = random_region(model, np.random.default_rng(11))
        assert region_eq(join(region, region), region)

    def test_segment_meets_plane(self):
        model = Classical(3)
        a = ConvexRegion(model, (), (State(model, np.array([1.0, 0.0, 0.0])),))
        b = ConvexRegion(model, (), (State(model, np.array([0.0, 1.0, 0.0])),))
        segment = join(a, b)
        plane = region_from_mean(indicator_observable(model, [0.0, 1.0, 0.0]), 0.25)
        result = meet(segment, plane)
        check = feasibility(result)
        assert check.status == FeasibilityStatus.FEASIBLE
        assert in_region(result, State(model, np.array([0.75, 0.25, 0.0])))

    def test_quantum_hrep_join_unsupported(self):
        model = Quantum(2)
        region = region_from_mean(spectral_observable(model, SZ), 0.0)
        with pytest.raises(UnsupportedRepresentation):
            join(region, region)


class TestIncludes:
    def test_whole_space_includes_everything(self):
        model = Quantum(2)
        region = region_from_mean(spectral_observable(model, SZ), 0.3)
        assert includes(whole_space(model), region)

    def test_distinct_points(self):
        model = Quantum(2)
        a = ConvexRegion(model, (), (quantum_state(model, np.diag([1.0, 0.0])),))
        b = ConvexRegion(model, (), (quantum_state(model, np.diag([0.0, 1.0])),))
        assert not includes(a, b)
        assert includes(a, a)

    def test_plane_includes_point(self):
        model = Classical(3)
        plane = region_from_mean(indicator_observable(model, [0.0, 1.0, 2.0]), 1.0)
        point = ConvexRegion(model, (), (State(model, np.array([0.5, 0.0, 0.5])),))
        assert includes(plane, point)

    def test_classical_10000_answers(self):
        # Ranges come from the simplex, which needs no vertex.
        model = Classical(10_000)
        rng = np.random.default_rng(41)
        anchor = random_state(model, rng)
        funcs = rng.uniform(0.0, 1.0, (3, 10_000))
        inner = ConvexRegion(model, tuple(LinearConstraint(model, f, float(f @ anchor.coords)) for f in funcs))
        combination = 0.3 * funcs[0] - 2.0 * funcs[1] + 0.5 * funcs[2] + model.unit_functional
        implied = ConvexRegion(model, (LinearConstraint(model, combination, float(combination @ anchor.coords)),))
        unrelated = rng.uniform(0.0, 1.0, 10_000)
        other = ConvexRegion(model, (LinearConstraint(model, unrelated, float(unrelated @ anchor.coords)),))
        assert includes(implied, inner)
        assert not includes(other, inner)
        assert not includes(inner, implied)

    def test_h_regions_enumerate_no_vertices(self, monkeypatch):
        calls = []
        monkeypatch.setattr(regions_module, "enumerate_vertices", lambda c: calls.append(c) or enumerate_vertices(c))
        rng = np.random.default_rng(43)
        for model in (Classical(4), Classical(11), squarebit_model(), sphere_polytope(16, 3, rng)):
            anchor = random_state(model, rng)
            funcs = rng.standard_normal((3, model.ambient_dim))
            conditions = [LinearConstraint(model, f, float(f @ anchor.coords)) for f in funcs]
            a, b = ConvexRegion(model, conditions[:2]), ConvexRegion(model, conditions[1:])
            for outer, inner in ((a, b), (b, a), (a, meet(a, b)), (a, whole_space(model))):
                includes(outer, inner)
        for seed in range(20):
            outer, inner = reference_pair(seed)
            includes(outer, inner)
            includes(inner, outer)
        assert calls == []
        # A generator outer over an H-inner still reads inner's vertices.
        model = Classical(3)
        includes(ConvexRegion(model, (), tuple(State(model, e) for e in np.eye(3))), random_region(model, rng))
        assert len(calls) == 1

    @pytest.mark.parametrize("model", [Classical(3), Quantum(2)])
    def test_empty_region_excludes_the_whole_space(self, model):
        # No generators of the whole space are needed, so a quantum model answers too.
        for empty in (ConvexRegion(model, v_rep=()), ConvexRegion(model, known_empty=True)):
            assert not includes(empty, whole_space(model))
            assert includes(whole_space(model), empty)
            assert includes(empty, empty)

    def test_unit_effect_region_equals_whole_space(self):
        model = Quantum(2)
        trivial = region_from_effect(Effect(model, model.unit_functional), 1.0)
        assert region_eq(trivial, whole_space(model))
        nontrivial = region_from_mean(spectral_observable(model, SZ), 0.0)
        assert not includes(nontrivial, whole_space(model))
        assert includes(whole_space(model), nontrivial)

    @pytest.mark.parametrize(
        "kind,inner,tilt",
        [
            pytest.param(kind, inner, 1e-5, id=f"{kind}-{inner}")
            for kind, inners in (("classical", ("whole", "unit", "hull")), ("quantum", ("whole", "hull")))
            for inner in inners
        ]
        + [
            pytest.param(kind, inner, tilt, id=f"{kind}-{inner}-{tilt:g}")
            for kind in ("classical", "squarebit")
            for inner in ("whole", "unit", "hull")
            for tilt in (5e-8, 2e-8)
        ],
    )
    def test_whole_space_judged_like_every_inner(self, kind, inner, tilt):
        # f = 1e6 u plus a tilt that is 0 at some extreme states and from twice
        # to a thousand times the inclusion tolerance at others, so f's maximum
        # misses the target, whichever way the states are given. The simplex's
        # reduced-cost floor, relative to the largest cost, is 1e-7 on f itself,
        # so over an H-region only pricing the part of f that varies sees it.
        model = {"classical": Classical(3), "squarebit": squarebit_model(), "quantum": Quantum(2)}[kind]
        direction = np.zeros(model.ambient_dim)
        direction[-1] = tilt
        if kind == "squarebit":  # coordinates (1, x, y), y = +-1 at the vertices
            direction[0], direction[-1] = tilt / 2, -tilt / 2
        outer = ConvexRegion(model, (LinearConstraint(model, 1e6 * model.unit_functional + direction, 1e6),))
        unit = ConvexRegion(model, (LinearConstraint(model, model.unit_functional, 1.0),))
        if kind == "quantum":
            paulis = (SX, np.array([[0.0, -1j], [1j, 0.0]]), SZ)
            extreme = [quantum_state(model, (np.eye(2) + sign * p) / 2) for p in paulis for sign in (1, -1)]
        else:
            extreme = enumerate_vertices(whole_space(model))
        region = {"whole": whole_space(model), "unit": unit, "hull": ConvexRegion(model, (), tuple(extreme))}[inner]
        assert not includes(outer, region)

    @pytest.mark.parametrize("kind", ["classical", "quantum", "squarebit"])
    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_face_excludes_what_reaches_past_it(self, kind, target):
        # The effect spans [0, 1] over the states, so at either target one end
        # of its range meets the target and the other end decides.
        model = {"classical": Classical(3), "quantum": Quantum(2), "squarebit": squarebit_model()}[kind]
        if kind == "quantum":
            effect = effect_from_matrix(model, np.diag([1.0, 0.0]))
        else:
            effect = Effect(model, np.array([1.0, 0.0, 0.0]) if kind == "classical" else np.array([0.5, 0.5, 0.0]))
        face = region_from_effect(effect, target)
        assert not includes(face, whole_space(model))
        assert includes(whole_space(model), face)
        if kind != "quantum":
            assert not includes(face, ConvexRegion(model, (), tuple(enumerate_vertices(whole_space(model)))))


class TestFeasibility:
    def test_classical_witness(self):
        model = Classical(2)
        region = region_from_mean(indicator_observable(model, [0.0, 1.0]), 0.3)
        result = feasibility(region)
        assert result.status == FeasibilityStatus.FEASIBLE
        np.testing.assert_allclose(result.witness.coords, [0.7, 0.3], atol=1e-9)
        assert all(c.residual(result.witness) <= 1e-8 for c in region.h_rep)

    def test_classical_unreachable_target(self):
        model = Classical(2)
        region = region_from_mean(indicator_observable(model, [0.0, 1.0]), 2.0)
        assert feasibility(region).status == FeasibilityStatus.INFEASIBLE

    def test_quantum_boundary(self):
        model = Quantum(2)
        region = region_from_mean(spectral_observable(model, SZ), 1.0)
        result = feasibility(region)
        assert result.status == FeasibilityStatus.BOUNDARY_ONLY
        np.testing.assert_allclose(
            result.witness.density_matrix().entries, np.diag([1.0, 0.0]), atol=1e-3
        )

    def test_classical_feasibility_memory_is_linear_in_dimension(self):
        # The mixing weights of a classical model are its coordinates, so the
        # LP has d columns and no d x d vertex matrix (128 MB at d = 4000).
        model = Classical(4000)
        rng = np.random.default_rng(5)
        region = meet(
            region_from_effect(Effect(model, rng.uniform(0.0, 1.0, 4000)), 0.5),
            region_from_effect(Effect(model, rng.uniform(0.0, 1.0, 4000)), 0.4),
        )
        tracemalloc.start()
        try:
            result = feasibility(region)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.status == FeasibilityStatus.FEASIBLE
        assert peak < 10e6

    def test_random_witnesses_satisfy_constraints(self):
        rng = np.random.default_rng(13)
        for model in (Classical(4), squarebit_model()):
            for _ in range(25):
                region = random_region(model, rng)
                result = feasibility(region)
                assert result.status == FeasibilityStatus.FEASIBLE
                assert max(c.residual(result.witness) for c in region.h_rep) <= 1e-8


class TestEnumerateVertices:
    def test_unconstrained_simplex(self):
        vertices = enumerate_vertices(whole_space(Classical(3)))
        assert len(vertices) == 3
        coords = sorted(tuple(np.round(v.coords, 9)) for v in vertices)
        assert coords == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_plane_cut(self):
        model = Classical(3)
        region = region_from_mean(indicator_observable(model, [0.0, 1.0, 2.0]), 1.0)
        vertices = enumerate_vertices(region)
        coords = sorted(tuple(np.round(v.coords, 9)) for v in vertices)
        assert coords == [(0.0, 1.0, 0.0), (0.5, 0.0, 0.5)]

    def test_single_point(self):
        model = Classical(2)
        region = region_from_mean(indicator_observable(model, [0.0, 1.0]), 0.3)
        vertices = enumerate_vertices(region)
        assert len(vertices) == 1
        np.testing.assert_allclose(vertices[0].coords, [0.7, 0.3], atol=1e-9)

    def test_cap(self):
        # Three random conditions on Classical(48) cut out a polytope with more
        # bases than the walk's cap; it stops there instead of running on.
        model = Classical(48)
        rng = np.random.default_rng(17)
        anchor = random_state(model, rng)
        funcs = rng.uniform(0.0, 1.0, (3, 48))
        region = ConvexRegion(model, tuple(LinearConstraint(model, f, float(f @ anchor.coords)) for f in funcs))
        with pytest.raises(Unsupported, match="cap"):
            enumerate_vertices(region)

    def test_past_the_old_input_cap(self):
        # Classical(11) with two conditions passed the old cap of 12 on
        # constraint count plus ambient dimension; the walk finds all 51 vertices.
        model = Classical(11)
        rng = np.random.default_rng(0)
        anchor = random_state(model, rng)
        funcs = rng.uniform(0.0, 1.0, (2, 11))
        region = ConvexRegion(model, tuple(LinearConstraint(model, f, float(f @ anchor.coords)) for f in funcs))
        vertices = enumerate_vertices(region)
        assert len(vertices) == 51
        for v in vertices:
            assert max(c.residual(v) for c in region.h_rep) <= FEASIBILITY_TOL
            assert np.count_nonzero(v.coords) <= 3

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_walk_matches_the_reference_enumeration(self, seed):
        # Same states in the same order as trying every column set.
        region = walk_region(seed)
        walked, reference = enumerate_vertices(region), reference_vertices(region)
        assert len(walked) == len(reference)
        for w, r in zip(walked, reference):
            np.testing.assert_allclose(w.coords, r.coords, rtol=0.0, atol=1e-9)

    def test_quantum_unsupported(self):
        with pytest.raises(Unsupported):
            enumerate_vertices(whole_space(Quantum(2)))

    def test_squarebit_vertices(self):
        model = squarebit_model()
        vertices = enumerate_vertices(whole_space(model))
        assert len(vertices) == 4
        points = sorted(tuple(np.round(v.point(), 9)) for v in vertices)
        assert points == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]

    def test_squarebit_edge_cut(self):
        model = squarebit_model()
        # x = 0.8 slices the square in a vertical segment; the generator list
        # must cover its endpoints (non-extreme interior points may appear)
        constraint = LinearConstraint(model, np.array([0.0, 1.0, 0.0]), 0.8)
        region = ConvexRegion(model, (constraint,))
        points = sorted(tuple(np.round(v.point(), 9)) for v in enumerate_vertices(region))
        assert (0.8, -1.0) in points and (0.8, 1.0) in points
        assert all(x == 0.8 and -1.0 <= y <= 1.0 for x, y in points)


def walk_region(seed):
    """Zero to two random conditions on Classical(2..7) or a polygon of 3..7 vertices.

    Each condition's target is its value at a random state, or with
    probability 0.2 at an extreme state, so that the region is degenerate there.
    """
    rng = np.random.default_rng(seed)
    if seed % 2:
        model = Classical(int(rng.integers(2, 8)))
        extreme = np.eye(model.ambient_dim)
    else:
        model = Polytope(rng.standard_normal((int(rng.integers(3, 8)), 2)))
        extreme = model.vertices
    conditions = []
    for _ in range(int(rng.integers(0, 3))):
        f = rng.standard_normal(model.ambient_dim)
        point = extreme[rng.integers(len(extreme))] if rng.uniform() < 0.2 else random_state(model, rng).coords
        conditions.append(LinearConstraint(model, f, float(f @ point)))
    return ConvexRegion(model, tuple(conditions))


class TestLatticeLaws:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["classical", "squarebit"]))
    def test_laws_on_random_pairs(self, seed, kind):
        model = Classical(3) if kind == "classical" else squarebit_model()
        rng = np.random.default_rng(seed)
        a = random_region(model, rng)
        b = random_region(model, rng)
        assert region_eq(meet(a, b), meet(b, a))
        assert region_eq(join(a, b), join(b, a))
        assert region_eq(meet(a, a), a)
        assert region_eq(join(a, a), a)
        assert region_eq(meet(a, join(a, b)), a)
        assert region_eq(join(a, meet(a, b)), a)
        assert includes(a, meet(a, b))
        assert includes(b, meet(a, b))

    def test_meet_associative(self):
        rng = np.random.default_rng(99)
        model = Classical(3)
        a, b, c = (random_region(model, rng) for _ in range(3))
        assert region_eq(meet(meet(a, b), c), meet(a, meet(b, c)))


LAW_REGIONS = 12


def law_family(seed):
    """A model, regions on it that nest and overlap, and an entropy objective.

    The model is Classical(2..5) or a random polygon of 3..7 vertices. The
    regions are the whole space, the empty region as a flag and as an empty
    generator list, three conditions on small integer functionals that a
    shared anchor state meets, two of their meets, a condition the anchor
    misses, one no state meets, and two single points (the anchor and a
    random state). Regions spanned by several generators are left out:
    ``meet`` enters them through their affine hull.
    """
    rng = np.random.default_rng(seed)
    if seed % 2:
        model = Classical(int(rng.integers(2, 6)))
        objective = Shannon()
    else:
        model = Polytope(rng.standard_normal((int(rng.integers(3, 8)), 2)))
        objective = FiducialMeasurementEntropy((random_povm(model, rng, 3), random_povm(model, rng, 3)))
    anchor, other = random_state(model, rng), random_state(model, rng)
    funcs = [rng.integers(-1, 3, model.ambient_dim).astype(float) for _ in range(3)]
    funcs = [f if f.any() else 2.0 * model.unit_functional for f in funcs]

    def condition(f, target):
        return ConvexRegion(model, (LinearConstraint(model, f, float(target)),))

    h0, h1, h2 = (condition(f, f @ anchor.coords) for f in funcs)
    regions = [
        whole_space(model),
        ConvexRegion(model, known_empty=True),
        ConvexRegion(model, v_rep=()),
        h0,
        h1,
        h2,
        meet(h0, h1),
        meet(meet(h0, h1), h2),
        condition(funcs[0], funcs[0] @ other.coords),
        condition(funcs[1], _state_range(model, funcs[1])[1] + 1.0),
        ConvexRegion(model, (), (anchor,)),
        ConvexRegion(model, (), (other,)),
    ]
    assert len(regions) == LAW_REGIONS
    return model, regions, objective


def maxent_entropy(model, region, objective):
    """The MaxEnt entropy over region, or None when the region is empty."""
    if region.v_rep:
        region = meet(region, whole_space(model))  # a single point is its own affine hull
    solution = solve(MaxEntProblem(model, region, objective))
    if solution.status == SolveStatus.INFEASIBLE:
        return None
    assert solution.status in (SolveStatus.CONVERGED, SolveStatus.BOUNDARY_ONLY)
    return solution.entropy


law_seeds = st.integers(0, 2**32 - 1)
law_picks = st.integers(0, LAW_REGIONS - 1)


class TestLatticeOrderLaws:
    """The lattice laws of condition regions, on Classical(d <= 5) and small polygons."""

    @settings(max_examples=150, deadline=None)
    @given(law_seeds, law_picks, law_picks)
    def test_meet_is_below_both_sides_and_commutes(self, seed, i, j):
        _, regions, _ = law_family(seed)
        a, b = regions[i], regions[j]
        m = meet(a, b)
        assert includes(a, m) and includes(b, m)
        assert region_eq(m, meet(b, a))
        assert region_eq(meet(a, a), a)

    @settings(max_examples=150, deadline=None)
    @given(law_seeds, law_picks, law_picks)
    def test_order_read_through_the_meet(self, seed, i, j):
        _, regions, _ = law_family(seed)
        a, b = regions[i], regions[j]
        assert includes(a, b) == includes(meet(a, b), b)

    @settings(max_examples=150, deadline=None)
    @given(law_seeds, law_picks, law_picks)
    def test_join_is_above_both_sides(self, seed, i, j):
        _, regions, _ = law_family(seed)
        a, b = regions[i], regions[j]
        hull = join(a, b)
        assert includes(hull, a) and includes(hull, b)

    @settings(max_examples=150, deadline=None)
    @given(law_seeds, law_picks, law_picks, law_picks)
    def test_includes_is_transitive(self, seed, i, j, k):
        _, regions, _ = law_family(seed)
        a, b, c = regions[i], regions[j], regions[k]
        if includes(a, b) and includes(b, c):
            assert includes(a, c)

    @settings(max_examples=150, deadline=None)
    @given(law_seeds, law_picks, law_picks)
    def test_entropy_is_antitone_along_includes(self, seed, i, j):
        model, regions, objective = law_family(seed)
        a, b = regions[i], regions[j]
        if not includes(a, b):
            return
        inner = maxent_entropy(model, b, objective)
        if inner is not None:
            outer = maxent_entropy(model, a, objective)
            assert outer is not None
            assert inner <= outer + 1e-6

    @pytest.mark.parametrize("delta", [1.5e-8, 1e-7])
    def test_includes_is_reflexive_on_a_scaled_condition(self, delta):
        # The basis {0, 1} solves the condition with w0 = -delta / 100: not a
        # vertex, and clipped to (0, 1, 0) it misses the condition by delta.
        model = Classical(3)
        b = ConvexRegion(model, (LinearConstraint(model, np.array([0.0, 100.0, 200.0]), 100.0 + delta),))
        assert includes(b, b)

    @pytest.mark.parametrize("scale", [1e4, 2e4])
    @pytest.mark.parametrize("delta", [1.5e-8, 1e-7, 5e-7, 1e-6])
    def test_includes_is_reflexive_at_a_large_scale(self, scale, delta):
        # At this scale lstsq rounding moves a vertex's value by more than 1e-8;
        # the simplex reads the range through the condition's own row.
        model = Classical(3)
        b = ConvexRegion(model, (LinearConstraint(model, scale * np.array([0.0, 1.0, 2.0]), scale + delta),))
        assert includes(b, b)

    @pytest.mark.parametrize("scale", [100.0, 1e4, 2e4])
    @pytest.mark.parametrize("delta", [1.5e-8, 1e-7, 5e-7, 1e-6])
    def test_join_of_a_scaled_condition_is_above_it(self, scale, delta):
        # Every generator of the join meets the condition: the walk keeps only
        # basic solutions that do, where clipping a weight of -delta / scale
        # would move (0, 1, 0) off the plane by delta.
        model = Classical(3)
        b = ConvexRegion(model, (LinearConstraint(model, scale * np.array([0.0, 1.0, 2.0]), scale + delta),))
        hull = join(b, b)
        assert includes(b, hull) and includes(hull, b)

    @pytest.mark.parametrize("delta", [1.5e-8, 1e-7, 5e-7, 1e-6])
    def test_meet_of_a_scaled_parallel_pair_is_below_both(self, delta):
        # The planes lie delta / 100 apart, within the conflict tolerance on a's
        # scale but not on b's, so the meet must keep b's plane.
        model = Classical(3)
        f = np.array([0.0, 1.0, 2.0])
        a = ConvexRegion(model, (LinearConstraint(model, f, 1.0),))
        b = ConvexRegion(model, (LinearConstraint(model, 100.0 * f, 100.0 + delta),))
        # a's residual on b's plane, exactly; at delta = 1e-6 it lies 2.5e-17 inside
        # the tolerance, and the simplex's range of a over b's plane holds it there.
        gap = (Fraction(100.0 + delta) - 100) / 100
        assert gap <= Fraction(FEASIBILITY_TOL)
        for m in (meet(a, b), meet(b, a)):
            assert not m.known_empty and m.h_rep == b.h_rep
            assert includes(b, m)
            assert includes(a, m)

    def test_families_nest(self):
        # The drawn families reach every answer the laws turn on.
        for seed in (1, 2, 4, 5):  # Classical(3), polygons, Classical(4)
            _, regions, _ = law_family(seed)
            whole, flagged, listed, h0, h1, h2, h01, h012, shifted, missed, anchor, other = regions
            for chain in ((whole, h0, h01, h012, anchor), (whole, h1, h01), (whole, h2, h012)):
                assert all(includes(x, y) for x, y in zip(chain, chain[1:]))
            assert not includes(h012, whole) and not includes(anchor, other)
            assert includes(missed, flagged) and includes(flagged, listed)
            assert meet(h0, shifted).known_empty


def enumeration_undecided(outer, inner):
    """Whether rounding can decide ``reference_includes(outer, inner)``.

    So it is when the enumerated vertices and Phase I (``feasibility``) differ
    on whether inner is empty; when the vertices miss one of inner's own
    conditions by more than FEASIBILITY_TOL, the miss read on the scale of an
    outer functional (times its norm over the condition's, if larger); or when
    the vertices' min or max of an outer functional lies within that miss plus
    1e-12 of target -/+ FEASIBILITY_TOL.
    """
    vertices = reference_vertices(inner)
    if (not vertices) != (feasibility(inner).status == FeasibilityStatus.INFEASIBLE):
        return True
    for g in outer.h_rep if vertices else ():
        miss = max(c.residual(v) * max(1.0, g.norm / c.norm) for c in inner.h_rep for v in vertices)
        values = [float(g.functional @ v.coords) - g.target for v in vertices]
        ends = (min(values), max(values))
        if miss > FEASIBILITY_TOL or any(abs(abs(e) - FEASIBILITY_TOL) <= miss + 1e-12 for e in ends):
            return True
    return False


def reference_pair(seed):
    """An H-region inner and a one-condition outer on Classical(2..5) or a polygon of 3..7 vertices.

    Inner holds one or two conditions that a random anchor state meets; the
    first is scaled by 1, 100 or 10^4 and its target nudged by 0 to 1e-6.
    Outer is a combination of inner's conditions and the unit (near-implied),
    a scaled copy of one of them, one of them with a conflicting target, or
    an unrelated functional through the anchor; its target is nudged by 0 to
    1e-6 as well. All sizes stay under the reference enumeration's cap.
    """
    rng = np.random.default_rng(seed)
    if seed % 2:
        model = Classical(int(rng.integers(2, 6)))
    else:
        model = Polytope(rng.standard_normal((int(rng.integers(3, 8)), 2)))
    anchor = random_state(model, rng)
    conditions = []
    for k in range(int(rng.integers(1, 3))):
        f = rng.integers(-2, 3, model.ambient_dim).astype(float)
        f = f if f.any() else model.unit_functional
        scale, nudge = (rng.choice([1.0, 100.0, 1e4]), rng.choice([0.0, 1.5e-8, 1e-7, 1e-6])) if k == 0 else (1.0, 0.0)
        conditions.append(LinearConstraint(model, scale * f, scale * float(f @ anchor.coords) + nudge))
    pick = conditions[int(rng.integers(len(conditions)))]
    kind = int(rng.integers(4))
    if kind == 0:
        coef = rng.integers(-2, 3, len(conditions) + 1).astype(float)
        g = sum(c * k.functional for c, k in zip(coef, conditions)) + coef[-1] * model.unit_functional
        target = sum(c * k.target for c, k in zip(coef, conditions)) + coef[-1]
    elif kind == 1:
        scale = rng.choice([1e-2, 1.0, 100.0])
        g, target = scale * pick.functional, scale * pick.target
    elif kind == 2:
        g, target = pick.functional, pick.target + rng.choice([-0.1, -1e-3, 1e-3])
    else:
        g = rng.standard_normal(model.ambient_dim)
        target = float(g @ anchor.coords)
    if not g.any():
        g, target = model.unit_functional, 1.0
    nudge = rng.choice([0.0, 1e-9, 5e-9, 2e-8, 1e-6])
    outer = ConvexRegion(model, (LinearConstraint(model, g, float(target + nudge)),))
    return outer, ConvexRegion(model, tuple(conditions))


class TestIncludesAgainstEnumeration:
    """``includes`` reads H-ranges from the simplex; ``reference_includes`` reads enumerated vertices."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_agrees_with_the_enumeration_read(self, seed):
        outer, inner = reference_pair(seed)
        for a, b in ((outer, inner), (inner, outer)):
            if not enumeration_undecided(a, b):
                assert includes(a, b) == reference_includes(a, b)

    def test_the_comparison_decides_most_pairs(self):
        decided = {True: 0, False: 0}
        for seed in range(200):
            outer, inner = reference_pair(seed)
            for a, b in ((outer, inner), (inner, outer)):
                if not enumeration_undecided(a, b):
                    decided[reference_includes(a, b)] += 1
        # Seeds 0-199 decide 76 included and 234 excluded pairs of the 400.
        assert decided[True] >= 60 and decided[False] >= 200
