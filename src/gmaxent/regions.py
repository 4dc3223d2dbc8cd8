"""Constraint regions and their lattice.

A condition "the mean of R is r" (or "the probability of effect E is t") cuts
the state space with an affine equality; the region it defines is the kernel
slice intersected with the state space. Regions form a lattice under
intersection (meet), convex hull (join), and inclusion, which is the order
the whole solver pipeline is phrased in: the feasible set of a problem is the
meet of its condition regions.

Regions carry an H-representation (equality constraints) and/or a
V-representation (finite generator lists of states). Exact hull arithmetic is
available for classical and polytope models; quantum regions support joins
only through caller-supplied generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    DegenerateInput,
    InvalidTarget,
    ModelMismatch,
    NoValues,
    NumericalFailure,
    Unsupported,
    UnsupportedRepresentation,
)
from .models import CLASSICAL, POLYTOPE, Effect, ModelSpace, Observable, State, maximally_mixed
from .simplex import phase_one

_CONSTRAINT_ATOL = 1e-8       # generator-vs-constraint residual
_DUPLICATE_RTOL = 1e-10       # normalized-functional duplicate detection
_GENERATOR_DEDUP_ATOL = 1e-8  # pairwise distance for v-rep dedup
_VERTEX_NONNEG_ATOL = 1e-9    # BFS weight nonnegativity slack
_ENUMERATION_CAP = 12         # constraint count + ambient dim limit


@dataclass(frozen=True)
class LinearConstraint:
    """functional . x = target, to be intersected with the state space."""

    model: ModelSpace
    functional: np.ndarray
    target: float

    def __post_init__(self):
        f = np.asarray(self.functional, dtype=float)
        if f.shape != (self.model.ambient_dim,):
            raise ValueError(f"expected {self.model.ambient_dim} components, got {f.shape}")
        if np.max(np.abs(f)) == 0.0:
            raise DegenerateInput("constraint functional is the zero vector")
        f.setflags(write=False)
        object.__setattr__(self, "functional", f)
        object.__setattr__(self, "target", float(self.target))

    def residual(self, s: State) -> float:
        return abs(float(self.functional @ s.coords) - self.target)


@dataclass(frozen=True)
class ConvexRegion:
    """A convex subset of the state space, C = (affine slice) . Omega.

    ``h_rep`` lists affine equality constraints; ``v_rep``, when present, is a
    finite generator list whose hull is the region. When both are present the
    generators must satisfy the constraints. ``known_empty`` marks regions
    proven empty by cheap contradiction checks.
    """

    model: ModelSpace
    h_rep: tuple[LinearConstraint, ...] = ()
    v_rep: Optional[tuple[State, ...]] = None
    known_empty: bool = False

    def __post_init__(self):
        object.__setattr__(self, "h_rep", tuple(self.h_rep))
        for c in self.h_rep:
            if c.model != self.model:
                raise ModelMismatch("constraint belongs to a different model")
        if self.v_rep is not None:
            object.__setattr__(self, "v_rep", tuple(self.v_rep))
            for s in self.v_rep:
                if s.model != self.model:
                    raise ModelMismatch("generator belongs to a different model")
                for c in self.h_rep:
                    if c.residual(s) > _CONSTRAINT_ATOL:
                        raise ValueError("v_rep generator violates an h_rep constraint")

    def is_whole_space(self) -> bool:
        return not self.h_rep and self.v_rep is None and not self.known_empty

    def residuals(self, s: State) -> np.ndarray:
        return np.array([c.residual(s) for c in self.h_rep])

    def contains(self, s: State) -> bool:
        """Membership test; uses the hull when generators are the definition."""
        if s.model != self.model:
            raise ModelMismatch("state belongs to a different model")
        if self.known_empty:
            return False
        if self.v_rep is not None:
            return _in_hull(self.v_rep, s)
        return all(c.residual(s) <= _CONSTRAINT_ATOL for c in self.h_rep)


def whole_space(model: ModelSpace) -> ConvexRegion:
    return ConvexRegion(model)


def region_from_mean(obs: Observable, r: float) -> ConvexRegion:
    """States where the observable's mean value equals r.

    The stored form is (sum_i value_i * effect_i) . x = r; infeasible targets
    are representable and detected later by feasibility().
    """
    if not obs.has_values():
        raise NoValues("mean-value region needs outcome values")
    functional = np.sum(
        [out.value * out.effect.functional for out in obs.outcomes], axis=0
    )
    return ConvexRegion(obs.model, (LinearConstraint(obs.model, functional, float(r)),))


def region_from_effect(e: Effect, lam: float) -> ConvexRegion:
    """States assigning probability lam to the effect.

    This is the same constraint type as a mean-value condition; probabilities
    and mean values enter the solver through one code path.
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidTarget(f"effect probability target {lam} outside [0, 1]")
    return ConvexRegion(e.model, (LinearConstraint(e.model, e.functional, float(lam)),))


def affine_hull_constraints(model: ModelSpace, generators: tuple[State, ...]) -> tuple[LinearConstraint, ...]:
    """Equality constraints cutting out the affine hull of the generators."""
    if not generators:
        raise DegenerateInput("affine hull of an empty generator list")
    pts = np.stack([s.coords for s in generators])
    center = pts.mean(axis=0)
    diffs = pts - center
    _, sing, vt = np.linalg.svd(diffs, full_matrices=True)
    scale = sing[0] if sing.size and sing[0] > 0 else 1.0
    rank = int(np.sum(sing > 1e-12 * max(1.0, scale)))
    normals = vt[rank:]
    constraints = []
    for n in normals:
        constraints.append(LinearConstraint(model, n, float(n @ center)))
    return tuple(constraints)


def _effective_h_rep(region: ConvexRegion) -> tuple[LinearConstraint, ...]:
    if region.h_rep or region.v_rep is None:
        return region.h_rep
    if not region.v_rep:
        return ()
    return affine_hull_constraints(region.model, region.v_rep)


def _dedup_constraints(constraints: tuple[LinearConstraint, ...]) -> tuple[tuple[LinearConstraint, ...], bool]:
    """Drop positive rescalings of kept constraints; flag target conflicts."""
    kept: list[LinearConstraint] = []
    normalized: list[tuple[np.ndarray, float]] = []
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


def meet(a: ConvexRegion, b: ConvexRegion) -> ConvexRegion:
    """Lattice meet = set intersection, on H-representations."""
    if a.model != b.model:
        raise ModelMismatch("regions live on different models")
    merged = _effective_h_rep(a) + _effective_h_rep(b)
    if a.known_empty or b.known_empty:
        return ConvexRegion(a.model, merged, None, True)
    kept, empty = _dedup_constraints(merged)
    return ConvexRegion(a.model, kept, None, empty)


def _generators(region: ConvexRegion) -> tuple[State, ...]:
    if region.known_empty:
        return ()
    if region.v_rep is not None:
        return region.v_rep
    if region.model.kind in (CLASSICAL, POLYTOPE):
        return tuple(enumerate_vertices(region))
    raise UnsupportedRepresentation(
        "quantum region has no generator list; joins and inclusions need caller-supplied V-reps"
    )


def join(a: ConvexRegion, b: ConvexRegion) -> ConvexRegion:
    """Lattice join = convex hull, on V-representations."""
    if a.model != b.model:
        raise ModelMismatch("regions live on different models")
    gens = list(_generators(a)) + list(_generators(b))
    unique: list[State] = []
    for g in gens:
        if all(np.max(np.abs(g.coords - u.coords)) >= _GENERATOR_DEDUP_ATOL for u in unique):
            unique.append(g)
    return ConvexRegion(a.model, (), tuple(unique), known_empty=not unique)


def _in_hull(generators: tuple[State, ...], s: State) -> bool:
    if not generators:
        return False
    v = np.stack([g.coords for g in generators])
    a = np.vstack([v.T, np.ones((1, len(generators)))])
    b = np.concatenate([s.coords, [1.0]])
    _, w = phase_one(a, b)
    return w is not None


def _constraint_is_trivial(c: LinearConstraint) -> bool:
    """True when the constraint holds on the entire state space (f = a*u, target a)."""
    u = c.model.unit_functional
    u_hat = u / np.linalg.norm(u)
    alpha = float(c.functional @ u_hat) / float(np.linalg.norm(u))
    residual = c.functional - alpha * u
    return (
        np.max(np.abs(residual)) <= 1e-10 * max(1.0, float(np.max(np.abs(c.functional))))
        and abs(c.target - alpha) <= 1e-10 * max(1.0, abs(alpha))
    )


def includes(outer: ConvexRegion, inner: ConvexRegion) -> bool:
    """Partial order: every generator of inner lies in outer."""
    if outer.model != inner.model:
        raise ModelMismatch("regions live on different models")
    if outer.is_whole_space():
        return True
    if inner.is_whole_space() and outer.v_rep is None and not outer.known_empty:
        # The full state space fits under an H-rep only if every cut is trivial.
        return all(_constraint_is_trivial(c) for c in outer.h_rep)
    gens = _generators(inner)
    if not gens:
        return True
    if outer.known_empty:
        return False
    if not all(c.residual(g) <= _CONSTRAINT_ATOL for g in gens for c in outer.h_rep):
        return False
    if outer.v_rep is not None:
        return all(_in_hull(outer.v_rep, g) for g in gens)
    return True


class FeasibilityStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    BOUNDARY_ONLY = "boundary_only"


@dataclass(frozen=True)
class FeasibilityResult:
    status: FeasibilityStatus
    witness: Optional[State] = None


def _weight_system(model: ModelSpace, constraints) -> tuple[np.ndarray, np.ndarray]:
    """Equality system over the mixing weights of the model's extreme states.

    Row 0 makes the weights sum to one; row i + 1 is constraint i applied to
    the mixture. Classical extreme states are the unit vectors, so there the
    weights are the coordinates and the rows are the functionals themselves.
    """
    funcs = np.array([c.functional for c in constraints]).reshape(len(constraints), model.ambient_dim)
    rows = _weight_rows(model, funcs)
    a = np.vstack([np.ones(rows.shape[1]), rows])
    b = np.array([1.0] + [c.target for c in constraints])
    return a, b


def _weight_rows(model: ModelSpace, funcs: np.ndarray) -> np.ndarray:
    """Linear functionals on coordinates, read as functionals on mixing weights."""
    return funcs if model.kind == CLASSICAL else (model.vertices @ funcs.T).T


def _weights_to_coords(model: ModelSpace, w: np.ndarray) -> np.ndarray:
    """Coordinates of the mixture with weights w over the extreme states."""
    return w if model.kind == CLASSICAL else w @ model.vertices


def _state_from_weights(model: ModelSpace, w: np.ndarray) -> State:
    w = np.maximum(w, 0.0)
    return State(model, _weights_to_coords(model, w / w.sum()))


def feasibility(c: ConvexRegion) -> FeasibilityResult:
    """Decide emptiness; exact LP for classical/polytope, dual probe for quantum."""
    if c.known_empty:
        return FeasibilityResult(FeasibilityStatus.INFEASIBLE)
    if c.v_rep is not None:
        if c.v_rep:
            return FeasibilityResult(FeasibilityStatus.FEASIBLE, c.v_rep[0])
        return FeasibilityResult(FeasibilityStatus.INFEASIBLE)
    if not c.h_rep:
        return FeasibilityResult(FeasibilityStatus.FEASIBLE, maximally_mixed(c.model))
    if c.model.kind in (CLASSICAL, POLYTOPE):
        a, b = _weight_system(c.model, c.h_rep)
        _, w = phase_one(a, b)
        if w is None:
            return FeasibilityResult(FeasibilityStatus.INFEASIBLE)
        return FeasibilityResult(FeasibilityStatus.FEASIBLE, _state_from_weights(c.model, w))
    # Quantum: probe with the exponential-family dual; import here to keep the
    # module dependency one-directional at import time.
    from .solver import MaxEntProblem, SolveStatus, VonNeumann, solve_dual

    solution = solve_dual(MaxEntProblem(c.model, c, VonNeumann()))
    if solution.status == SolveStatus.CONVERGED:
        return FeasibilityResult(FeasibilityStatus.FEASIBLE, solution.state)
    if solution.status == SolveStatus.BOUNDARY_ONLY:
        return FeasibilityResult(FeasibilityStatus.BOUNDARY_ONLY, solution.state)
    if solution.status == SolveStatus.INFEASIBLE:
        return FeasibilityResult(FeasibilityStatus.INFEASIBLE)
    raise NumericalFailure("dual probe did not converge; feasibility undecided")


def enumerate_vertices(c: ConvexRegion) -> list[State]:
    """Vertices of the constrained mixing-weight polytope, mapped to states.

    Enumerates basic feasible solutions of {w >= 0, sum w = 1, constraints}.
    For polytope models with affinely dependent vertices the images may
    include non-extreme states; they are valid hull generators either way.
    """
    if c.model.kind not in (CLASSICAL, POLYTOPE):
        raise Unsupported("vertex enumeration is exact for classical/polytope models only")
    if c.known_empty:
        return []
    if len(c.h_rep) + c.model.ambient_dim > _ENUMERATION_CAP:
        raise Unsupported(f"constraint count + ambient dim exceeds the enumeration cap {_ENUMERATION_CAP}")
    a, b = _weight_system(c.model, c.h_rep)
    n = a.shape[1]
    rank = int(np.linalg.matrix_rank(a, tol=1e-11))
    scale = max(1.0, float(np.max(np.abs(b))))
    found: list[State] = []
    for cols in itertools.combinations(range(n), rank):
        sub = a[:, cols]
        if np.linalg.matrix_rank(sub, tol=1e-11) < rank:
            continue
        w_sub, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.max(np.abs(sub @ w_sub - b)) > 1e-9 * scale:
            continue
        if np.min(w_sub) < -_VERTEX_NONNEG_ATOL:
            continue
        w = np.zeros(n)
        w[list(cols)] = w_sub
        state = _state_from_weights(c.model, w)
        if all(np.max(np.abs(state.coords - u.coords)) >= _GENERATOR_DEDUP_ATOL for u in found):
            found.append(state)
    return found
