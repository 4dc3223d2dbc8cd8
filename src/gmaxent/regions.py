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
from dataclasses import dataclass, field
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
from .models import _equal_by_value, _read_only, _sealed, _state_range
from .simplex import FEASIBILITY_TOL, feasible_basis, phase_one

_DUPLICATE_RTOL = 1e-10       # normalized-functional duplicate detection
_SCREEN_BLOCK = 1 << 20       # max entries of one duplicate-screen broadcast block
_GENERATOR_DEDUP_ATOL = 1e-8  # pairwise distance for v-rep dedup


@dataclass(frozen=True)
class LinearConstraint:
    """functional . x = target, to be intersected with the state space.

    ``norm``, the functional's 2-norm, is taken once here (sqrt(f . f), bitwise
    ``np.linalg.norm``); ``meet`` and the solver's rank filter read it. The
    functional is kept read-only; a caller's writeable array is copied first.
    """

    model: ModelSpace
    functional: np.ndarray
    target: float
    norm: float = field(init=False, compare=False, repr=False)

    __eq__ = _equal_by_value

    def __post_init__(self):
        f = _read_only(self.functional)
        if f.shape != (self.model.ambient_dim,):
            raise ValueError(f"expected {self.model.ambient_dim} components, got {f.shape}")
        if not (np.isfinite(f).all() and np.isfinite(self.target)):
            raise ValueError("constraint functional and target must be finite")
        norm = float(np.sqrt(f @ f))
        if norm == 0.0:
            raise DegenerateInput("constraint functional is the zero vector")
        object.__setattr__(self, "functional", f)
        object.__setattr__(self, "target", float(self.target))
        object.__setattr__(self, "norm", norm)

    def residual(self, s: State) -> float:
        return abs(float(self.functional @ s.coords) - self.target)


@dataclass(frozen=True)
class ConvexRegion:
    """A convex subset of the state space, C = (affine slice) . Omega.

    ``h_rep`` lists affine equality constraints; ``v_rep``, when present, is a
    finite generator list whose hull is the region. When both are present the
    generators must satisfy the constraints. ``known_empty`` marks regions
    proven empty by cheap contradiction checks, and an empty generator list.
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
            if not self.v_rep:
                object.__setattr__(self, "known_empty", True)
            for s in self.v_rep:
                if s.model != self.model:
                    raise ModelMismatch("generator belongs to a different model")
                for c in self.h_rep:
                    if c.residual(s) > FEASIBILITY_TOL:
                        raise ValueError("v_rep generator violates an h_rep constraint")

    def is_whole_space(self) -> bool:
        return not self.h_rep and self.v_rep is None and not self.known_empty

    def residuals(self, s: State) -> np.ndarray:
        return np.array([c.residual(s) for c in self.h_rep])


def whole_space(model: ModelSpace) -> ConvexRegion:
    return ConvexRegion(model)


def region_from_mean(obs: Observable, r: float) -> ConvexRegion:
    """States where the observable's mean value equals r.

    The stored form is (sum_i value_i * effect_i) . x = r; infeasible targets
    are representable, and ``solve`` reports them INFEASIBLE with a certificate.
    """
    if not obs.has_values():
        raise NoValues("mean-value region needs outcome values")
    functional = np.sum(
        [out.value * out.effect.functional for out in obs.outcomes], axis=0
    )
    return ConvexRegion(obs.model, (LinearConstraint(obs.model, _sealed(functional), float(r)),))


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
    _, sing, vt = np.linalg.svd(pts - center, full_matrices=True)
    scale = sing[0] if sing.size and sing[0] > 0 else 1.0
    rank = int(np.sum(sing > 1e-12 * max(1.0, scale)))
    return tuple(LinearConstraint(model, n, float(n @ center)) for n in _sealed(vt[rank:]))


def _effective_h_rep(region: ConvexRegion) -> tuple[LinearConstraint, ...]:
    if region.h_rep or not region.v_rep:
        return region.h_rep
    return affine_hull_constraints(region.model, region.v_rep)


def _dedup_constraints(constraints: tuple[LinearConstraint, ...]) -> tuple[tuple[LinearConstraint, ...], bool]:
    """Keep one of each set of positive rescalings; flag target conflicts.

    A constraint duplicates each kept one whose functional, both divided by
    their stored 2-norms (``LinearConstraint.norm``), lies within
    ``_DUPLICATE_RTOL`` in max-abs. The region is empty when the one of a pair
    with smaller norm misses the other's plane by over ``FEASIBILITY_TOL``, as
    ``includes`` reads a miss; otherwise the larger norm stays (the kept one on a
    tie), so the meet lies inside both sides. Kept ones never duplicate each
    other, so a chain of meets keeps what one meet of all its conditions keeps.
    Pairs are screened on every max(1, n // 64)-th coordinate first. The
    sampled entries are bitwise the quotients the full test compares, and a
    max over a subset is at most the max over all, so every duplicate passes
    the screen and the result is that of testing all pairs in full.
    """
    k = len(constraints)
    if k < 2:
        return tuple(constraints), False
    norms = [c.norm for c in constraints]
    stride = max(1, constraints[0].functional.size // 64)
    sample = np.array([c.functional[::stride] / norm for c, norm in zip(constraints, norms)])
    rows = max(1, _SCREEN_BLOCK // sample.size)  # bounds the broadcast's memory
    close = np.concatenate([
        np.max(np.abs(sample[i:i + rows, None] - sample), axis=2) <= _DUPLICATE_RTOL
        for i in range(0, k, rows)
    ])
    # Only rows with a screened partner are normalized in full.
    unit = {i: constraints[i].functional / norms[i] for i in np.flatnonzero(close.sum(axis=1) > 1)}
    kept = np.ones(k, dtype=bool)
    empty = False
    # argmax is each row's first screened partner; only rows whose first
    # partner comes before them can be duplicates.
    for i in np.flatnonzero(close.argmax(axis=1) < np.arange(k)):
        screened = np.flatnonzero(close[i, :i] & kept[:i])
        partners = [j for j in screened if np.max(np.abs(unit[i] - unit[j])) <= _DUPLICATE_RTOL]
        for j in partners:
            tn, sn = constraints[i].target / norms[i], constraints[j].target / norms[j]
            empty |= min(norms[i], norms[j]) * abs(tn - sn) > FEASIBILITY_TOL
        if partners:
            kept[[i] if max(norms[j] for j in partners) >= norms[i] else partners] = False
    return tuple(itertools.compress(constraints, kept)), empty


def meet(a: ConvexRegion, b: ConvexRegion) -> ConvexRegion:
    """Lattice meet = set intersection, on H-representations.

    Duplicates are dropped on every meet, also when a side is known empty,
    so a chain of meets keeps what one meet of all its conditions keeps. A
    generator region enters through its affine hull: exact for one point, an
    outer approximation for more (on Classical(3), hull{(.5, .5, 0), (.25,
    .75, 0)} met with itself is the whole edge x3 = 0).
    """
    if a.model != b.model:
        raise ModelMismatch("regions live on different models")
    kept, empty = _dedup_constraints(_effective_h_rep(a) + _effective_h_rep(b))
    return ConvexRegion(a.model, kept, None, empty or a.known_empty or b.known_empty)


def _generators(region: ConvexRegion) -> tuple[State, ...]:
    if region.known_empty:
        return ()
    if region.v_rep is not None:
        return region.v_rep
    if region.model.kind in (CLASSICAL, POLYTOPE):
        return tuple(enumerate_vertices(region))
    raise UnsupportedRepresentation("quantum region has no generator list; joins and inclusions need given generators")


def join(a: ConvexRegion, b: ConvexRegion) -> ConvexRegion:
    """Lattice join = convex hull, on V-representations."""
    if a.model != b.model:
        raise ModelMismatch("regions live on different models")
    unique = _dedup_generators(_generators(a) + _generators(b))
    return ConvexRegion(a.model, (), unique)


def _dedup_generators(states) -> list[State]:
    """states in order, less each one within _GENERATOR_DEDUP_ATOL in max-abs of an earlier kept one."""
    coords = np.array([s.coords for s in states])
    kept = np.zeros(len(states), dtype=bool)
    for i, x in enumerate(coords):
        kept[i] = not (kept[:i] & (np.abs(coords[:i] - x).max(axis=1) < _GENERATOR_DEDUP_ATOL)).any()
    return list(itertools.compress(states, kept))


def _in_hull(generators: tuple[State, ...], s: State) -> bool:
    """Whether s mixes the generators; every state's unit value is 1, so the weights sum to one."""
    _, w = phase_one(np.stack([g.coords for g in generators]).T, s.coords)
    return w is not None


def _lp_range(basis, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> list[float]:
    """Min and max of w . x over {x >= 0 : a x = b} from a feasible basis: y . b for w's part y . a,
    constant there, plus Phase II on the rest, whose reduced-cost floor, relative to the largest cost,
    then scales with what varies: on w itself, 10^6 and nearly constant, it would be 1e-7 > 1e-8."""
    y = np.linalg.lstsq(a.T, w, rcond=None)[0]
    return [y @ b + basis.optimize(w - y @ a, maximize=m).value for m in (False, True)]


def includes(outer: ConvexRegion, inner: ConvexRegion) -> bool:
    """Partial order, inner within outer: one rule for every inner.

    An empty inner lies in everything, and nothing else in a known-empty
    outer. Each outer constraint's min and max over inner must lie within
    FEASIBILITY_TOL of its target: its state range over the whole space, its
    generators' values, or over a classical or polytope H-region its
    ``_lp_range`` from one Phase I basis of the weight system, as Frank-Wolfe
    takes (Phase I failing: inner is empty). A generator outer must also hold
    inner's generators in its hull.
    """
    if outer.model != inner.model:
        raise ModelMismatch("regions live on different models")
    if outer.is_whole_space():
        return True
    model = inner.model
    if inner.is_whole_space():
        values = lambda f: _state_range(model, f)
    elif inner.v_rep is None and not inner.known_empty and model.kind in (CLASSICAL, POLYTOPE):
        a, b = _weight_system(model, inner.h_rep)
        basis = feasible_basis(a, b)
        if basis is None:
            return True
        values = lambda f: _lp_range(basis, a, b, _weight_rows(model, f[None])[0])
    else:
        gens = _generators(inner)
        if not gens:
            return True
        values = lambda f: [f @ g.coords for g in gens]
    if outer.known_empty:
        return False
    for c in outer.h_rep:
        if max(abs(v - c.target) for v in values(c.functional)) > FEASIBILITY_TOL:
            return False
    return outer.v_rep is None or all(_in_hull(outer.v_rep, g) for g in _generators(inner))


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
    rows = _weight_rows(model, _functional_matrix(model, constraints))
    a = np.vstack([np.ones(rows.shape[1]), rows])
    b = np.array([1.0] + [c.target for c in constraints])
    return a, b


def _functional_matrix(model: ModelSpace, constraints) -> np.ndarray:
    """The constraints' functionals as the rows of one (m, ambient_dim) array."""
    return np.array([c.functional for c in constraints]).reshape(len(constraints), model.ambient_dim)


def _weight_rows(model: ModelSpace, funcs: np.ndarray) -> np.ndarray:
    """Linear functionals on coordinates, read as functionals on mixing weights."""
    return funcs if model.kind == CLASSICAL else (model.vertices @ funcs.T).T


def _weights_to_coords(model: ModelSpace, w: np.ndarray) -> np.ndarray:
    """Coordinates of the mixture with weights w over the extreme states."""
    return w if model.kind == CLASSICAL else w @ model.vertices


def _state_from_weights(model: ModelSpace, w: np.ndarray) -> State:
    """The state of mixing weights w >= 0, a ``Basis.x()``, rescaled to sum to one."""
    w = w / w.sum()
    return State(model, _sealed(_weights_to_coords(model, w)), weights=w if model.kind == POLYTOPE else None)


def feasibility(c: ConvexRegion) -> FeasibilityResult:
    """Decide emptiness; exact LP for classical/polytope, dual probe for quantum."""
    if c.known_empty:
        return FeasibilityResult(FeasibilityStatus.INFEASIBLE)
    if c.v_rep is not None:
        return FeasibilityResult(FeasibilityStatus.FEASIBLE, c.v_rep[0])
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

    Walks the bases of {w >= 0, sum w = 1, constraints} from a Phase I basis
    and keeps the states that meet every condition within FEASIBILITY_TOL (a
    tied pivot can reach a weight of -1e-11, which clipping moves off a scaled
    condition). For polytope models with affinely dependent vertices the
    images may include non-extreme states, valid hull generators either way.
    """
    if c.model.kind not in (CLASSICAL, POLYTOPE):
        raise Unsupported("vertex enumeration is exact for classical/polytope models only")
    basis = None if c.known_empty else feasible_basis(*_weight_system(c.model, c.h_rep))
    if basis is None:
        return []
    states = [_state_from_weights(c.model, w) for w in basis.basic_solutions()]
    return _dedup_generators([s for s in states if all(k.residual(s) <= FEASIBILITY_TOL for k in c.h_rep)])
