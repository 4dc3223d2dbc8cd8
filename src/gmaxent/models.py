"""Convex operational models: state spaces, effects, and observables.

A model is a triplet (ambient real vector space, positive cone, unit
functional u). States are cone elements with u = 1, effects are linear
functionals with values in [0, 1] on states, and observables are finite
effect families resolving u. Three concrete models are provided:

* ``Classical(d)``: probability vectors on d outcomes; u = all-ones.
* ``Quantum(d)``: density matrices on a d-dimensional Hilbert space, carried
  as d^2 real coordinates in the generalized Gell-Mann basis, which is
  orthonormal under the trace inner product; u is the trace functional.
  The layout is [I/sqrt(d), then (symmetric, antisymmetric) off-diagonal
  generators per pair i < j, then the d - 1 diagonal generators].
  Coordinates and matrices convert by closed index formulas in O(d^2), with
  no stored basis. Born-rule probabilities tr(E rho) become plain dot
  products in these coordinates, which is what lets every model share one
  evaluation path.
* ``Polytope(vertices)``: a finite convex state space. User vertices in R^k
  are embedded homogeneously as (1, v) so that a genuinely linear unit
  functional (1, 0, ..., 0) exists; effects are then affine functions of the
  user coordinates, written as (constant, linear part).

All values are immutable; random generation takes an explicit generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateInput,
    InvalidEffect,
    InvalidObservable,
    InvalidState,
    ModelMismatch,
    NoValues,
    NotAProjection,
    NotOrthogonal,
)
from .hermitian import HermitianMatrix, eig
from .simplex import FEASIBILITY_TOL, phase_one

CLASSICAL = "classical"
QUANTUM = "quantum"
POLYTOPE = "polytope"

_SQRT_HALF = np.sqrt(0.5)

_UNIT_ATOL = 1e-10              # |u(omega) - 1|
_CONE_ATOL = 1e-10              # classical/quantum cone membership slack
_PURITY_ATOL = 1e-8             # |rho^2 - rho| and vertex coincidence
_EFFECT_RANGE_ATOL = 1e-10      # effect spectrum slack outside [0, 1]
_COMPLETENESS_ATOL = 1e-10      # POVM sum-to-unit residual, componentwise
_CLAMP_ATOL = 1e-10             # evaluate() clamps within this of [0, 1]
_PROJECTION_ATOL = 1e-8         # axiom checker: |P^2 - P| and |P_i P_j|
_AXIOM_ATOL = 1e-9              # axiom residual pass threshold
_MIXTURE_WEIGHT_FLOOR = 1e-12   # spectral_mixture drops smaller weights
_EIGENVALUE_MERGE_RTOL = 1e-9   # spectral_observable: one projector per eigenvalue cluster


class ModelSpace:
    """Base model: ambient dimension, unit functional, cone membership."""

    kind: str = ""

    def __init__(self, ambient_dim: int, unit_functional: np.ndarray):
        self.ambient_dim = int(ambient_dim)
        u = np.asarray(unit_functional, dtype=float)
        u.setflags(write=False)
        self.unit_functional = u

    def unit_value(self, coords: np.ndarray) -> float:
        return float(self.unit_functional @ coords)

    def cone_residual(self, coords: np.ndarray) -> float:
        """How far coords sit outside the positive cone (0 when inside)."""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, ModelSpace) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(ambient_dim={self.ambient_dim})"


class Classical(ModelSpace):
    """Finite sample space; states are probability vectors."""

    kind = CLASSICAL

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        super().__init__(dim, np.ones(dim))
        self.dim = int(dim)

    def cone_residual(self, coords):
        return max(0.0, -float(np.min(coords)))

    def _key(self):
        return (CLASSICAL, self.dim)


class Quantum(ModelSpace):
    """Density matrices on C^d, carried as d^2 real coordinates.

    The coordinates are those in the generalized Gell-Mann basis, which is
    orthonormal under the trace inner product: first I/sqrt(d); then, for
    each pair i < j in row-major order, the symmetric and antisymmetric
    off-diagonal generators, coordinates sqrt(2) Re M_ij and sqrt(2) Im M_ij
    of a Hermitian M; last the d - 1 traceless diagonal generators. Both
    conversions use these closed index formulas, so they cost O(d^2) and no
    basis is stored.
    """

    kind = QUANTUM

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        d = self.dim = int(dim)
        i, j = np.triu_indices(d, 1)
        self._upper = i * d + j  # flat indices of M_ij and M_ji, i < j
        self._lower = j * d + i
        self._off = slice(1, d * d - d + 1)
        self._diagonal_coords = np.r_[0, d * d - d + 1 : d * d]
        # Orthogonal map from the diagonal of M to its diagonal coordinates:
        # row 0 is the identity, row l the generator (1, ..., 1, -l, 0, ...).
        g = np.tri(d, k=-1) - np.diag(np.arange(d, dtype=float))
        g[0] = 1.0
        self._diagonal_map = g / np.linalg.norm(g, axis=1)[:, None]
        unit = np.zeros(d * d)
        unit[0] = np.sqrt(d)
        super().__init__(d * d, unit)

    def matrix_to_coords(self, matrix) -> np.ndarray:
        """Coordinates of a d x d matrix; those of its Hermitian part when it is not Hermitian."""
        m = matrix.entries if isinstance(matrix, HermitianMatrix) else np.asarray(matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim} x {self.dim} matrix, got shape {m.shape}")
        f = m.ravel()
        z = f[self._upper]
        z += f[self._lower].conj()
        coords = np.empty(self.ambient_dim)
        # z.view(float) interleaves (Re, Im): the (sym, anti) order of the pairs.
        np.multiply(z.view(float), _SQRT_HALF, out=coords[self._off])
        coords[self._diagonal_coords] = self._diagonal_map.dot(f[:: self.dim + 1].real)
        return coords

    def coords_to_matrix(self, coords: np.ndarray) -> HermitianMatrix:
        c = np.ascontiguousarray(coords, dtype=float)
        if c.shape != (self.ambient_dim,):
            raise ValueError(f"expected {self.ambient_dim} coordinates, got shape {c.shape}")
        z = (c[self._off] * _SQRT_HALF).view(complex)
        raw = np.empty((self.dim, self.dim), dtype=complex)
        f = raw.reshape(-1)
        f[self._upper] = z
        f[self._lower] = z.conj()
        f[:: self.dim + 1] = self._diagonal_map.T.dot(c[self._diagonal_coords])
        return HermitianMatrix(raw)

    def cone_residual(self, coords):
        k = np.linalg.eigvalsh(self.coords_to_matrix(coords).entries)
        return max(0.0, -float(k[0]))

    def _key(self):
        return (QUANTUM, self.dim)


class Polytope(ModelSpace):
    """Convex hull of finitely many points, homogeneously embedded.

    ``vertices`` are the user's points in R^k; states live in R^(k+1) with a
    leading coordinate pinned to 1 by the unit functional.
    """

    kind = POLYTOPE

    def __init__(self, vertices):
        pts = np.atleast_2d(np.asarray(vertices, dtype=float))
        if pts.shape[0] < 1:
            raise ValueError("at least one vertex required")
        self.user_vertices = pts
        emb = np.hstack([np.ones((pts.shape[0], 1)), pts])
        emb.setflags(write=False)
        self.vertices = emb
        unit = np.zeros(pts.shape[1] + 1)
        unit[0] = 1.0
        super().__init__(pts.shape[1] + 1, unit)

    def embed_point(self, point) -> np.ndarray:
        return np.concatenate([[1.0], np.asarray(point, dtype=float)])

    def cone_residual(self, coords):
        # Convex-combination membership: coords = V^T w, w >= 0. The weight
        # sum is forced to 1 by the leading coordinate.
        residual, _ = phase_one(self.vertices.T, coords)
        return residual

    def _key(self):
        return (POLYTOPE, self.vertices.shape, tuple(np.round(self.vertices, 12).ravel()))


@dataclass(frozen=True)
class State:
    """A point of the model's state space: u(coords) = 1, inside the cone."""

    model: ModelSpace
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.model.ambient_dim,):
            raise InvalidState(f"expected {self.model.ambient_dim} coordinates, got {c.shape}")
        if abs(self.model.unit_value(c) - 1.0) > _UNIT_ATOL:
            raise InvalidState(f"unit functional is {self.model.unit_value(c):.12g}, not 1")
        residual = self.model.cone_residual(c)
        tol = FEASIBILITY_TOL if self.model.kind == POLYTOPE else _CONE_ATOL
        if residual > tol:
            raise InvalidState(f"cone membership violated by {residual:.3g}")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def density_matrix(self) -> HermitianMatrix:
        if self.model.kind != QUANTUM:
            raise ModelMismatch("density_matrix is defined for quantum states only")
        return self.model.coords_to_matrix(self.coords)

    def probabilities(self) -> np.ndarray:
        if self.model.kind != CLASSICAL:
            raise ModelMismatch("probabilities is defined for classical states only")
        return self.coords

    def point(self) -> np.ndarray:
        if self.model.kind != POLYTOPE:
            raise ModelMismatch("point is defined for polytope states only")
        return self.coords[1:]


@dataclass(frozen=True)
class Effect:
    """A linear functional with values in [0, 1] on every state.

    Pass ``check=False`` to build a candidate effect without the range check,
    e.g. for validation reports on deliberately broken measurement families.
    """

    model: ModelSpace
    functional: np.ndarray
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        f = np.asarray(self.functional, dtype=float)
        if f.shape != (self.model.ambient_dim,):
            raise InvalidEffect(f"expected {self.model.ambient_dim} components, got {f.shape}")
        f.setflags(write=False)
        object.__setattr__(self, "functional", f)
        if self.check:
            lo, hi = self.range_on_states()
            if lo < -_EFFECT_RANGE_ATOL or hi > 1.0 + _EFFECT_RANGE_ATOL:
                raise InvalidEffect(f"effect range [{lo:.6g}, {hi:.6g}] leaves [0, 1]")

    def range_on_states(self) -> tuple[float, float]:
        """Min and max of the functional over the extreme states."""
        m = self.model
        if m.kind == CLASSICAL:
            return float(np.min(self.functional)), float(np.max(self.functional))
        if m.kind == QUANTUM:
            k = np.linalg.eigvalsh(m.coords_to_matrix(self.functional).entries)
            return float(k[0]), float(k[-1])
        values = m.vertices @ self.functional
        return float(np.min(values)), float(np.max(values))

    def matrix(self) -> HermitianMatrix:
        if self.model.kind != QUANTUM:
            raise ModelMismatch("matrix form is defined for quantum effects only")
        return self.model.coords_to_matrix(self.functional)


def effect_from_matrix(model: Quantum, matrix, check: bool = True) -> Effect:
    return Effect(model, model.matrix_to_coords(matrix), check=check)


def unit_effect(model: ModelSpace) -> Effect:
    return Effect(model, model.unit_functional)


@dataclass(frozen=True)
class Outcome:
    label: str
    effect: Effect
    value: Optional[float] = None


@dataclass(frozen=True)
class Observable:
    """A finite outcome family whose effects sum to the unit functional."""

    model: ModelSpace
    outcomes: tuple[Outcome, ...]
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if not self.outcomes:
            raise InvalidObservable("observable needs at least one outcome")
        for out in self.outcomes:
            if out.effect.model != self.model:
                raise ModelMismatch("outcome effect belongs to a different model")
        if self.check:
            residual = self.completeness_residual()
            if residual > _COMPLETENESS_ATOL:
                raise InvalidObservable(f"effects miss the unit functional by {residual:.3g}")

    def completeness_residual(self) -> float:
        """Elementwise deviation of the effect sum from the unit functional.

        Quantum residuals are reported in matrix form (entries of sum E - I).
        """
        total = np.sum([out.effect.functional for out in self.outcomes], axis=0)
        gap = total - self.model.unit_functional
        if self.model.kind == QUANTUM:
            return float(np.max(np.abs(self.model.coords_to_matrix(gap).entries)))
        return float(np.max(np.abs(gap)))

    def has_values(self) -> bool:
        return all(out.value is not None for out in self.outcomes)

    def values(self) -> np.ndarray:
        if not self.has_values():
            raise NoValues("observable outcomes carry no values")
        return np.array([out.value for out in self.outcomes], dtype=float)


def evaluate(e: Effect, s: State) -> float:
    """Outcome probability of the effect in the state (the Born rule)."""
    if e.model != s.model:
        raise ModelMismatch("effect and state live on different models")
    p = float(e.functional @ s.coords)
    if -_CLAMP_ATOL <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + _CLAMP_ATOL:
        return 1.0
    return p


def mean_value(obs: Observable, s: State) -> float:
    """Sum of outcome values weighted by their probabilities."""
    values = obs.values()
    return float(sum(v * evaluate(out.effect, s) for v, out in zip(values, obs.outcomes)))


@dataclass(frozen=True)
class PovmValidation:
    """Per-condition findings; empty findings means the family is a POVM."""

    completeness_residual: float
    negative_effects: tuple[tuple[int, float], ...]   # (index, min value/eigenvalue)
    above_unit_effects: tuple[tuple[int, float], ...] # (index, max value/eigenvalue)

    @property
    def valid(self) -> bool:
        return not self.issues()

    def issues(self) -> list[str]:
        found = []
        if self.completeness_residual > 0.0:
            found.append(f"completeness residual {self.completeness_residual:.6g}")
        for idx, low in self.negative_effects:
            found.append(f"effect {idx} negative (min {low:.6g})")
        for idx, high in self.above_unit_effects:
            found.append(f"effect {idx} exceeds unit (max {high:.6g})")
        return found


def validate_povm(obs: Observable) -> PovmValidation:
    """Check completeness and the [0, 1] range of every effect, as a report."""
    residual = obs.completeness_residual()
    negative = []
    above = []
    for idx, out in enumerate(obs.outcomes):
        lo, hi = out.effect.range_on_states()
        if lo < -_EFFECT_RANGE_ATOL:
            negative.append((idx, lo))
        if hi > 1.0 + _EFFECT_RANGE_ATOL:
            above.append((idx, hi))
    return PovmValidation(
        completeness_residual=residual if residual > _COMPLETENESS_ATOL else 0.0,
        negative_effects=tuple(negative),
        above_unit_effects=tuple(above),
    )


def pure_state_from_vector(model: Quantum, amplitudes) -> State:
    """Normalize a state vector and return its rank-one density matrix."""
    if model.kind != QUANTUM:
        raise ModelMismatch("pure states from vectors are quantum-only")
    v = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(v)
    if norm < 1e-14:
        raise DegenerateInput("zero amplitude vector")
    v = v / norm
    rho = np.outer(v, v.conj())
    return State(model, model.matrix_to_coords(rho))


def is_pure(s: State) -> bool:
    """True for extreme points of the state space."""
    if s.model.kind == CLASSICAL:
        return bool(np.max(s.coords) >= 1.0 - _PURITY_ATOL)
    if s.model.kind == QUANTUM:
        rho = s.density_matrix().entries
        return bool(np.max(np.abs(rho @ rho - rho)) <= _PURITY_ATOL)
    gaps = np.max(np.abs(s.model.vertices - s.coords), axis=1)
    return bool(np.min(gaps) <= _PURITY_ATOL)


def spectral_mixture(s: State) -> list[tuple[float, State]]:
    """Decompose a quantum state into weighted orthogonal pure states.

    Weights are the eigenvalues above 1e-12, in descending order; the basis
    is not unique for degenerate spectra, only the reconstruction is.
    """
    if s.model.kind != QUANTUM:
        raise ModelMismatch("spectral mixtures are quantum-only")
    decomp = eig(s.density_matrix())
    terms = []
    for i in range(len(decomp.eigenvalues) - 1, -1, -1):
        w = float(decomp.eigenvalues[i])
        if w <= _MIXTURE_WEIGHT_FLOOR:
            continue
        vec = decomp.eigenvectors[:, i]
        terms.append((w, State(s.model, s.model.matrix_to_coords(np.outer(vec, vec.conj())))))
    return terms


@dataclass(frozen=True)
class StateAxiomReport:
    """Residuals of the probability-measure axioms for a quantum state."""

    zero_residual: float
    complement_residuals: tuple[float, ...]
    additivity_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        worst = max((self.zero_residual, self.additivity_residual, *self.complement_residuals))
        return worst <= self.tolerance

    def max_residual(self) -> float:
        return max((self.zero_residual, self.additivity_residual, *self.complement_residuals))


def check_state_axioms(s: State, projections: Sequence[HermitianMatrix]) -> StateAxiomReport:
    """Verify s(0) = 0, s(P) + s(P_perp) = 1, and additivity over the family.

    The supplied family must consist of idempotents and be pairwise
    orthogonal; violations raise rather than report, since they mean the
    question itself is malformed.
    """
    if s.model.kind != QUANTUM:
        raise ModelMismatch("state axioms are stated over quantum projections")
    mats = [p.entries for p in projections]
    for i, p in enumerate(mats):
        if np.max(np.abs(p @ p - p)) > _PROJECTION_ATOL:
            raise NotAProjection(f"operator {i} is not idempotent")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if np.max(np.abs(mats[i] @ mats[j])) > _PROJECTION_ATOL:
                raise NotOrthogonal(f"operators {i} and {j} are not orthogonal")
    rho = s.density_matrix().entries
    prob = lambda p: float(np.trace(rho @ p).real)
    eye = np.eye(s.model.dim)
    zero_res = abs(prob(np.zeros_like(rho)))
    comp = tuple(abs(prob(p) + prob(eye - p) - 1.0) for p in mats)
    if mats:
        total = np.sum(mats, axis=0)
        add_res = abs(prob(total) - sum(prob(p) for p in mats))
    else:
        add_res = 0.0
    return StateAxiomReport(zero_res, comp, add_res, _AXIOM_ATOL)


def maximally_mixed(model: ModelSpace) -> State:
    """The barycentric state: uniform, I/d, or the vertex average."""
    if model.kind == CLASSICAL:
        return State(model, np.full(model.dim, 1.0 / model.dim))
    if model.kind == QUANTUM:
        return State(model, model.matrix_to_coords(np.eye(model.dim) / model.dim))
    return State(model, model.vertices.mean(axis=0))


def spectral_observable(model: Quantum, matrix) -> Observable:
    """Eigenprojector observable of a Hermitian operator, values = eigenvalues."""
    m = matrix if isinstance(matrix, HermitianMatrix) else HermitianMatrix(matrix)
    decomp = eig(m)
    outcomes = []
    i = 0
    k = decomp.eigenvalues
    while i < len(k):
        j = i
        while j + 1 < len(k) and abs(k[j + 1] - k[i]) <= _EIGENVALUE_MERGE_RTOL * max(1.0, abs(k[i])):
            j += 1
        block = decomp.eigenvectors[:, i : j + 1]
        proj = block @ block.conj().T
        outcomes.append(Outcome(label=f"{k[i]:.6g}", effect=effect_from_matrix(model, proj), value=float(k[i])))
        i = j + 1
    return Observable(model, tuple(outcomes))


def indicator_observable(model: Classical, values: Optional[Sequence[float]] = None) -> Observable:
    """One indicator effect per classical outcome, optionally valued."""
    outs = []
    for i in range(model.dim):
        f = np.zeros(model.dim)
        f[i] = 1.0
        v = None if values is None else float(values[i])
        outs.append(Outcome(label=str(i), effect=Effect(model, f), value=v))
    return Observable(model, tuple(outs))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(model: ModelSpace, rng: np.random.Generator) -> State:
    """Full-support sampling for property tests."""
    if model.kind == CLASSICAL:
        p = np.exp(rng.standard_normal(model.dim))
        return State(model, p / p.sum())
    if model.kind == QUANTUM:
        g = rng.standard_normal((model.dim, model.dim)) + 1j * rng.standard_normal((model.dim, model.dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        return State(model, model.matrix_to_coords(rho))
    w = rng.dirichlet(np.ones(model.vertices.shape[0]))
    return State(model, w @ model.vertices)


def random_effect(model: ModelSpace, rng: np.random.Generator) -> Effect:
    if model.kind == CLASSICAL:
        return Effect(model, rng.uniform(0.0, 1.0, model.dim))
    if model.kind == QUANTUM:
        u = random_unitary(model.dim, rng)
        spectrum = rng.uniform(0.0, 1.0, model.dim)
        return effect_from_matrix(model, (u * spectrum) @ u.conj().T)
    raw = rng.standard_normal(model.ambient_dim)
    values = model.vertices @ raw
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        return Effect(model, 0.5 * model.unit_functional)
    return Effect(model, (raw - lo * model.unit_functional) / (hi - lo))


def random_povm(
    model: ModelSpace,
    rng: np.random.Generator,
    n_outcomes: int = 2,
    with_values: bool = False,
) -> Observable:
    """A random valid observable: scaled random effects plus a complement."""
    if n_outcomes < 2:
        raise ValueError("a POVM needs at least two outcomes")
    funcs = [random_effect(model, rng).functional / n_outcomes for _ in range(n_outcomes - 1)]
    funcs.append(model.unit_functional - np.sum(funcs, axis=0))
    outs = []
    for i, f in enumerate(funcs):
        value = float(i) if with_values else None
        outs.append(Outcome(label=str(i), effect=Effect(model, f), value=value))
    return Observable(model, tuple(outs))
