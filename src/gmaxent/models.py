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

import functools
from dataclasses import InitVar, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import (
    InvalidEffect,
    InvalidObservable,
    InvalidState,
    ModelMismatch,
    NotAProjection,
    NotOrthogonal,
    NumericalFailure,
)
from .hermitian import HermitianMatrix, _eigh
from .simplex import FEASIBILITY_TOL, phase_one

CLASSICAL = "classical"
QUANTUM = "quantum"
POLYTOPE = "polytope"

_SQRT_HALF = np.sqrt(0.5)

_UNIT_ATOL = 1e-10              # normalization: how far u(omega), a weight sum or a POVM sum may miss u
_RANGE_ATOL = 1e-10             # positivity: how far a value over the states may leave its range (cone, [0, 1])
_PROJECTION_ATOL = 1e-8         # axiom checker: |P^2 - P| and |P_i P_j|
_AXIOM_ATOL = 1e-9              # axiom residual pass threshold
_EIGENVALUE_MERGE_RTOL = 1e-9   # spectral_observable: one projector per eigenvalue cluster
_EIGH_CHECK_TOL = 1e-10         # spectral_observable: |U diag(k) U^dagger - A| / (1 + max|k|) and |U^dagger U - I|


def _read_only(values) -> np.ndarray:
    """values as a read-only float array; only a writeable array of the caller's is copied first."""
    a = np.asarray(values, dtype=float)
    a = a.copy() if a is values and a.flags.writeable else a
    a.setflags(write=False)
    return a


def _sealed(a: np.ndarray) -> np.ndarray:
    """a, built for a new object, made read-only so that the object keeps it uncopied."""
    a.setflags(write=False)
    return a


def _equal_by_value(a, b):
    """== for a dataclass that holds arrays: its compared fields equal, arrays entry by entry."""
    if type(b) is not type(a):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare)
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


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
        """How far coords sit outside the positive cone (0 when inside): minus their least value as a functional.

        The classical and quantum cones are self-dual in these coordinates, so a point is in the cone exactly
        when its functional is nonnegative on every state; ``Polytope`` overrides this with a Phase I LP.
        Coordinates with a NaN give NaN, which fails every ``<= tol`` test.
        """
        least = _state_range(self, coords)[0]
        return 0.0 if least >= 0.0 else -least

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, ModelSpace) and self._key() == other._key())

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

    def _key(self):
        return (CLASSICAL, self.dim)


@functools.lru_cache(maxsize=16)
def _quantum_tables(d: int) -> tuple[np.ndarray, ...]:
    """Read-only index tables, diagonal map and unit functional of Quantum(d)."""
    i, j = np.triu_indices(d, 1)
    upper = i * d + j  # flat indices of M_ij and M_ji, i < j
    lower = j * d + i
    diagonal_coords = np.r_[0, d * d - d + 1 : d * d]
    # Orthogonal map from the diagonal of M to its diagonal coordinates:
    # row 0 is the identity, row l the generator (1, ..., 1, -l, 0, ...).
    g = np.tri(d, k=-1) - np.diag(np.arange(d, dtype=float))
    g[0] = 1.0
    diagonal_map = g / np.linalg.norm(g, axis=1)[:, None]
    unit = np.zeros(d * d)
    unit[0] = np.sqrt(d)
    tables = (upper, lower, diagonal_coords, diagonal_map, unit)
    for table in tables:
        table.setflags(write=False)
    return tables


class Quantum(ModelSpace):
    """Density matrices on C^d, carried as d^2 real coordinates.

    The coordinates are those in the generalized Gell-Mann basis, which is
    orthonormal under the trace inner product: first I/sqrt(d); then, for
    each pair i < j in row-major order, the symmetric and antisymmetric
    off-diagonal generators, coordinates sqrt(2) Re M_ij and sqrt(2) Im M_ij
    of a Hermitian M; last the d - 1 traceless diagonal generators. Both
    conversions use these closed index formulas, so they cost O(d^2) and no
    basis is stored; the index tables are built once per dimension and shared.
    """

    kind = QUANTUM

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        d = self.dim = int(dim)
        self._upper, self._lower, self._diagonal_coords, self._diagonal_map, unit = _quantum_tables(d)
        self._off = slice(1, d * d - d + 1)
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
        c = np.asarray(coords, dtype=float)
        if c.shape != (self.ambient_dim,):
            raise ValueError(f"expected {self.ambient_dim} coordinates, got shape {c.shape}")
        return HermitianMatrix._exact(self.coords_to_matrices(c[None])[0])

    def coords_to_matrices(self, coords: np.ndarray) -> np.ndarray:
        """The matrices of an (m, d^2) stack of coordinate rows, as one (m, d, d) complex array."""
        c = np.ascontiguousarray(coords, dtype=float)
        if c.ndim != 2 or c.shape[1] != self.ambient_dim:
            raise ValueError(f"expected rows of {self.ambient_dim} coordinates, got shape {c.shape}")
        z = (c[:, self._off] * _SQRT_HALF).view(complex)
        raw = np.empty((len(c), self.dim, self.dim), dtype=complex)
        f = raw.reshape(len(c), self.ambient_dim)
        f[:, self._upper] = z
        f[:, self._lower] = z.conj()
        f[:, :: self.dim + 1] = c[:, self._diagonal_coords] @ self._diagonal_map
        return raw

    def _key(self):
        return (QUANTUM, self.dim)


class Polytope(ModelSpace):
    """Convex hull of finitely many points, homogeneously embedded.

    The constructor takes a list of points in R^k, one per row (a flat list
    is rejected, not read as one point); ``vertices`` is a read-only copy of
    them embedded in R^(k+1), where states live, with a leading coordinate
    pinned to 1 by the unit functional.
    """

    kind = POLYTOPE

    def __init__(self, vertices):
        pts = np.asarray(vertices, dtype=float)
        if pts.size == 0:
            raise ValueError("at least one vertex required")
        if pts.ndim != 2:
            raise ValueError(f"vertices must be a list of points, got a {pts.ndim}-D array")
        if not np.isfinite(pts).all():
            raise ValueError("vertex coordinates must be finite")
        emb = np.hstack([np.ones((pts.shape[0], 1)), pts])
        emb.setflags(write=False)
        self.vertices = emb
        self._vertex_key = (POLYTOPE, emb.shape, tuple(np.round(emb, 12).ravel()))
        unit = np.zeros(pts.shape[1] + 1)
        unit[0] = 1.0
        super().__init__(pts.shape[1] + 1, unit)

    def embed_point(self, point) -> np.ndarray:
        return np.concatenate([[1.0], np.asarray(point, dtype=float)])

    def cone_residual(self, coords):
        """Phase I residual of coords = V^T w, w >= 0 (the leading coordinate forces sum w = 1).

        This LP searches for mixing weights; a caller that already holds them
        passes them to ``State``, which checks them instead. Coordinates with a NaN give NaN.
        """
        if np.isnan(coords).any():
            return np.nan
        residual, _ = phase_one(self.vertices.T, coords)
        return residual

    def _key(self):
        return self._vertex_key


@dataclass(frozen=True)
class State:
    """A point of the model's state space: u(coords) = 1, inside the cone.

    A caller that built it from a certificate of cone membership passes it
    to be checked instead; it is not stored. A polytope state's is ``weights``
    w with coords = w @ V, V the embedded vertices, checked in O(nk): each
    weight at least -1e-8, their sum within 1e-10 of 1, their mixture within
    1e-8 of coords in every coordinate. A quantum state's is ``factor`` B with
    rho = B B^H, checked in O(d^3): coords lie within 1e-10 in 2-norm (the
    Frobenius norm of the matrix gap) of those of B B^H >= 0, so rho's least
    eigenvalue is at least -1e-10 by Weyl's inequality. Without one,
    ``cone_residual`` tests membership: a Phase I LP, or the state range. The
    coordinates are kept read-only; a caller's writeable array is copied first.
    """

    model: ModelSpace
    coords: np.ndarray
    weights: InitVar[Optional[np.ndarray]] = field(default=None, kw_only=True)
    factor: InitVar[Optional[np.ndarray]] = field(default=None, kw_only=True)

    __eq__ = _equal_by_value

    def __post_init__(self, weights, factor):
        c = _read_only(self.coords)
        if c.shape != (self.model.ambient_dim,):
            raise InvalidState(f"expected {self.model.ambient_dim} coordinates, got {c.shape}")
        # 0 * nan and 0 * inf are nan, so a coordinate that is not finite fails the unit test.
        if not abs(self.model.unit_value(c) - 1.0) <= _UNIT_ATOL:
            raise InvalidState(f"unit functional is {self.model.unit_value(c):.12g}, not 1")
        if weights is not None or factor is not None:
            _check_certificate(self.model, c, weights, factor)
        else:
            residual = self.model.cone_residual(c)
            tol = FEASIBILITY_TOL if self.model.kind == POLYTOPE else _RANGE_ATOL
            if residual > tol:
                raise InvalidState(f"cone membership violated by {residual:.3g}")
        object.__setattr__(self, "coords", c)

    def density_matrix(self) -> HermitianMatrix:
        if self.model.kind != QUANTUM:
            raise ModelMismatch("density_matrix is defined for quantum states only")
        return self.model.coords_to_matrix(self.coords)

    def point(self) -> np.ndarray:
        if self.model.kind != POLYTOPE:
            raise ModelMismatch("point is defined for polytope states only")
        return self.coords[1:]


def _check_certificate(model: ModelSpace, coords: np.ndarray, weights, factor) -> None:
    """Raise InvalidState unless polytope mixing weights or a quantum factor B put coords in the cone."""
    if (weights is not None and model.kind != POLYTOPE) or (factor is not None and model.kind != QUANTUM):
        raise ModelMismatch("mixing weights certify polytope states only, factors quantum states only")
    # Each test is written so that a NaN fails it.
    if factor is not None:
        b = np.asarray(factor, dtype=complex)
        if b.ndim != 2 or len(b) != model.dim:
            raise InvalidState(f"expected a factor of {model.dim} rows, got shape {b.shape}")
        gap = float(np.linalg.norm(model.matrix_to_coords(b @ b.conj().T) - coords))
        if not gap <= _RANGE_ATOL:
            raise InvalidState(f"factor misses the state by {gap:.3g}")
        return
    w = np.asarray(weights, dtype=float)
    if w.shape != (model.vertices.shape[0],):
        raise InvalidState(f"expected {model.vertices.shape[0]} mixing weights, got {w.shape}")
    if not np.min(w) >= -FEASIBILITY_TOL:
        raise InvalidState(f"mixing weight {np.min(w):.3g} is negative")
    if not abs(np.sum(w) - 1.0) <= _UNIT_ATOL:
        raise InvalidState(f"mixing weights sum to {np.sum(w):.12g}, not 1")
    miss = float(np.max(np.abs(w @ model.vertices - coords)))
    if not miss <= FEASIBILITY_TOL:
        raise InvalidState(f"mixing weights miss the coordinates by {miss:.3g}")


@dataclass(frozen=True)
class Effect:
    """A linear functional with values in [0, 1] on every state.

    Pass ``check=False`` to build a candidate effect without the range check,
    e.g. for validation reports on deliberately broken measurement families.
    The functional is kept read-only; a caller's writeable array is copied first.
    """

    model: ModelSpace
    functional: np.ndarray
    check: bool = field(default=True, compare=False)

    __eq__ = _equal_by_value

    def __post_init__(self):
        f = _read_only(self.functional)
        if f.shape != (self.model.ambient_dim,):
            raise InvalidEffect(f"expected {self.model.ambient_dim} components, got {f.shape}")
        object.__setattr__(self, "functional", f)
        if self.check:
            lo, hi = _state_range(self.model, f)
            # Written so that a NaN fails it, as each range and completeness test below.
            if not (-lo <= _RANGE_ATOL and hi - 1.0 <= _RANGE_ATOL):
                raise InvalidEffect(f"effect range [{lo:.6g}, {hi:.6g}] leaves [0, 1]")


def _state_ranges(model: ModelSpace, funcs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min and max over the states of each row of funcs: of its entries, its matrix's eigenvalues (one batched
    ``eigvalsh``) or its vertex values. A quantum row with a non-finite entry reads (nan, nan); it enters the stack
    as zeros, since LAPACK can return finite eigenvalues for a NaN matrix."""
    if model.kind == QUANTUM:
        finite = np.isfinite(funcs).all(axis=1)
        values = np.linalg.eigvalsh(model.coords_to_matrices(np.where(finite[:, None], funcs, 0.0)))
        values[~finite] = np.nan
        return values[:, 0], values[:, -1]
    values = funcs if model.kind == CLASSICAL else (model.vertices @ funcs.T).T
    return values.min(axis=1), values.max(axis=1)


def _state_range(model: ModelSpace, functional: np.ndarray) -> tuple[float, float]:
    """Min and max of one functional over the states, as ``_state_ranges`` reads them."""
    lo, hi = _state_ranges(model, np.asarray(functional, dtype=float)[None])
    return float(lo[0]), float(hi[0])


def effect_from_matrix(model: Quantum, matrix) -> Effect:
    return Effect(model, _sealed(model.matrix_to_coords(matrix)))


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
            if not residual <= _UNIT_ATOL:
                raise InvalidObservable(f"effects miss the unit functional by {residual:.3g}")

    def completeness_residual(self) -> float:
        """Elementwise deviation of the effect sum from the unit functional.

        Quantum residuals are reported in matrix form (entries of sum E - I).
        """
        return _completeness_residual(self.model, np.array([out.effect.functional for out in self.outcomes]))

    def has_values(self) -> bool:
        return all(out.value is not None for out in self.outcomes)


def _completeness_residual(model: ModelSpace, funcs: np.ndarray) -> float:
    """Max |entry| of the gap between the sum of the rows of funcs and u, of its matrix for a quantum model."""
    gap = funcs.sum(axis=0) - model.unit_functional
    if model.kind == QUANTUM:
        gap = model.coords_to_matrices(gap[None])
    return float(np.abs(gap).max())


def evaluate(e: Effect, s: State) -> float:
    """Outcome probability of the effect in the state (the Born rule)."""
    if e.model != s.model:
        raise ModelMismatch("effect and state live on different models")
    p = float(e.functional @ s.coords)
    if -_RANGE_ATOL <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + _RANGE_ATOL:
        return 1.0
    return p


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
        if not self.completeness_residual <= 0.0:
            found.append(f"completeness residual {self.completeness_residual:.6g}")
        for idx, low in self.negative_effects:
            found.append(f"effect {idx} negative (min {low:.6g})")
        for idx, high in self.above_unit_effects:
            found.append(f"effect {idx} exceeds unit (max {high:.6g})")
        return found


def validate_povm(obs: Observable) -> PovmValidation:
    """Check completeness and the [0, 1] range of every effect, as a report; both read one stack of the functionals."""
    funcs = np.array([out.effect.functional for out in obs.outcomes])
    residual = _completeness_residual(obs.model, funcs)
    lows, highs = _state_ranges(obs.model, funcs)
    return PovmValidation(
        completeness_residual=0.0 if residual <= _UNIT_ATOL else residual,
        negative_effects=tuple((i, float(lo)) for i, lo in enumerate(lows) if not -lo <= _RANGE_ATOL),
        above_unit_effects=tuple((i, float(hi)) for i, hi in enumerate(highs) if not hi - 1.0 <= _RANGE_ATOL),
    )


@dataclass(frozen=True)
class StateAxiomReport:
    """Residuals of the probability-measure axioms for a quantum state."""

    zero_residual: float
    complement_residuals: tuple[float, ...]
    additivity_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual() <= self.tolerance

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
        return State(model, _sealed(np.full(model.dim, 1.0 / model.dim)))
    if model.kind == QUANTUM:
        return State(model, _sealed(model.unit_functional / model.dim), factor=np.eye(model.dim) / np.sqrt(model.dim))
    n = model.vertices.shape[0]
    return State(model, _sealed(model.vertices.mean(axis=0)), weights=np.full(n, 1.0 / n))


def spectral_observable(model: Quantum, matrix) -> Observable:
    """Eigenprojector observable of a Hermitian operator, values = eigenvalues.

    Raises NumericalFailure when the eigensolver does not converge, or when
    its result fails the reconstruction or the unitarity bound.
    """
    m = matrix if isinstance(matrix, HermitianMatrix) else HermitianMatrix(matrix)
    k, u = _eigh(m.entries)
    if np.max(np.abs((u * k) @ u.conj().T - m.entries)) > _EIGH_CHECK_TOL * (1.0 + np.max(np.abs(k))):
        raise NumericalFailure("eigendecomposition failed the reconstruction bound")
    if np.max(np.abs(u.conj().T @ u - np.eye(m.dim))) > _EIGH_CHECK_TOL:
        raise NumericalFailure("eigenvector matrix is not unitary within tolerance")
    outcomes = []
    i = 0
    while i < len(k):
        j = i
        while j + 1 < len(k) and abs(k[j + 1] - k[i]) <= _EIGENVALUE_MERGE_RTOL * max(1.0, abs(k[i])):
            j += 1
        block = u[:, i : j + 1]
        proj = block @ block.conj().T
        outcomes.append(Outcome(label=f"{k[i]:.6g}", effect=effect_from_matrix(model, proj), value=float(k[i])))
        i = j + 1
    return Observable(model, tuple(outcomes))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(model: ModelSpace, rng: np.random.Generator) -> State:
    """Full-support sampling for property tests."""
    if model.kind == CLASSICAL:
        p = np.exp(rng.standard_normal(model.dim))
        return State(model, _sealed(p / p.sum()))
    if model.kind == QUANTUM:
        g = rng.standard_normal((model.dim, model.dim)) + 1j * rng.standard_normal((model.dim, model.dim))
        b = g / np.linalg.norm(g)  # tr(B B^H) = 1
        return State(model, _sealed(model.matrix_to_coords(b @ b.conj().T)), factor=b)
    w = rng.dirichlet(np.ones(model.vertices.shape[0]))
    return State(model, _sealed(w @ model.vertices), weights=w)


def random_effect(model: ModelSpace, rng: np.random.Generator) -> Effect:
    if model.kind == CLASSICAL:
        return Effect(model, _sealed(rng.uniform(0.0, 1.0, model.dim)))
    if model.kind == QUANTUM:
        u = random_unitary(model.dim, rng)
        spectrum = rng.uniform(0.0, 1.0, model.dim)
        return effect_from_matrix(model, (u * spectrum) @ u.conj().T)
    raw = rng.standard_normal(model.ambient_dim)
    lo, hi = _state_range(model, raw)
    if hi - lo < 1e-12:
        return Effect(model, _sealed(0.5 * model.unit_functional))
    return Effect(model, _sealed((raw - lo * model.unit_functional) / (hi - lo)))


def random_povm(model: ModelSpace, rng: np.random.Generator, n_outcomes: int = 2) -> Observable:
    """A random valid observable: scaled random effects plus a complement."""
    if n_outcomes < 2:
        raise ValueError("a POVM needs at least two outcomes")
    funcs = [random_effect(model, rng).functional / n_outcomes for _ in range(n_outcomes - 1)]
    funcs.append(model.unit_functional - np.sum(funcs, axis=0))
    outs = tuple(Outcome(label=str(i), effect=Effect(model, f)) for i, f in enumerate(funcs))
    return Observable(model, outs)
