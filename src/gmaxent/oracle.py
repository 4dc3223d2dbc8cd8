"""Brute-force grid oracles for small MaxEnt instances.

The oracle never touches the dual machinery: it solves the affine condition
system directly, grids the solution slice at the requested resolution, keeps
the best entropy among points inside the state space (with cone slack
proportional to the resolution), and reports that point. Qubit entropies come
from the Bloch radius in closed form, so the verification path shares no
matrix-function code with the solver; on the grid, maximizing that entropy is
the same search as minimizing the radius, which is what the scan ranks by.

Guarantee: the returned entropy is within O(resolution) of the true optimum,
since the grid covers the feasible slice at that pitch and the objectives are
continuous on the state space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Unsupported, UnsupportedRepresentation
from .models import CLASSICAL, QUANTUM, State, _sealed
from .solver import MaxEntProblem

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

_CLASSICAL_MAX_DIM = 4
_QUANTUM_MAX_DIM = 2
_POLYTOPE_MAX_VERTICES = 4
_MAX_GRID_POINTS = 4e7        # estimated points before Unsupported
_CHUNK = 1_000_000
_CONSISTENCY_TOL = 1e-9       # affine-system lstsq residual => infeasible

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class OracleResult:
    status: str
    state: Optional[State]
    entropy: Optional[float]
    points_scanned: int


def _xlogx_entropy(p: np.ndarray) -> np.ndarray:
    q = np.maximum(p, 1e-300)
    return -np.sum(np.where(p > 0.0, q * np.log(q), 0.0), axis=-1)


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-(p * math.log(p) + (1.0 - p) * math.log1p(-p)))


def _bloch_entropy(point: np.ndarray) -> float:
    r = min(float(np.linalg.norm(point)), 1.0)
    return _binary_entropy((1.0 + r) / 2.0)


def _null_space(a: np.ndarray, nvar: int) -> np.ndarray:
    if a.shape[0] == 0:
        return np.eye(nvar)
    _, sing, vt = np.linalg.svd(a, full_matrices=True)
    tol = max(a.shape) * np.finfo(float).eps * (sing[0] if sing.size else 1.0)
    rank = int(np.sum(sing > tol))
    return vt[rank:].T


# Each search holds the affine system (rows, rhs over nvar unknowns) and maps a
# chunk of points to (feasibility mask, ranking values on the masked points).
class _ClassicalSearch:
    def __init__(self, model, region, resolution):
        self.model = model
        self.resolution = resolution
        self.nvar = model.dim
        self.rows = [np.ones(self.nvar)]
        self.rhs = [1.0]
        for c in region.h_rep:
            self.rows.append(c.functional)
            self.rhs.append(c.target)

    def chunk_scores(self, pts):
        mask = np.min(pts, axis=1) >= -self.resolution
        return mask, _xlogx_entropy(pts[mask])

    def entropy_at(self, point):
        return float(_xlogx_entropy(point))

    def to_state(self, point):
        q = np.clip(point, 0.0, None)
        return State(self.model, _sealed(q / q.sum()))


class _QubitSearch:
    def __init__(self, model, region, resolution):
        self.model = model
        self.resolution = resolution
        self.nvar = 3
        self.rows = []
        self.rhs = []
        for c in region.h_rep:
            op = model.coords_to_matrix(c.functional).entries
            self.rows.append(
                np.array(
                    [
                        np.trace(op @ _SIGMA_X).real / 2.0,
                        np.trace(op @ _SIGMA_Y).real / 2.0,
                        np.trace(op @ _SIGMA_Z).real / 2.0,
                    ]
                )
            )
            self.rhs.append(c.target - np.trace(op).real / 2.0)

    def chunk_scores(self, pts):
        # Smaller Bloch radius means larger entropy, so rank by -r^2.
        r2 = np.einsum("ij,ij->i", pts, pts)
        mask = r2 <= (1.0 + self.resolution) ** 2
        return mask, -r2[mask]

    def entropy_at(self, point):
        return _bloch_entropy(point)

    def to_state(self, point):
        r = float(np.linalg.norm(point))
        v = point if r <= 1.0 else point / r
        rho = (np.eye(2, dtype=complex) + v[0] * _SIGMA_X + v[1] * _SIGMA_Y + v[2] * _SIGMA_Z) / 2.0
        return State(self.model, _sealed(self.model.matrix_to_coords(rho)))


class _PolytopeSearch:
    def __init__(self, model, region, resolution, objective):
        self.model = model
        self.resolution = resolution
        self.vertex_map = np.asarray(model.vertices)
        self.nvar = self.vertex_map.shape[0]
        self.rows = [np.ones(self.nvar)]
        self.rhs = [1.0]
        for c in region.h_rep:
            self.rows.append(self.vertex_map @ c.functional)
            self.rhs.append(c.target)
        # Every measurement's outcomes stacked, as rows over the weights: the sum of their entropies is one entropy.
        funcs = np.array([out.effect.functional for m in objective.measurements for out in m.outcomes])
        self.outcome_rows = funcs.reshape(-1, model.ambient_dim) @ self.vertex_map.T

    def chunk_scores(self, pts):
        mask = np.min(pts, axis=1) >= -self.resolution
        return mask, _xlogx_entropy(np.clip(pts[mask] @ self.outcome_rows.T, 0.0, 1.0))

    def entropy_at(self, point):
        return float(_xlogx_entropy(np.clip(point @ self.outcome_rows.T, 0.0, 1.0)))

    def to_state(self, point):
        q = np.clip(point, 0.0, None)
        w = q / q.sum()
        return State(self.model, _sealed(w @ self.vertex_map), weights=w)


def oracle_maxent(problem: MaxEntProblem, resolution: float) -> OracleResult:
    """Grid search over the constraint slice of a small state space.

    Supported instances: classical d <= 4, quantum d = 2, polytopes with at
    most 4 vertices under a fiducial objective. Other instances, or slices
    whose grids would exceed the point cap, raise Unsupported.
    """
    if not 0.0 < resolution < np.inf:
        raise ValueError("resolution must be positive and finite")
    model = problem.model
    region = problem.region
    if region.known_empty:
        return OracleResult(INFEASIBLE, None, None, 0)
    if region.v_rep is not None:
        raise UnsupportedRepresentation("oracle needs an H-representation")

    if model.kind == CLASSICAL:
        if model.dim > _CLASSICAL_MAX_DIM:
            raise Unsupported(f"classical oracle capped at d = {_CLASSICAL_MAX_DIM}")
        search = _ClassicalSearch(model, region, resolution)
    elif model.kind == QUANTUM:
        if model.dim != _QUANTUM_MAX_DIM:
            raise Unsupported(f"quantum oracle capped at d = {_QUANTUM_MAX_DIM}")
        search = _QubitSearch(model, region, resolution)
    else:
        if model.vertices.shape[0] > _POLYTOPE_MAX_VERTICES:
            raise Unsupported(f"polytope oracle capped at {_POLYTOPE_MAX_VERTICES} vertices")
        search = _PolytopeSearch(model, region, resolution, problem.objective)

    nvar = search.nvar
    a = np.vstack(search.rows) if search.rows else np.zeros((0, nvar))
    b = np.array(search.rhs) if search.rhs else np.zeros(0)

    if a.shape[0]:
        v0, *_ = np.linalg.lstsq(a, b, rcond=None)
        scale = max(1.0, float(np.max(np.abs(b))))
        if np.max(np.abs(a @ v0 - b)) > _CONSISTENCY_TOL * scale:
            return OracleResult(INFEASIBLE, None, None, 0)
    else:
        v0 = np.zeros(nvar)
    null = _null_space(a, nvar)
    k = null.shape[1]

    # Any feasible point x satisfies |x - v0| <= |x| <= 1 in these models
    # (v0 is the projection of the origin onto the affine slice), so the
    # slice coordinates are bounded by 1 plus slack. The point count is
    # checked before the axis is allocated, with steps capped so that it
    # stays finite, and a point slice (k = 0) needs no axis.
    steps = math.ceil(min((1.0 + resolution) / resolution, _MAX_GRID_POINTS)) if k else 0
    total = (2 * steps + 1) ** k
    if total > _MAX_GRID_POINTS:
        raise Unsupported(f"grid would need at least {total:.3g} points; cap is {_MAX_GRID_POINTS:.3g}")
    axis = np.arange(-steps, steps + 1, dtype=float) * resolution

    best_key = -np.inf
    best_point = None
    scanned = 0
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        if k:
            t = np.empty((len(idx), k))
            rem = idx
            for j in range(k - 1, -1, -1):
                rem, pos = np.divmod(rem, len(axis))
                t[:, j] = axis[pos]
            pts = v0[None, :] + t @ null.T
        else:
            pts = v0[None, :]
        scanned += pts.shape[0]
        mask, values = search.chunk_scores(pts)
        if not values.size:
            continue
        i = int(np.argmax(values))
        if values[i] > best_key:
            best_key = float(values[i])
            best_point = pts[mask][i]

    if best_point is None:
        return OracleResult(INFEASIBLE, None, None, scanned)
    return OracleResult(FEASIBLE, search.to_state(best_point), search.entropy_at(best_point), scanned)
