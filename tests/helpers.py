"""Shared generators for the test suite."""

import numpy as np

from gmaxent import (
    Classical,
    ConvexRegion,
    Effect,
    FiducialMeasurementEntropy,
    HermitianMatrix,
    MaxEntProblem,
    Observable,
    Outcome,
    Polytope,
    Quantum,
    Shannon,
    VonNeumann,
    includes,
    indicator_observable,
    random_state,
    region_from_mean,
    whole_space,
)
from gmaxent.regions import LinearConstraint


def hermitian_basis(d):
    """Dense orthonormal Hermitian basis of d x d operators, in the coordinate
    order of ``Quantum(d)``: the reference its closed-form conversions are
    checked against.

    Order: normalized identity, then symmetric and antisymmetric off-diagonal
    generators for each i < j, then the d-1 diagonal traceless generators.
    """
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[0] = np.eye(d) / np.sqrt(d)
    idx = 1
    for i in range(d):
        for j in range(i + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0 / np.sqrt(2.0)
            basis[idx] = sym
            idx += 1
            anti = np.zeros((d, d), dtype=complex)
            anti[i, j] = 1j / np.sqrt(2.0)
            anti[j, i] = -1j / np.sqrt(2.0)
            basis[idx] = anti
            idx += 1
    for level in range(1, d):
        diag = np.zeros(d)
        diag[:level] = 1.0
        diag[level] = -level
        basis[idx] = np.diag(diag / np.sqrt(level * (level + 1))).astype(complex)
        idx += 1
    basis.setflags(write=False)
    return basis


def random_hermitian(rng, d, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianMatrix(scale * (g + g.conj().T) / 2.0)


def random_density(rng, d, ridge=0.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T + ridge * np.eye(d)
    return rho / np.trace(rho).real


def random_projector_family(rng, d, n_groups=2):
    """Pairwise orthogonal projectors from a random unitary column partition."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    cuts = sorted(rng.choice(np.arange(1, d), size=min(n_groups - 1, d - 1), replace=False))
    groups = np.split(np.arange(d), cuts)
    family = []
    for cols in groups:
        block = q[:, cols]
        family.append(HermitianMatrix(block @ block.conj().T))
    return family


def random_quantum_problem(rng, d, n_constraints):
    """Random Hermitian constraints with targets from an interior state."""
    model = Quantum(d)
    anchor = random_density(rng, d, ridge=0.2 * d)
    constraints = []
    for _ in range(n_constraints):
        op = random_hermitian(rng, d).entries
        functional = model.matrix_to_coords(op)
        target = float(np.trace(anchor @ op).real)
        constraints.append(LinearConstraint(model, functional, target))
    region = ConvexRegion(model, tuple(constraints))
    return MaxEntProblem(model, region, VonNeumann())


def random_classical_problem(rng, d, n_constraints):
    model = Classical(d)
    anchor = np.exp(rng.standard_normal(d))
    anchor += 0.2
    anchor /= anchor.sum()
    constraints = []
    for _ in range(n_constraints):
        functional = rng.uniform(-1.0, 1.0, d)
        constraints.append(LinearConstraint(model, functional, float(functional @ anchor)))
    region = ConvexRegion(model, tuple(constraints))
    return MaxEntProblem(model, region, Shannon())


def squarebit_model():
    return Polytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def squarebit_measurements(model):
    mx = Observable(
        model,
        (
            Outcome("+", Effect(model, np.array([0.5, 0.5, 0.0])), 1.0),
            Outcome("-", Effect(model, np.array([0.5, -0.5, 0.0])), -1.0),
        ),
    )
    my = Observable(
        model,
        (
            Outcome("+", Effect(model, np.array([0.5, 0.0, 0.5])), 1.0),
            Outcome("-", Effect(model, np.array([0.5, 0.0, -0.5])), -1.0),
        ),
    )
    return mx, my


def squarebit_problem(region=None, model=None):
    model = model or squarebit_model()
    mx, my = squarebit_measurements(model)
    objective = FiducialMeasurementEntropy((mx, my))
    return MaxEntProblem(model, region if region is not None else whole_space(model), objective)


def random_region(model, rng):
    """A random condition region of the kind the engine is built around."""
    if model.kind == "classical":
        values = rng.uniform(-1.0, 1.0, model.dim)
        obs = indicator_observable(model, values)
        anchor = random_state(model, rng)
        target = float(values @ anchor.coords)
        return region_from_mean(obs, target)
    mx, my = squarebit_measurements(model)
    obs = mx if rng.uniform() < 0.5 else my
    anchor = random_state(model, rng)
    functional = np.sum([o.value * o.effect.functional for o in obs.outcomes], axis=0)
    target = float(functional @ anchor.coords)
    return region_from_mean(obs, target)


def region_eq(a, b):
    """Region equality as mutual inclusion (after vertex enumeration)."""
    return includes(a, b) and includes(b, a)
