"""Dense complex Hermitian matrix algebra.

Hermitian matrices, a checked eigendecomposition, the divided-difference
kernel of exp that the quantum dual solver contracts into its Kubo-Mori
Hessian, and the entropy of a spectrum. All values are immutable and all
functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

_HERMITICITY_ATOL = 1e-12     # construction check |A - A^dagger|
_RECONSTRUCTION_RTOL = 1e-10  # eig: |U diag(k) U^dagger - A|
_UNITARITY_ATOL = 1e-10       # eig: |U^dagger U - I|
_LOG_ZERO_FLOOR = 1e-300      # eigenvalues below this contribute ln = 0
_DD_DEGENERACY_RTOL = 1e-9    # divided-difference pair merging


@dataclass(frozen=True)
class HermitianMatrix:
    """A dim x dim complex Hermitian matrix, symmetrized at construction.

    Raises ValueError when the input deviates from its conjugate transpose by
    more than 1e-12 in any entry; smaller deviations are averaged away so
    the stored array is exactly Hermitian.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if np.max(np.abs(a - a.conj().T)) > _HERMITICITY_ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        a = (a + a.conj().T) / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @classmethod
    def _exact(cls, entries: np.ndarray) -> "HermitianMatrix":
        """Wrap a complex array that is exactly Hermitian by construction, unchecked.

        The array is stored as it is and made read-only; the checked
        constructor would return an equal copy.
        """
        m = object.__new__(cls)
        entries.setflags(write=False)
        object.__setattr__(m, "entries", entries)
        return m

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    @staticmethod
    def zero(dim: int) -> "HermitianMatrix":
        return HermitianMatrix(np.zeros((dim, dim), dtype=complex))

    @staticmethod
    def identity(dim: int) -> "HermitianMatrix":
        return HermitianMatrix(np.eye(dim, dtype=complex))

    @staticmethod
    def diagonal(values) -> "HermitianMatrix":
        return HermitianMatrix(np.diag(np.asarray(values, dtype=float)).astype(complex))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and unitary eigenvector columns of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.eigenvalues, dtype=float)
        u = np.asarray(self.eigenvectors, dtype=complex)
        k.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "eigenvalues", k)
        object.__setattr__(self, "eigenvectors", u)

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def eig(m: HermitianMatrix) -> EigenDecomposition:
    """Full eigendecomposition with ascending eigenvalues.

    Raises NumericalFailure if the underlying iterative solver exhausts its
    iteration budget without converging.
    """
    try:
        k, u = np.linalg.eigh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    decomp = EigenDecomposition(k, u)
    scale = 1.0 + float(np.max(np.abs(k)))
    if np.max(np.abs(decomp.reconstruct() - m.entries)) > _RECONSTRUCTION_RTOL * scale:
        raise NumericalFailure("eigendecomposition failed the reconstruction bound")
    if np.max(np.abs(u.conj().T @ u - np.eye(m.dim))) > _UNITARITY_ATOL:
        raise NumericalFailure("eigenvector matrix is not unitary within tolerance")
    return decomp


def _divided_difference(k: np.ndarray) -> np.ndarray:
    """phi(x, y) = (e^x - e^y)/(x - y), with phi(x, x) = e^x.

    Near-degenerate pairs use exp((x + y)/2), second-order accurate and free
    of catastrophic cancellation.
    """
    x = k[:, None]
    y = k[None, :]
    dx = x - y
    close = np.abs(dx) <= _DD_DEGENERACY_RTOL * np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    safe = np.where(close, 1.0, dx)
    phi = (np.exp(x) - np.exp(y)) / safe
    return np.where(close, np.exp((x + y) / 2.0), phi)


def entropy_from_spectrum(eigenvalues: np.ndarray) -> float:
    """-sum k ln k over a probability-like spectrum, with 0 ln 0 = 0."""
    k = np.asarray(eigenvalues, dtype=float)
    k = np.where(k > _LOG_ZERO_FLOOR, k, 0.0)
    nz = k[k > 0.0]
    return float(-np.sum(nz * np.log(nz)))
