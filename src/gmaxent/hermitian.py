"""Dense complex Hermitian matrix algebra.

Hermitian matrices, the checked eigendecomposition, the divided-difference
kernel of exp that the quantum dual solver contracts into its Kubo-Mori
Hessian, and the entropy of a spectrum. All values are immutable and all
functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

_HERMITICITY_ATOL = 1e-10     # |A - A^dagger| in any entry, for HermitianMatrix and io's file matrices
_LOG_ZERO_FLOOR = 1e-300      # eigenvalues below this contribute ln = 0
_DD_DEGENERACY_RTOL = 1e-9    # divided-difference pair merging


@dataclass(frozen=True)
class HermitianMatrix:
    """A dim x dim complex Hermitian matrix, symmetrized at construction.

    Raises ValueError when an entry is not finite, or when the input deviates
    from its conjugate transpose by more than 1e-10 in any entry; smaller
    deviations are averaged away so the stored array is exactly Hermitian.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():  # checked first: inf - inf is a NaN, which passes any "> tol" test
            raise ValueError("matrix entries must be finite")
        if not np.max(np.abs(a - a.conj().T)) <= _HERMITICITY_ATOL:
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


def _eigh(matrix: np.ndarray):
    """np.linalg.eigh, with non-convergence raised as NumericalFailure."""
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc


def _divided_difference(k: np.ndarray) -> np.ndarray:
    """phi(x, y) = (e^x - e^y)/(x - y), with phi(x, x) = e^x.

    Near-degenerate pairs use exp((x + y)/2), second-order accurate and free
    of catastrophic cancellation.
    """
    dx = np.subtract.outer(k, k)
    scale = np.maximum(np.abs(k), 1.0)
    close = np.abs(dx) <= _DD_DEGENERACY_RTOL * np.maximum.outer(scale, scale)
    dx[close] = 1.0
    e = np.exp(k)
    phi = np.subtract.outer(e, e) / dx
    np.copyto(phi, np.exp(np.add.outer(k, k) / 2.0), where=close)
    return phi


def entropy_from_spectrum(eigenvalues: np.ndarray) -> float:
    """-sum k ln k over a probability-like spectrum, with 0 ln 0 = 0."""
    k = np.asarray(eigenvalues, dtype=float)
    nz = k[k > _LOG_ZERO_FLOOR]
    # 0 - s rather than -s: a pure spectrum has entropy +0.0, not -0.0.
    return 0.0 - float(np.sum(nz * np.log(nz)))
