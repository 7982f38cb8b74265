"""Dense linear algebra on Hermitian matrices.

Everything downstream (the classical filtered solve, channel simulation,
phase estimation) is built from one ``SpectralDecomposition`` per matrix:
a consumer takes the decomposition, not the matrix, and evaluates its
matrix function (an exponential, a filtered inverse, a Fejer weight) from
it, so a matrix that several stages read is decomposed once per run.  Real
symmetric input stays float64 and is decomposed by a real ``eigh``; only
complex input (a state, a channel output) is handled in complex128.

All functions are pure; returned arrays are fresh and never alias their
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, NumericalError, SymmetryError

#: Max-entry deviation under which a matrix is accepted as Hermitian.
HERMITIAN_TOL = 1e-10


def as_matrix(m: np.ndarray) -> np.ndarray:
    """Return ``m`` as a finite, 2-d, C-ordered array: complex128 when
    ``m`` is complex, float64 otherwise."""
    a = np.asarray(m)
    a = np.ascontiguousarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise LayoutError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains NaN or Inf entries")
    return a


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order with matching orthonormal columns.

    Ordering inside a degenerate eigenspace is arbitrary; only matrix
    functions ``V diag(f(w)) V^dagger`` are contractual.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, f) -> np.ndarray:
        """Matrix function ``V diag(f(w)) V^dagger`` for a vectorized f."""
        v = self.eigenvectors
        return (v * f(self.eigenvalues)) @ v.conj().T


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2."""
    m = as_matrix(m)
    return (m + m.conj().T) / 2


def hermitian_deviation(m: np.ndarray) -> float:
    """Largest entrywise deviation from Hermitian symmetry."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise LayoutError("hermiticity is defined for square matrices only")
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitian_eig(m: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Inputs within ``HERMITIAN_TOL`` of Hermitian are symmetrized first;
    anything further away raises ``SymmetryError``.
    """
    m = as_matrix(m)
    dev = hermitian_deviation(m)
    if dev > HERMITIAN_TOL:
        raise SymmetryError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    w, v = np.linalg.eigh(hermitian_part(m))
    order = np.argsort(w, kind="stable")[::-1]
    return SpectralDecomposition(np.ascontiguousarray(w[order]), np.ascontiguousarray(v[:, order]))


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for unit vectors (phase-insensitive)."""
    a = np.asarray(a).reshape(-1)
    b = np.asarray(b).reshape(-1)
    if a.shape != b.shape:
        raise LayoutError(f"state dimensions differ: {a.shape} vs {b.shape}")
    return float(np.abs(np.vdot(a, b)) ** 2)
