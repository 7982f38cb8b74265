"""Dense complex linear algebra with tensor-product structure.

Everything downstream (density encodings, channel simulation, phase
estimation) is built from the primitives here: tensor layouts and
spectral operations on Hermitian matrices (eigendecomposition, unitary
exponentials, eigenvalue-filtered pseudo-inverses).

All functions are pure; returned arrays are fresh and never alias their
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, NumericalError, ParameterError, SymmetryError

#: Max-entry deviation under which a matrix is accepted as Hermitian.
HERMITIAN_TOL = 1e-10


def as_complex_matrix(m: np.ndarray) -> np.ndarray:
    """Return ``m`` as a finite, 2-d, C-ordered complex128 array."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise LayoutError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains NaN or Inf entries")
    return a


@dataclass(frozen=True)
class TensorLayout:
    """Ordered subsystem dimensions of a tensor-product space."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise LayoutError(f"factor dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self.factor_dims))

    @property
    def factors(self) -> int:
        return len(self.factor_dims)

    def check_matches(self, dim: int) -> None:
        if self.dim != dim:
            raise LayoutError(
                f"layout {self.factor_dims} has dimension {self.dim}, "
                f"matrix has {dim}"
            )


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order with matching orthonormal columns.

    Ordering inside a degenerate eigenspace is arbitrary; only the
    reconstruction ``V diag(w) V^dagger`` is contractual.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def apply(self, f) -> np.ndarray:
        """Matrix function ``V diag(f(w)) V^dagger`` for a vectorized f."""
        v = self.eigenvectors
        return (v * f(self.eigenvalues)) @ v.conj().T


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2."""
    m = as_complex_matrix(m)
    return (m + m.conj().T) / 2


def hermitian_deviation(m: np.ndarray) -> float:
    """Largest entrywise deviation from Hermitian symmetry."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise LayoutError("hermiticity is defined for square matrices only")
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitian_eig(m: np.ndarray, tol: float = HERMITIAN_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Inputs within ``tol`` of Hermitian are symmetrized first; anything
    further away raises ``SymmetryError``.
    """
    m = as_complex_matrix(m)
    dev = hermitian_deviation(m)
    if dev > tol:
        raise SymmetryError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    w, v = np.linalg.eigh(hermitian_part(m))
    order = np.argsort(w, kind="stable")[::-1]
    return SpectralDecomposition(np.ascontiguousarray(w[order]), np.ascontiguousarray(v[:, order]))


def hermitian_exp(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary ``exp(-i h t)`` for Hermitian ``h``."""
    eig = hermitian_eig(h)
    return eig.apply(lambda w: np.exp(-1j * w * t))


def filtered_pseudo_inverse(m: np.ndarray, sigma: float) -> np.ndarray:
    """Pseudo-inverse that inverts eigenvalues >= sigma and zeroes the rest.

    ``m`` must be Hermitian PSD and ``sigma`` strictly positive; the output
    is Hermitian.
    """
    if sigma <= 0:
        raise ParameterError(f"filter threshold must be positive, got {sigma}")
    eig = hermitian_eig(m)
    lam_max = float(eig.eigenvalues[0]) if eig.eigenvalues.size else 0.0
    if eig.eigenvalues.size and float(eig.eigenvalues[-1]) < -1e-8 * max(1.0, abs(lam_max)):
        raise NumericalError(
            f"matrix is not PSD (min eigenvalue {eig.eigenvalues[-1]:.3e})"
        )
    w = eig.eigenvalues
    inv = np.where(w >= sigma, 1.0 / np.where(w >= sigma, w, 1.0), 0.0)
    return eig.apply(lambda _: inv)


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for unit vectors (phase-insensitive)."""
    a = np.asarray(a).reshape(-1)
    b = np.asarray(b).reshape(-1)
    if a.shape != b.shape:
        raise LayoutError(f"state dimensions differ: {a.shape} vs {b.shape}")
    return float(np.abs(np.vdot(a, b)) ** 2)
