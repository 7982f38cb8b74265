"""Dense linear algebra on Hermitian matrices.

Everything downstream (the classical filtered solve, channel simulation,
phase estimation) is built from one ``SpectralDecomposition`` per matrix:
a consumer takes the decomposition, not the matrix, and evaluates its
matrix function (an exponential, a filtered inverse, a Fejer weight) from
it, so a matrix that several stages read is decomposed once per run, and
its square not at all (``squared``).  Real symmetric input stays float64
and is decomposed by a real ``eigh``; only complex input (a state, a
channel output) is handled in complex128.

All functions are pure; returned arrays are fresh and never alias their
inputs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, NumericalError, SymmetryError

#: Max-entry deviation under which a matrix is accepted as Hermitian.
HERMITIAN_TOL = 1e-10

#: Rows of ``m - h`` that ``hermitian_eig`` holds at a time for its check.
_DEVIATION_ROWS = 64


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


@contextmanager
def overflow_guard(what: str):
    """Context (or decorator) in which a float64 overflow, or the inf - inf
    it leads to, raises ``NumericalError`` naming ``what``, not a warning."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError:
            raise NumericalError(f"float64 overflow in {what}") from None


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order with matching orthonormal columns.

    A thin decomposition of an m x m matrix holds only its nonzero part:
    eigenvalues of shape ``(r,)`` and columns of shape ``(m, r)``, r < m,
    the other m - r eigenvalues being 0.  Ordering inside a degenerate
    eigenspace is arbitrary; only matrix functions are contractual.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, f) -> np.ndarray:
        """Matrix function ``V diag(f(w)) V^dagger + f(0) (I - V V^dagger)``
        for a vectorized f; the second term is zero unless the
        decomposition is thin."""
        v = self.eigenvectors
        out = (v * f(self.eigenvalues)) @ v.conj().T
        m, r = v.shape
        if r < m:
            out = out + f(np.zeros(1))[0] * (np.eye(m) - v @ v.conj().T)
        return out

    def squared(self) -> SpectralDecomposition:
        """The square's decomposition: squared eigenvalues, reordered descending."""
        w = self.eigenvalues ** 2
        order = np.argsort(w)[::-1]
        return SpectralDecomposition(w[order], self.eigenvectors[:, order])


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2."""
    m = as_matrix(m)
    return (m + m.conj().T) / 2


def _symmetrized(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Hermitian part ``h = (m + m^dagger) / 2`` of a square ``as_matrix``
    result and its deviation ``max|m - m^dagger| = 2 max|m - h|``, read
    from the one copy ``h``, ``_DEVIATION_ROWS`` rows at a time."""
    h = m + m.conj().T
    h /= 2
    dev = 2 * max(float(np.max(np.abs(m[i:i + _DEVIATION_ROWS] - h[i:i + _DEVIATION_ROWS])))
                  for i in range(0, m.shape[0], _DEVIATION_ROWS))
    return h, dev


def hermitian_eig(m: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Inputs within ``HERMITIAN_TOL`` of Hermitian are symmetrized first;
    anything further away raises ``SymmetryError``.  One symmetrized copy
    serves the check and the decomposition, and ``eigh``'s ascending
    output is reversed.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise LayoutError("hermiticity is defined for square matrices only")
    h, dev = _symmetrized(m)
    if dev > HERMITIAN_TOL:
        raise SymmetryError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    del m  # a temporary input (A/tr(A)) is freed before eigh allocates
    w, v = np.linalg.eigh(h)
    del h
    return SpectralDecomposition(w[::-1].copy(), np.ascontiguousarray(v[:, ::-1]))


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for unit vectors (phase-insensitive)."""
    a = np.asarray(a).reshape(-1)
    b = np.asarray(b).reshape(-1)
    if a.shape != b.shape:
        raise LayoutError(f"state dimensions differ: {a.shape} vs {b.shape}")
    return float(np.abs(np.vdot(a, b)) ** 2)
