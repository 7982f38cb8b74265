"""Classical construction of the quantum data encodings.

Oracle and QRAM access are emulated classically.  The training route
consumes the label state |y> and the reduced densities of the data
superposition |X> and the incidence-row superposition |G_I>; those are the
partial traces Tr_2 |X><X| and Tr_2 |G_I><G_I|, evaluated in closed form as
F F^T with F = X / ||X||_F (``kernel_factor``, also the factor of
``simulate``'s classical system) and L / m (G_I G_I^T is the
degree-normalized Laplacian L) without building either full state, its
(m p)^2 or (m E)^2 outer product, or the m x E incidence matrix G_I.  Both
densities are real symmetric and stay float64; a density's dimension is
its matrix's.  The full states and their partial traces are the test
oracle in ``tests/dilation.py``.  ``DensityMatrix(...)`` checks a caller's
matrix; the builders skip that check (``DensityMatrix._built``): F F^T is
a Gram matrix of unit trace, and L / m has its spectrum in [0, 2/m].
"""

from __future__ import annotations

import numpy as np

from .datasets import SampleGraph, TrainingSet, _normalized_laplacian_array
from .errors import EncodingError, LayoutError
from .linalg import _symmetrized, as_matrix, overflow_guard

#: Default validation tolerances for quantum objects.
STATE_NORM_TOL = 1e-12
DENSITY_HERMITIAN_TOL = 1e-10
DENSITY_PSD_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10


class StateVector:
    """Unit-norm complex amplitude vector."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray, *, norm_tol: float = STATE_NORM_TOL):
        amp = np.ascontiguousarray(amplitudes, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > norm_tol:
            raise EncodingError(f"state norm {norm!r} deviates from 1 beyond {norm_tol}")
        amp.setflags(write=False)
        self.amplitudes = amp

    @classmethod
    def normalized(cls, vector: np.ndarray) -> "StateVector":
        v = np.ascontiguousarray(vector, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0 or not np.isfinite(norm):
            raise EncodingError("cannot encode a zero or non-finite vector")
        return cls(v / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def hermitian_psd(matrix: np.ndarray, hermitian_tol: float, psd_tol: float) -> np.ndarray:
    """Symmetrized square ``matrix`` after checking that it is Hermitian
    within ``hermitian_tol`` and PSD within ``psd_tol``; real input stays
    real.  A failed check raises ``EncodingError``.  One symmetrized copy
    serves the Hermitian check, the PSD check and the result."""
    m = as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise LayoutError(f"density matrix must be square, got {m.shape}")
    h, dev = _symmetrized(m)
    if dev > hermitian_tol:
        raise EncodingError(f"density deviates from Hermitian by {dev:.3e}")
    lam_min = float(np.linalg.eigvalsh(h)[0])
    if lam_min < -psd_tol:
        raise EncodingError(f"density is not PSD (min eigenvalue {lam_min:.3e})")
    return h


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix.

    The stored matrix is the symmetrized input, float64 when the input is
    real; validation tolerances can be widened for long channel
    trajectories where roundoff accumulates.
    """

    __slots__ = ("matrix",)

    def __init__(
        self,
        matrix: np.ndarray,
        *,
        hermitian_tol: float = DENSITY_HERMITIAN_TOL,
        psd_tol: float = DENSITY_PSD_TOL,
        trace_tol: float = DENSITY_TRACE_TOL,
    ):
        m = hermitian_psd(matrix, hermitian_tol, psd_tol)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > trace_tol:
            raise EncodingError(f"density trace {tr!r} deviates from 1 beyond {trace_tol}")
        m.setflags(write=False)
        self.matrix = m

    @classmethod
    def _built(cls, matrix: np.ndarray) -> DensityMatrix:
        """Wrap a fresh matrix that is a density by construction, unchecked."""
        matrix.setflags(write=False)
        rho = object.__new__(cls)
        rho.matrix = matrix
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _row_norms(x: TrainingSet) -> np.ndarray:
    norms = x.row_norms
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise EncodingError(f"sample {bad} has zero norm and cannot be encoded")
    return norms


@overflow_guard("the kernel density")
def kernel_factor(x: TrainingSet) -> np.ndarray:
    """F = X / ||X||_F, the factor of the kernel density F F^T, from
    features below 1 scaled up by an exact power of two (no subnormal
    products)."""
    _row_norms(x)
    top = np.max(np.abs(x.features))
    f = np.ldexp(x.features, -np.frexp(top)[1]) if top < 1.0 else x.features
    return f / np.sqrt(np.sum(f * f))


def kernel_density(x: TrainingSet) -> DensityMatrix:
    """Linear-kernel density Tr_2 |X><X| = F F^T, F = ``kernel_factor(x)``."""
    f = kernel_factor(x)
    return DensityMatrix._built(f @ f.T)


def label_state(y: np.ndarray) -> StateVector:
    """|y> = y / ||y||; all-zero label vectors cannot be encoded."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    return StateVector.normalized(y)


def laplacian_density(g: SampleGraph) -> DensityMatrix:
    """Tr_2 |G_I><G_I| = G_I G_I^T / m: the degree-normalized Laplacian
    divided by m (every row of G_I is a unit vector)."""
    return DensityMatrix._built(_normalized_laplacian_array(g) / g.vertex_count)
