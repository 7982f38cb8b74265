"""Classical construction of the quantum data encodings.

Oracle and QRAM access are emulated classically.  The training route
consumes the label state |y> and the reduced densities of the data
superposition |X> and the incidence-row superposition |G_I>; those are the
partial traces Tr_2 |X><X| and Tr_2 |G_I><G_I|, evaluated in closed form as
X X^T / ||X||_F^2 and G_I G_I^T / m without building either full state or
its (m p)^2 or (m E)^2 outer product.  The full states and their partial
traces are the test oracle in ``tests/dilation.py``.
"""

from __future__ import annotations

import numpy as np

from .datasets import SampleGraph, TrainingSet, incidence_matrix
from .errors import EncodingError, LayoutError
from .linalg import (
    TensorLayout,
    as_complex_matrix,
    hermitian_deviation,
    hermitian_part,
)

#: Default validation tolerances for quantum objects.
STATE_NORM_TOL = 1e-12
DENSITY_HERMITIAN_TOL = 1e-10
DENSITY_PSD_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10


class StateVector:
    """Unit-norm complex amplitude vector with a tensor-register layout."""

    __slots__ = ("amplitudes", "layout")

    def __init__(self, amplitudes: np.ndarray, layout: TensorLayout | tuple[int, ...],
                 norm_tol: float = STATE_NORM_TOL):
        if not isinstance(layout, TensorLayout):
            layout = TensorLayout(tuple(layout))
        amp = np.ascontiguousarray(amplitudes, dtype=np.complex128).reshape(-1)
        layout.check_matches(amp.shape[0])
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > norm_tol:
            raise EncodingError(f"state norm {norm!r} deviates from 1 beyond {norm_tol}")
        amp.setflags(write=False)
        self.amplitudes = amp
        self.layout = layout

    @classmethod
    def normalized(cls, vector: np.ndarray, layout: TensorLayout | tuple[int, ...]) -> "StateVector":
        v = np.ascontiguousarray(vector, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0 or not np.isfinite(norm):
            raise EncodingError("cannot encode a zero or non-finite vector")
        return cls(v / norm, layout)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with a tensor-register layout.

    The stored matrix is the symmetrized input; validation tolerances can
    be widened for long channel trajectories where roundoff accumulates.
    """

    __slots__ = ("matrix", "layout")

    def __init__(
        self,
        matrix: np.ndarray,
        layout: TensorLayout | tuple[int, ...],
        hermitian_tol: float = DENSITY_HERMITIAN_TOL,
        psd_tol: float = DENSITY_PSD_TOL,
        trace_tol: float = DENSITY_TRACE_TOL,
    ):
        if not isinstance(layout, TensorLayout):
            layout = TensorLayout(tuple(layout))
        m = as_complex_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise LayoutError(f"density matrix must be square, got {m.shape}")
        layout.check_matches(m.shape[0])
        dev = hermitian_deviation(m)
        if dev > hermitian_tol:
            raise EncodingError(f"density deviates from Hermitian by {dev:.3e}")
        m = hermitian_part(m)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > trace_tol:
            raise EncodingError(f"density trace {tr!r} deviates from 1 beyond {trace_tol}")
        lam_min = float(np.linalg.eigvalsh(m)[0])
        if lam_min < -psd_tol:
            raise EncodingError(f"density is not PSD (min eigenvalue {lam_min:.3e})")
        m.setflags(write=False)
        self.matrix = m
        self.layout = layout

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _row_norms(x: TrainingSet) -> np.ndarray:
    norms = np.linalg.norm(x.features, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise EncodingError(f"sample {bad} has zero norm and cannot be encoded")
    return norms


def kernel_density(x: TrainingSet) -> DensityMatrix:
    """Trace-normalized linear-kernel density: Tr_2 |X><X| = X X^T / ||X||_F^2."""
    _row_norms(x)
    f = x.features
    return DensityMatrix(f @ f.T / np.sum(f * f), TensorLayout((x.sample_count,)))


def label_state(y: np.ndarray) -> StateVector:
    """|y> = y / ||y||; all-zero label vectors cannot be encoded."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    return StateVector.normalized(y, TensorLayout((y.shape[0],)))


def laplacian_density(g: SampleGraph) -> DensityMatrix:
    """Tr_2 |G_I><G_I| = G_I G_I^T / m: the degree-normalized Laplacian
    divided by m (every row of G_I is a unit vector)."""
    gi = incidence_matrix(g)
    return DensityMatrix(gi @ gi.T / g.vertex_count, TensorLayout((g.vertex_count,)))
