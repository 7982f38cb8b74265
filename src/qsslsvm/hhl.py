"""Phase-estimation based linear algebra on quantum-encoded data.

The solve path prepares an eigenvalue register by quantum phase
estimation, writes c/lambda onto a flag branch by a conditional rotation
(filtering eigenvalues below a threshold), uncomputes the clock, and
postselects the flag, leaving a state proportional to the
filtered pseudo-inverse applied to the input.  The multiplication variant
writes lambda instead of c/lambda and yields A|b>/||A|b>||.

Both run in closed form from one spectral decomposition A = sum_i lambda_i
v_i v_i^dagger, passed in or made from the matrix.  A thin one, holding
only the nonzero eigenpairs, gives the same state: an eigenvalue 0 reads
clock 0, whose gain is 0 in both.  With c_i = <v_i|b>, clock size T and
evolution time t0, phase estimation reads clock y on
eigenvector i with probability w[y, i], the Fejer kernel
sin^2(pi u_i) / (T^2 sin^2(pi (u_i - y) / T)) centred on the eigenphase
in clock bins u_i = lambda_i t0 T / (2 pi), evaluated in real float64 with
no clock-sized complex array or FFT.  A rotation with per-clock gain g_y
followed by uncomputation and postselection leaves
sum_i c_i (sum_y g_y w[y, i]) v_i in clock 0, with success probability
sum_i |c_i|^2 sum_y g_y^2 w[y, i]; the clock distribution is w @ |c|^2.
The circuit itself -- the clock (x) system array, the flag register, the
inverse QFT, the controlled evolutions and the Walsh transform -- is the
test oracle in ``tests/dilation.py``, and so is w as the FFT of the
controlled-evolution phases, |fft(exp(i t0 outer(arange(T), lambda)),
axis=0) / T|^2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .encodings import DensityMatrix, StateVector
from .errors import (
    AmplitudeOverflowError,
    ConfigurationError,
    DegenerateSystemError,
    LayoutError,
    NumericalError,
    ParameterError,
)
from .linalg import SpectralDecomposition, hermitian_eig


@dataclass(frozen=True)
class QPEConfig:
    """Clock size and evolution time for phase estimation.

    ``evolution_time`` of ``None`` auto-scales so the largest eigenvalue
    sits at phase 1/2, which makes it exactly representable on any clock.
    """

    clock_qubits: int = 8
    evolution_time: float | None = None

    def __post_init__(self):
        q = self.clock_qubits
        if isinstance(q, bool) or not isinstance(q, numbers.Real) or not float(q).is_integer():
            raise ConfigurationError(f"clock_qubits must be an integer, got {q}")
        if not 2 <= q <= 12:
            raise ConfigurationError(f"clock_qubits must be in [2, 12], got {q}")
        object.__setattr__(self, "clock_qubits", int(q))
        if self.evolution_time is not None and not self.evolution_time > 0:
            raise ConfigurationError(
                f"evolution_time must be positive, got {self.evolution_time}"
            )

    @property
    def clock_dim(self) -> int:
        return 2**self.clock_qubits


@dataclass(frozen=True)
class HHLResult:
    """Postselected solution state with diagnostics.

    ``retained_eigenvalues`` has one entry per eigenvalue lambda_i >= sigma
    of the matrix: the clock estimate at the peak of its phase-estimation
    weights w[:, i] (the nearest bin, half-bin ties to the lower), in
    descending order.
    """

    solution_state: StateVector
    success_probability: float
    retained_eigenvalues: tuple[float, ...]


def default_evolution_time(lam_max: float) -> float:
    """t0 placing the largest eigenvalue at phase 1/2 (t0 = pi / lam_max)."""
    if lam_max <= 0:
        return 1.0
    return math.pi / lam_max


def _spectrum(a) -> SpectralDecomposition:
    """``a`` if already decomposed, else the decomposition of its matrix."""
    if isinstance(a, SpectralDecomposition):
        return a
    return hermitian_eig(a.matrix if isinstance(a, DensityMatrix) else a)


def _as_unit_state(b, dim: int) -> np.ndarray:
    if isinstance(b, StateVector):
        vec = b.amplitudes
    else:
        vec = np.ascontiguousarray(b, dtype=np.complex128).reshape(-1)
        n = np.linalg.norm(vec)
        if n == 0:
            raise ParameterError("input state must be nonzero")
        vec = vec / n
    if vec.shape[0] != dim:
        raise LayoutError(f"state dimension {vec.shape[0]} does not match matrix {dim}")
    return vec


#: 1/(2 pi) as the unevaluated sum of two doubles (about 106 bits).
_INV_TWO_PI = (0.15915494309189535, -9.839338337591243e-18)

#: Dekker's splitting constant 2^27 + 1.
_SPLIT = 134217729.0


def _split(a):
    """(hi, lo) with hi + lo == a and hi holding the top 26 bits (Veltkamp)."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker), for
    magnitudes far from overflow."""
    p = a * b
    (a1, a2), (b1, b2) = _split(a), _split(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _clock_bins(lam: np.ndarray, t0: float, clock_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest clock bin n = rint(u) and offset f = u - n of the eigenphases
    in clock bins, u = lambda t0 T / (2 pi) for lambda >= 0.

    u is carried as a double-double, so f is accurate to ~1e-16 absolute
    however large u is; a float64 u is off by up to an ulp of T, which
    moves a Fejer weight by ~1e-12 at T = 4096.
    """
    tm, te = math.frexp(t0)
    s_hi, s_lo = _two_product(tm, _INV_TWO_PI[0])
    s_lo += tm * _INV_TWO_PI[1]  # s_hi + s_lo = t0 / (2 pi) / 2^te
    lm, le = np.frexp(lam)
    hi, lo = _two_product(lm, s_hi)
    lo += lm * s_lo
    hi, lo = np.ldexp(hi, le + te) * clock_dim, np.ldexp(lo, le + te) * clock_dim
    nearest = np.rint(hi)
    return nearest, (hi - nearest) + lo


def _clock_weights(
    eig: SpectralDecomposition, t0: float, clock_dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalue estimate of each clock state, the phase-estimation
    weights w[y, i] (the probability of reading clock y on eigenvector i)
    and the peak clock of each eigenvector.

    w is the Fejer kernel centred on u_i = lambda_i t0 T / (2 pi) in clock
    bins: with u_i = n_i + f_i (n_i = rint(u_i), |f_i| <= 1/2),
    w[y, i] = sin^2(pi f_i) / (T^2 sin^2(pi (u_i - y) / T)).  The
    denominator is the real outer-product difference
    sin a_i cos b_y - cos a_i sin b_y (a = pi u / T, b = pi y / T), one
    (T, 2) @ (2, m) product.  It cancels near the peak, so the bins n_i
    and n_i +- 1 (mod T) are evaluated from f_i directly, the peak as
    (sinc(f_i) / sinc(f_i / T))^2: a column with f_i == 0 is the unit
    vector at its bin.  The peak is the nearest bin, half-bin ties to the
    lower, ceil(u_i - 1/2) mod T: the argmax of w[:, i].  Eigenvalues in
    [-1e-8, 0), which both callers accept as PSD, are read as 0 (clock 0,
    gain 0); all phases must be < 1.
    """
    lam = np.maximum(eig.eigenvalues, 0.0)
    phases = lam * t0 / (2.0 * np.pi)
    if np.any(phases >= 1.0 - 1e-12):
        raise ConfigurationError(
            f"eigenphases must lie in [0, 1); got range "
            f"[{phases.min():.4g}, {phases.max():.4g}] -- rescale t0"
        )
    nearest, f = _clock_bins(lam, t0, clock_dim)
    bins = nearest.astype(np.intp) % clock_dim
    cols = np.arange(lam.size)
    a = np.pi * phases
    b = np.pi * np.arange(clock_dim) / clock_dim
    weights = np.column_stack((np.cos(b), -np.sin(b))) @ np.stack((np.sin(a), np.cos(a)))
    for k in (-1, 1):
        weights[(bins + k) % clock_dim, cols] = np.sin(np.pi * (f - k) / clock_dim)
    weights[bins, cols] = 1.0
    np.divide(np.sin(np.pi * f) / clock_dim, weights, out=weights)
    np.square(weights, out=weights)
    weights[bins, cols] = (np.sinc(f) / np.sinc(f / clock_dim)) ** 2
    peaks = np.ceil(nearest + f - 0.5).astype(np.intp) % clock_dim
    lam_hat = 2.0 * np.pi * np.arange(clock_dim) / (clock_dim * t0)
    return lam_hat, weights, peaks


def _apply(v: np.ndarray, z: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """``v @ z``, or ``v^dagger @ z``, for a C-contiguous complex128 vector
    z.  Real eigenvectors multiply the float64 ``(m, 2)`` view of z's real
    and imaginary parts, so numpy makes no complex copy of them."""
    if np.iscomplexobj(v):
        return (v.conj().T if adjoint else v) @ z
    parts = (v.T if adjoint else v) @ z.view(np.float64).reshape(-1, 2)
    return parts.view(np.complex128).reshape(-1)


def _postselected(
    eig: SpectralDecomposition, coeff: np.ndarray, weights: np.ndarray, gain: np.ndarray,
    failure: str,
) -> tuple[StateVector, float]:
    """Unit clock-0 system state and success probability after the flag
    rotation |y> -> gain_y |1>|y> + sqrt(1 - gain_y^2) |0>|y>, clock
    uncomputation and postselection of flag 1.

    Uncomputing the clock leaves sum_i c_i (sum_y g_y w[y, i]) v_i in
    clock 0, and the flagged branch has norm^2 sum_i |c_i|^2 sum_y g_y^2
    w[y, i]; ``DegenerateSystemError(failure)`` when either vanishes.
    """
    solution = _apply(eig.eigenvectors, coeff * (gain @ weights))
    p_success = float((gain**2 @ weights) @ np.abs(coeff) ** 2)
    norm = np.linalg.norm(solution)
    if p_success <= 1e-24 or norm <= 1e-12:
        raise DegenerateSystemError(failure)
    return StateVector(solution / norm), p_success


def hhl_solve(a_hat, b, sigma_thresh: float, cfg: QPEConfig) -> HHLResult:
    """Produce a state proportional to the eigenvalue-filtered inverse of
    ``a_hat`` (a matrix, a ``DensityMatrix`` or its ``SpectralDecomposition``)
    applied to ``b``.

    The rotation gain is sigma/lambda_hat on clock estimates lambda_hat >=
    sigma and 0 below.  Exact (fidelity 1 up to roundoff) whenever every
    retained eigenvalue is exactly representable at the clock resolution;
    otherwise the error vanishes as the clock grows.
    """
    if sigma_thresh <= 0:
        raise ParameterError(f"sigma_thresh must be positive, got {sigma_thresh}")
    eig = _spectrum(a_hat)
    lam = eig.eigenvalues
    if lam[-1] < -1e-8:
        raise NumericalError(f"matrix must be PSD, min eigenvalue {lam[-1]:.3e}")
    if lam[0] < sigma_thresh:
        raise DegenerateSystemError(
            f"every eigenvalue lies below the filter threshold {sigma_thresh}"
        )
    vec = _as_unit_state(b, eig.eigenvectors.shape[0])
    t0 = cfg.evolution_time
    if t0 is None:
        t0 = default_evolution_time(float(lam[0]))
    lam_hat, weights, peak_bins = _clock_weights(eig, t0, cfg.clock_dim)
    retained = lam_hat >= sigma_thresh
    gain = np.zeros(cfg.clock_dim)
    gain[retained] = sigma_thresh / lam_hat[retained]
    coeff = _apply(eig.eigenvectors, vec, adjoint=True)
    state, p_success = _postselected(
        eig, coeff, weights, gain, "no eigenvalue mass survived the filter threshold"
    )
    peaks = lam_hat[peak_bins[lam >= sigma_thresh]]
    return HHLResult(state, p_success, tuple(float(v) for v in np.sort(peaks)[::-1]))


def quantum_multiply(k, y, cfg: QPEConfig) -> StateVector:
    """State proportional to K y via phase estimation and an eigenvalue
    (not inverse-eigenvalue) conditional rotation; ``k`` as for ``hhl_solve``.

    The rotation gain is lambda_hat, and 0 on estimates above 1, which
    cannot be written as amplitudes; the true spectrum must lie in [0, 1]
    (``NumericalError`` below, ``AmplitudeOverflowError`` above).  The
    default evolution time here is pi, putting eigenvalue 1 at phase 1/2,
    so dyadic spectra of trace-normalized kernels are exact.
    """
    eig = _spectrum(k)
    lam = eig.eigenvalues
    if lam[-1] < -1e-8:
        raise NumericalError(f"matrix must be PSD, min eigenvalue {lam[-1]:.3e}")
    if lam[0] > 1.0 + 1e-9:
        raise AmplitudeOverflowError(
            f"eigenvalue {lam[0]:.6g} exceeds the unit multiplication range"
        )
    vec = _as_unit_state(y, eig.eigenvectors.shape[0])
    t0 = math.pi if cfg.evolution_time is None else cfg.evolution_time
    lam_hat, weights, _ = _clock_weights(eig, t0, cfg.clock_dim)
    gain = np.where(lam_hat <= 1.0 + 1e-12, np.minimum(lam_hat, 1.0), 0.0)
    coeff = _apply(eig.eigenvectors, vec, adjoint=True)
    return _postselected(eig, coeff, weights, gain, "matrix-vector product is zero")[0]
