"""Phase-estimation based linear algebra on quantum-encoded data.

The solve path prepares an eigenvalue register by quantum phase
estimation, writes c/lambda onto a flag branch by a conditional rotation
(filtering eigenvalues below a threshold), uncomputes the clock, and
postselects the flag, leaving a state proportional to the
filtered pseudo-inverse applied to the input.  The multiplication variant
writes lambda instead of c/lambda and yields A|b>/||A|b>||.

Both run in closed form from one spectral decomposition A = sum_i lambda_i
v_i v_i^dagger, passed in or made from the matrix.  With c_i = <v_i|b>,
clock size T and evolution time t0, phase estimation reads clock y on
eigenvector i with probability
w[y, i] = |a[y, i]|^2, a = fft(exp(i t0 outer(arange(T), lambda)), axis=0)
/ T (a Fejer kernel).  A rotation with per-clock gain g_y followed by
uncomputation and postselection leaves sum_i c_i (sum_y g_y w[y, i]) v_i
in clock 0, with success probability sum_i |c_i|^2 sum_y g_y^2 w[y, i];
the clock distribution is w @ |c|^2.  The circuit itself -- the clock (x)
system array, the flag register, the inverse QFT, the controlled
evolutions and the Walsh transform -- is the test oracle in
``tests/dilation.py``.

Controlled evolutions are synthesized from the spectral decomposition of
the matrix.  The sample-based channel construction cannot be applied
controlled inside a pure-state circuit -- it is a channel, not a unitary --
so its composition with phase estimation is provided separately as a
density-matrix demonstration (:func:`glmr_phase_estimation`), with the
channel itself certified standalone in :mod:`qsslsvm.channels`.  In the
eigenbasis of the channel generator B, the diagonals D[y, y', a] of the
clock blocks of that density form a closed subsystem: each clock qubit
multiplies them by a power of c -/+ i s lam_a where its bit is set in y
or y' only, and mixes them towards tr(D) diag(R~) where it is set in
both, so the clock distribution follows from clock-row recursions on
T x d arrays (see its docstring).  The step-by-step clock (x) system
density (``stepwise_glmr_phase_estimation``) and the dilated circuit with
the program copy and control registers kept explicitly
(``dense_glmr_phase_estimation``) are the oracles in ``tests/dilation.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ProgramState, mix_program_states
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
        if not 2 <= self.clock_qubits <= 12:
            raise ConfigurationError(
                f"clock_qubits must be in [2, 12], got {self.clock_qubits}"
            )
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
    weights w[:, i], in descending order.
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


def _clock_weights(
    eig: SpectralDecomposition, t0: float, clock_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue estimate of each clock state and the phase-estimation
    weights w[y, i], the probability of reading clock y on eigenvector i.

    The clock amplitude on eigenvector i is the DFT of its controlled
    evolution phases, a[y, i] = (1/T) sum_k exp(i t0 k lambda_i)
    exp(-2 pi i y k / T), so w = |a|^2 is the Fejer kernel centred on
    lambda_i t0 T / (2 pi).  All eigenphases must lie in [0, 1).
    """
    phases = eig.eigenvalues * t0 / (2.0 * np.pi)
    if np.any(phases < -1e-12) or np.any(phases >= 1.0 - 1e-12):
        raise ConfigurationError(
            f"eigenphases must lie in [0, 1); got range "
            f"[{phases.min():.4g}, {phases.max():.4g}] -- rescale t0"
        )
    ks = np.arange(clock_dim)
    amps = np.fft.fft(np.exp(1j * t0 * np.outer(ks, eig.eigenvalues)), axis=0) / clock_dim
    return 2.0 * np.pi * ks / (clock_dim * t0), np.abs(amps) ** 2


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
    solution = eig.eigenvectors @ (coeff * (gain @ weights))
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
    vec = _as_unit_state(b, lam.shape[0])
    t0 = cfg.evolution_time
    if t0 is None:
        t0 = default_evolution_time(float(lam[0]))
    lam_hat, weights = _clock_weights(eig, t0, cfg.clock_dim)
    retained = lam_hat >= sigma_thresh
    gain = np.zeros(cfg.clock_dim)
    gain[retained] = sigma_thresh / lam_hat[retained]
    coeff = eig.eigenvectors.conj().T @ vec
    state, p_success = _postselected(
        eig, coeff, weights, gain, "no eigenvalue mass survived the filter threshold"
    )
    peaks = lam_hat[np.argmax(weights[:, lam >= sigma_thresh], axis=0)]
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
    vec = _as_unit_state(y, lam.shape[0])
    t0 = math.pi if cfg.evolution_time is None else cfg.evolution_time
    lam_hat, weights = _clock_weights(eig, t0, cfg.clock_dim)
    gain = np.where(lam_hat <= 1.0 + 1e-12, np.minimum(lam_hat, 1.0), 0.0)
    coeff = eig.eigenvectors.conj().T @ vec
    return _postselected(eig, coeff, weights, gain, "matrix-vector product is zero")[0]


def glmr_phase_estimation(
    sources,
    b,
    cfg: QPEConfig,
    steps_per_unit: int = 2000,
) -> np.ndarray:
    """Clock distribution of phase estimation whose controlled evolutions
    are realized by the program-state channel (density-matrix demonstration
    mode).

    Clock qubit j controls n_j = steps_per_unit * 2^j channel steps of
    dt = -t0 / steps_per_unit, each consuming a fresh copy of the (mixed)
    program state.  Accuracy improves with ``steps_per_unit``; the coherent
    solver synthesizes its evolutions from the spectral decomposition.

    With c, s = cos dt, sin dt, B = rho'' - rho''' = V diag(lam) V^dagger
    and R = rho'' + rho''', the diagonals D[y, y', a] of the clock blocks
    V^dagger rho[y, y'] V form a closed subsystem.  Clock qubit j
    multiplies D[y, y', a] by (c - i s lam_a)^n_j where bit j is set in y
    only and by (c + i s lam_a)^n_j where it is set in y' only; where it
    is set in both it maps D -> c^(2 n_j) D + (1 - c^(2 n_j)) tr(D) r with
    r = diag(V^dagger R V), and where it is set in neither it leaves D
    alone.  These maps do not commute; they apply for j = 0, 1, ... in
    turn.  The clock distribution is diag(F tau F^dagger), with
    tau[y, y'] = sum_a D[y, y', a] and F the unitary DFT, accumulated one
    clock row y at a time, so memory is O(T d).  The step-by-step clock
    (x) system density is the test oracle
    ``tests/dilation.py::stepwise_glmr_phase_estimation``.
    """
    if steps_per_unit < 1:
        raise ParameterError(f"steps_per_unit must be >= 1, got {steps_per_unit}")
    if isinstance(sources, ProgramState):
        mixture = sources
    else:
        mixture = mix_program_states(sources)
    vec = _as_unit_state(b, mixture.system_dim)
    t = cfg.clock_dim
    b_op, r_op = mixture.step_operators()
    eig = hermitian_eig(b_op)
    lam, v = eig.eigenvalues, eig.eigenvectors
    t0 = cfg.evolution_time
    if t0 is None:
        t0 = default_evolution_time(float(lam[0]))
    dt = -t0 / steps_per_unit
    c, s = math.cos(dt), math.sin(dt)
    with np.errstate(divide="ignore"):
        log_abs = 0.5 * np.log1p(-s * s * (1.0 - lam * lam))  # log|c - i s lam|
        log_c2 = float(np.log1p(-s * s))
    clock = np.arange(t)
    maps = []
    for j in range(cfg.clock_qubits):
        n_j = steps_per_unit * 2**j
        left = np.exp(n_j * log_abs + 1j * (n_j * np.arctan2(-s * lam, c)))
        on = ((clock >> j) & 1).astype(bool)
        maps.append((on, left, math.exp(n_j * log_c2), -math.expm1(n_j * log_c2)))
    refill = np.real(np.einsum("ka,kl,la->a", v.conj(), r_op, v))
    start = (np.abs(v.conj().T @ vec) ** 2 / t).astype(np.complex128)
    probs = np.zeros(t)
    for y in range(t):
        row = np.tile(start, (t, 1))  # D[y, y', a] over y' and a
        for on, left, damp, fill in maps:
            if on[y]:
                row[~on] *= left
                both = row[on]
                row[on] = damp * both + fill * both.sum(axis=1, keepdims=True) * refill
            else:
                row[on] *= left.conj()
        column = np.exp(-2j * np.pi * clock * y / t) / math.sqrt(t)  # F[:, y]
        probs += np.real(column * np.fft.ifft(row.sum(axis=1), norm="ortho"))
    return probs
