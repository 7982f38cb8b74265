"""Phase-estimation based linear algebra on quantum-encoded data.

The solve path prepares an eigenvalue register by quantum phase
estimation, writes c/lambda onto a flag branch by a conditional rotation
(filtering eigenvalues below a threshold), uncomputes the clock, and
postselects the flag, leaving a state proportional to the
filtered pseudo-inverse applied to the input.  The multiplication variant
writes lambda instead of c/lambda and yields A|b>/||A|b>||.

Controlled evolutions are synthesized from the spectral decomposition of
the matrix.  The sample-based channel construction cannot be applied
controlled inside a pure-state circuit -- it is a channel, not a unitary --
so its composition with phase estimation is provided separately as a
density-matrix demonstration (:func:`glmr_phase_estimation`), with the
channel itself certified standalone in :mod:`qsslsvm.channels`.  That
demonstration updates each clock block of the density matrix in closed
form (see its docstring); the dilated circuit it reduces, with the program
copy and control registers kept explicitly, is the test oracle in
``tests/dilation.py``.
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
from .linalg import (
    SpectralDecomposition,
    TensorLayout,
    as_complex_matrix,
    hermitian_eig,
    partial_trace,
)

#: Clock-mass threshold below which a grid eigenvalue is not reported.
_MASS_TOL = 1e-12


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
class PhaseGrid:
    """Mapping between clock basis states and eigenvalue estimates."""

    clock_dim: int
    evolution_time: float

    def eigenvalue(self, y) -> np.ndarray:
        """Decode clock index y to lambda_hat = 2 pi y / (T t0)."""
        return 2.0 * np.pi * np.asarray(y, dtype=np.float64) / (self.clock_dim * self.evolution_time)

    def phase(self, lam) -> np.ndarray:
        return np.asarray(lam, dtype=np.float64) * self.evolution_time / (2.0 * np.pi)


@dataclass(frozen=True)
class QPEState:
    """Entangled clock (x) system state with its decoding metadata."""

    state: StateVector
    grid: PhaseGrid
    basis: SpectralDecomposition

    @property
    def clock_dim(self) -> int:
        return self.grid.clock_dim

    @property
    def system_dim(self) -> int:
        return self.state.dim // self.grid.clock_dim

    def array(self) -> np.ndarray:
        return self.state.amplitudes.reshape(self.clock_dim, self.system_dim)

    def clock_distribution(self) -> np.ndarray:
        """Probability of reading each clock basis state."""
        arr = self.array()
        return np.sum(np.abs(arr) ** 2, axis=1)


@dataclass(frozen=True)
class FlaggedState:
    """Flag (x) clock (x) system state after a conditional rotation.

    Flag index 1 is the success branch.
    """

    state: StateVector
    grid: PhaseGrid
    basis: SpectralDecomposition

    def array(self) -> np.ndarray:
        t = self.grid.clock_dim
        return self.state.amplitudes.reshape(2, t, -1)

    def success_block(self) -> np.ndarray:
        return self.array()[1]


@dataclass(frozen=True)
class HHLResult:
    """Postselected solution state with diagnostics."""

    solution_state: StateVector
    success_probability: float
    retained_eigenvalues: tuple[float, ...]


def default_evolution_time(lam_max: float) -> float:
    """t0 placing the largest eigenvalue at phase 1/2 (t0 = pi / lam_max)."""
    if lam_max <= 0:
        return 1.0
    return math.pi / lam_max


def _as_hermitian(a) -> np.ndarray:
    if isinstance(a, DensityMatrix):
        return a.matrix
    return as_complex_matrix(a)


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


def phase_estimation(a_hat, b, cfg: QPEConfig) -> QPEState:
    """Entangle a clock register with the eigencomponents of ``b``.

    The clock distribution peaks at the dyadic approximations of
    lambda_i t0 / (2 pi); exactly representable eigenvalues give a sharp
    clock.  All eigenphases must lie in [0, 1).
    """
    a = _as_hermitian(a_hat)
    eig = hermitian_eig(a)
    vec = _as_unit_state(b, a.shape[0])
    t0 = cfg.evolution_time
    if t0 is None:
        t0 = default_evolution_time(float(eig.eigenvalues[0]))
    grid = PhaseGrid(cfg.clock_dim, float(t0))
    phases = grid.phase(eig.eigenvalues)
    if np.any(phases < -1e-12) or np.any(phases >= 1.0 - 1e-12):
        raise ConfigurationError(
            f"eigenphases must lie in [0, 1); got range "
            f"[{phases.min():.4g}, {phases.max():.4g}] -- rescale t0"
        )
    t = cfg.clock_dim
    coeff = eig.eigenvectors.conj().T @ vec
    ks = np.arange(t)
    # rows k = U^k |b> / sqrt(T) with U = exp(i a t0), then inverse QFT
    amps = np.exp(1j * t0 * np.outer(ks, eig.eigenvalues)) * coeff[None, :]
    arr = (amps @ eig.eigenvectors.T) / math.sqrt(t)
    arr = np.fft.fft(arr, axis=0) / math.sqrt(t)
    return QPEState(
        StateVector(arr.reshape(-1), TensorLayout((t, a.shape[0]))), grid, eig
    )


def conditional_rotation_invert(
    qpe: QPEState, sigma_thresh: float, c_const: float | None = None
) -> FlaggedState:
    """Write amplitude c/lambda_hat on the success branch for retained
    eigenvalue estimates; estimates below ``sigma_thresh`` go to the
    failure branch (eigenvalue filtering)."""
    if sigma_thresh <= 0:
        raise ParameterError(f"sigma_thresh must be positive, got {sigma_thresh}")
    c = sigma_thresh if c_const is None else float(c_const)
    if c <= 0:
        raise ParameterError(f"c_const must be positive, got {c}")
    t = qpe.clock_dim
    lam_hat = qpe.grid.eigenvalue(np.arange(t))
    retained = lam_hat >= sigma_thresh
    if retained.any() and c > lam_hat[retained].min() * (1 + 1e-12):
        raise AmplitudeOverflowError(
            f"c_const {c} exceeds the smallest retained eigenvalue estimate "
            f"{lam_hat[retained].min():.6g}"
        )
    gain = np.zeros(t)
    gain[retained] = c / lam_hat[retained]
    return _apply_rotation(qpe, gain)


def conditional_rotation_multiply(qpe: QPEState) -> FlaggedState:
    """Write amplitude lambda_hat on the success branch.

    Estimates above 1 cannot be written as amplitudes; the true spectrum
    must stay within [0, 1], and out-of-range clock tails are routed to
    the failure branch.
    """
    lam_max = float(qpe.basis.eigenvalues[0])
    if lam_max > 1.0 + 1e-9:
        raise AmplitudeOverflowError(
            f"eigenvalue {lam_max:.6g} exceeds the unit multiplication range"
        )
    t = qpe.clock_dim
    lam_hat = qpe.grid.eigenvalue(np.arange(t))
    gain = np.where(lam_hat <= 1.0 + 1e-12, np.minimum(lam_hat, 1.0), 0.0)
    return _apply_rotation(qpe, gain)


def _apply_rotation(qpe: QPEState, gain: np.ndarray) -> FlaggedState:
    """Flag isometry: |y> -> gain_y |1>|y> + sqrt(1 - gain_y^2) |0>|y>."""
    arr = qpe.array()
    t, d = arr.shape
    residue = np.sqrt(np.clip(1.0 - gain**2, 0.0, None))
    flagged = np.stack([arr * residue[:, None], arr * gain[:, None]])
    return FlaggedState(
        StateVector(flagged.reshape(-1), TensorLayout((2, t, d))), qpe.grid, qpe.basis
    )


def _walsh_transform(arr: np.ndarray) -> np.ndarray:
    """Hadamard transform H^(x)c along axis 0 (length a power of two)."""
    t, d = arr.shape
    out = arr.copy()
    h = 1
    while h < t:
        out = out.reshape(t // (2 * h), 2, h, d)
        top = out[:, 0] + out[:, 1]
        bot = out[:, 0] - out[:, 1]
        out = np.stack([top, bot], axis=1).reshape(t, d)
        h *= 2
    return out / math.sqrt(t)


def _uncompute_clock(arr: np.ndarray, grid: PhaseGrid, basis: SpectralDecomposition) -> np.ndarray:
    """Inverse of the phase-estimation unitary on a clock (x) system array."""
    t, _ = arr.shape
    out = np.fft.ifft(arr, axis=0) * math.sqrt(t)
    coeff = out @ basis.eigenvectors.conj()
    ks = np.arange(t)
    coeff = coeff * np.exp(-1j * grid.evolution_time * np.outer(ks, basis.eigenvalues))
    out = coeff @ basis.eigenvectors.T
    return _walsh_transform(out)


def _postselect(flagged: FlaggedState) -> tuple[np.ndarray, float]:
    """Uncompute the clock on both branches, project the success flag,
    and return the clock-0 system block with the success probability."""
    blocks = flagged.array()
    success = _uncompute_clock(blocks[1], flagged.grid, flagged.basis)
    p_success = float(np.sum(np.abs(success) ** 2))
    return success[0, :], p_success


def hhl_solve(a_hat, b, sigma_thresh: float, cfg: QPEConfig) -> HHLResult:
    """Produce a state proportional to the eigenvalue-filtered inverse of
    ``a_hat`` applied to ``b``.

    Exact (fidelity 1 up to roundoff) whenever every retained eigenvalue
    is exactly representable at the clock resolution; otherwise the error
    vanishes as the clock grows.
    """
    a = _as_hermitian(a_hat)
    spectrum = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if spectrum[0] < -1e-8:
        raise NumericalError(f"matrix must be PSD, min eigenvalue {spectrum[0]:.3e}")
    if spectrum[-1] < sigma_thresh:
        raise DegenerateSystemError(
            f"every eigenvalue lies below the filter threshold {sigma_thresh}"
        )
    qpe = phase_estimation(a, b, cfg)
    flagged = conditional_rotation_invert(qpe, sigma_thresh)
    solution, p_success = _postselect(flagged)
    norm = np.linalg.norm(solution)
    if p_success <= 1e-24 or norm <= 1e-12:
        raise DegenerateSystemError(
            "no eigenvalue mass survived the filter threshold"
        )
    retained = _retained_eigenvalues(qpe, sigma_thresh)
    return HHLResult(
        StateVector(solution / norm, TensorLayout((solution.shape[0],))),
        p_success,
        retained,
    )


def quantum_multiply(k, y, cfg: QPEConfig) -> StateVector:
    """State proportional to K y via phase estimation and an eigenvalue
    (not inverse-eigenvalue) conditional rotation.

    The default evolution time here is pi, putting eigenvalue 1 at phase
    1/2, so dyadic spectra of trace-normalized kernels are exact.
    """
    a = _as_hermitian(k)
    if cfg.evolution_time is None:
        cfg = QPEConfig(cfg.clock_qubits, math.pi)
    qpe = phase_estimation(a, y, cfg)
    flagged = conditional_rotation_multiply(qpe)
    solution, p_success = _postselect(flagged)
    norm = np.linalg.norm(solution)
    if p_success <= 1e-24 or norm <= 1e-12:
        raise DegenerateSystemError("matrix-vector product is zero")
    return StateVector(solution / norm, TensorLayout((solution.shape[0],)))


def _retained_eigenvalues(qpe: QPEState, sigma_thresh: float) -> tuple[float, ...]:
    mass = qpe.clock_distribution()
    lam_hat = qpe.grid.eigenvalue(np.arange(qpe.clock_dim))
    keep = (mass > _MASS_TOL) & (lam_hat >= sigma_thresh)
    vals = sorted((float(v) for v in lam_hat[keep]), reverse=True)
    return tuple(vals)


@dataclass(frozen=True)
class GlmrPhaseEstimate:
    """Clock readout of the channel-backed density-matrix phase estimation."""

    clock_probabilities: np.ndarray
    state: DensityMatrix


def glmr_phase_estimation(
    sources,
    b,
    cfg: QPEConfig,
    steps_per_unit: int = 2000,
) -> GlmrPhaseEstimate:
    """Phase estimation with controlled evolutions realized by the
    program-state channel (density-matrix demonstration mode).

    Each controlled power of the evolution is decomposed into repeated
    short channel steps, each consuming a fresh copy of the (mixed)
    program state, conditioned on one clock qubit.  Accuracy improves with
    ``steps_per_unit``; this path is a demonstration, the coherent solver
    synthesizes its evolutions from the spectral decomposition.

    Tracing out the control and the program copy leaves a closed form on
    each clock block X = rho[y, y'] of the clock (x) system density.  With
    c, s = cos dt, sin dt, B = rho'' - rho''' and R = rho'' + rho''', a
    step controlled on one clock bit maps X to the full channel step
    c^2 X + s^2 tr(X) R - i c s [B, X] when that bit is 1 in both y and
    y', to c X - i s B X when it is 1 in y only, to c X + i s X B when it
    is 1 in y' only, and leaves X unchanged otherwise.
    """
    if steps_per_unit < 1:
        raise ParameterError(f"steps_per_unit must be >= 1, got {steps_per_unit}")
    if isinstance(sources, ProgramState):
        mixture = sources
    else:
        mixture = mix_program_states(sources)
    d = mixture.system_dim
    vec = _as_unit_state(b, d)
    t = cfg.clock_dim
    generator = mixture.generator / mixture.scale
    t0 = cfg.evolution_time
    if t0 is None:
        t0 = default_evolution_time(float(np.linalg.eigvalsh(generator)[-1]))

    # clock (T) x system (d) density as blocks X[y, y'] = rho[y, :, y', :],
    # starting from the Walsh-transformed clock |+...+> times |b>
    clock_sys = np.tile(vec, (t, 1)) / math.sqrt(t)
    rho = np.einsum("ya,zb->yazb", clock_sys, clock_sys.conj())
    b_op, r_op = mixture.step_operators()
    dt = -t0 / steps_per_unit
    c, s = math.cos(dt), math.sin(dt)
    for j in range(cfg.clock_qubits):
        on = ((np.arange(t) >> j) & 1).astype(np.float64)
        alpha = 1.0 + (c - 1.0) * on
        coeff = np.outer(alpha, alpha)[:, None, :, None]
        left = (-1j * s * np.outer(on, alpha))[:, None, :, None]
        right = (1j * s * np.outer(alpha, on))[:, None, :, None]
        refill = (s * s * np.outer(on, on))[:, :, None, None] * r_op
        for _ in range(steps_per_unit * (2**j)):
            bx = np.einsum("ab,ybzc->yazc", b_op, rho)
            xb = np.einsum("yazb,bc->yazc", rho, b_op)
            trace = np.einsum("yaza->yz", rho)
            rho = (coeff * rho + left * bx + right * xb
                   + np.einsum("yz,yzab->yazb", trace, refill))

    # inverse QFT on the clock: F rho F^dagger with F the unitary DFT
    rho = np.fft.ifft(np.fft.fft(rho, axis=0, norm="ortho"), axis=2, norm="ortho")
    state = DensityMatrix(
        rho.reshape(t * d, t * d), TensorLayout((t, d)),
        hermitian_tol=1e-8, psd_tol=1e-7, trace_tol=1e-8,
    )
    probs = np.real(np.diag(partial_trace(state.matrix, state.layout, 1)))
    return GlmrPhaseEstimate(probs, state)
