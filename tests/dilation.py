"""Circuit-level dilations of the sample-based simulation primitives, of
the phase-estimation solver, of the data encodings and of the overlap
readout.

Test oracle only.  Each function builds the full tensor-product circuit --
swap and cyclic-permutation matrices, controlled partial swaps, Kronecker
products with the program copies and partial traces over them, and the
clock (x) system and flag (x) clock (x) system arrays of phase estimation,
conditional rotation and uncomputation -- that the closed forms in
``qsslsvm.channels`` and ``qsslsvm.hhl`` reduce to d x d algebra.  A
dilated channel step costs O(d^6), so these run only at the small
dimensions the tests use.  ``glmr_step`` is one closed-form step, the map
of ``simulate_evolution`` at ``steps=1``.  The step-by-step trajectory and
channel-backed phase estimation (``stepwise_*``, one such step at a time) are the
oracle for the loop-free channel powers: ``simulate_evolution`` and
``glmr_phase_estimation``, the closed-form channel-backed phase
estimation, a density-matrix demonstration that no pipeline stage runs
and so is kept here with its oracles.  The dense one-step error sweep
(``dense_one_step_errors``, built from ``glmr_step`` and
``exact_conjugation``) is the oracle for the pipeline's O(m^2) slope
diagnostic, and ``partial_trace`` over a
tuple of register dimensions serves the dilations.  The program state's
2d x 2d control (x) system density arises only here: the circuits build
it, check that its off-diagonal control blocks vanish and hand its two
blocks to ``ProgramState``.  The full data and incidence states with
their outer products and partial traces, and the incidence matrix G_I
the latter is built from, are the oracle for ``qsslsvm.encodings``, and the query and expansion states with the
ancilla-interference readout the oracle for ``qsslsvm.swap_test``.
``fft_clock_weights``, the phase-estimation weights as the FFT of the
controlled-evolution phases (a complex T x m array), is the oracle for the
Fejer-kernel closed form in ``qsslsvm.hhl``.
"""

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from qsslsvm.channels import (
    _CHANNEL_TOLS,
    EvolutionConfig,
    EvolutionResult,
    ProgramState,
    exact_conjugation,
    mix_program_states,
)
from qsslsvm.datasets import SampleGraph, TrainingSet
from qsslsvm.encodings import DensityMatrix, StateVector, _row_norms
from qsslsvm.errors import (
    AmplitudeOverflowError,
    ConfigurationError,
    DegenerateSystemError,
    DegreeError,
    EncodingError,
    LayoutError,
    NumericalError,
    ParameterError,
)
from qsslsvm.hhl import (
    HHLResult,
    QPEConfig,
    _as_unit_state,
    default_evolution_time,
)
from qsslsvm.linalg import SpectralDecomposition, as_matrix, hermitian_eig, hermitian_part
from qsslsvm.swap_test import ClassificationResult

#: Same validation tolerances the production channels use.
_TOLS = dict(hermitian_tol=1e-9, psd_tol=1e-8, trace_tol=1e-9)

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def partial_trace(m: np.ndarray, dims: tuple[int, ...], traced_factor: int) -> np.ndarray:
    """Trace out one tensor factor (0-based index) of a matrix on registers
    of dimensions ``dims``.

    Output dimension is the product of the remaining factor dimensions;
    the total trace is preserved.
    """
    m = as_matrix(m)
    dims = tuple(int(d) for d in dims)
    if m.shape[0] != m.shape[1]:
        raise LayoutError("partial trace needs a square matrix")
    if math.prod(dims) != m.shape[0]:
        raise LayoutError(
            f"registers {dims} have dimension {math.prod(dims)}, matrix has {m.shape[0]}"
        )
    n = len(dims)
    if not 0 <= traced_factor < n:
        raise LayoutError(f"traced factor {traced_factor} out of range for {n} factors")
    t = m.reshape(dims + dims)
    t = np.trace(t, axis1=traced_factor, axis2=n + traced_factor)
    d_rest = math.prod(dims) // dims[traced_factor]
    return np.ascontiguousarray(t.reshape(d_rest, d_rest))


def program_state_matrix(ps: ProgramState) -> np.ndarray:
    """The 2d x 2d density |0><0| (x) ps.rho0 + |1><1| (x) ps.rho1."""
    zero = np.zeros_like(ps.rho0)
    return np.block([[ps.rho0, zero], [zero, ps.rho1]])


def program_state_blocks(rho: np.ndarray) -> ProgramState:
    """``ProgramState`` from a 2d x 2d control (x) system density whose
    off-diagonal control blocks vanish; ``LayoutError`` if they do not."""
    d = rho.shape[0] // 2
    off = max(np.max(np.abs(rho[:d, d:])), np.max(np.abs(rho[d:, :d])))
    if off > 1e-12:
        raise LayoutError(f"program state has off-diagonal control blocks ({off:.3e})")
    return ProgramState(rho[:d, :d], rho[d:, d:])


def swap_operator(d: int) -> np.ndarray:
    """S = sum_{ij} |i><j| (x) |j><i| on two d-dimensional registers."""
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    s[_swap_perm(d), np.arange(d * d)] = 1.0
    return s


def _swap_perm(d: int) -> np.ndarray:
    """Index permutation realizing S: basis (i, j) -> (j, i)."""
    idx = np.arange(d * d)
    i, j = idx // d, idx % d
    return j * d + i


def cyclic_permutation(d: int) -> np.ndarray:
    """P |j1, j2, j3> = |j3, j1, j2> on three d-dimensional registers.

    P is unitary with P^3 = I.
    """
    p = np.zeros((d**3, d**3), dtype=np.complex128)
    idx = np.arange(d**3)
    a, b, c = idx // (d * d), (idx // d) % d, idx % d
    p[c * d * d + a * d + b, idx] = 1.0
    return p


def _cyclic_perm_inverse(d: int) -> np.ndarray:
    """Index array q with (P M)[x, :] = M[q[x], :] and (M P^dag)[:, x] = M[:, q[x]]."""
    idx = np.arange(d**3)
    a, b, c = idx // (d * d), (idx // d) % d, idx % d
    # inverse of (a,b,c) -> (c,a,b) is (a,b,c) -> (b,c,a)
    return b * d * d + c * d + a


def _partial_swap_unitary(d: int, dt: float) -> np.ndarray:
    """exp(-i S dt) = cos(dt) I - i sin(dt) S, using S^2 = I."""
    return math.cos(dt) * np.eye(d * d, dtype=np.complex128) - 1j * math.sin(dt) * swap_operator(d)


def lmr_step(k: DensityMatrix, sigma: DensityMatrix, dt: float) -> DensityMatrix:
    """One density-exponentiation step: consume a copy of ``k`` to rotate
    ``sigma`` by exp(-i k dt) up to O(dt^2)."""
    if k.dim != sigma.dim:
        raise LayoutError(f"dimension mismatch: {k.dim} vs {sigma.dim}")
    d = k.dim
    u = _partial_swap_unitary(d, dt)
    joint = u @ np.kron(k.matrix, sigma.matrix) @ u.conj().T
    out = partial_trace(joint, (d, d), 0)
    return DensityMatrix(hermitian_part(out), **_TOLS)


def _finish_two_block(m00, m01, m10, m11, d: int) -> ProgramState:
    """Hadamard on the control of (1/2) sum_{ab} |a><b| (x) m_ab, then dephase."""
    rho = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    rho[:d, :d] = m00
    rho[:d, d:] = m01
    rho[d:, :d] = m10
    rho[d:, d:] = m11
    rho /= 2.0
    h = np.kron(_HADAMARD, np.eye(d))
    rho = h @ rho @ h
    rho[:d, d:] = 0.0
    rho[d:, :d] = 0.0
    return program_state_blocks(hermitian_part(rho))


def dense_program_state_kk(k: DensityMatrix) -> ProgramState:
    """K K program state from the circuit: two copies of K with a |+>
    control, controlled swap, partial trace over the second copy, Hadamard
    on the control and dephasing."""
    d = k.dim
    t = np.kron(k.matrix, k.matrix)
    perm = _swap_perm(d)
    dims = (d, d)
    # control blocks after the controlled swap: T, T S, S T, S T S
    m00 = partial_trace(t, dims, 1)
    m01 = partial_trace(t[:, perm], dims, 1)
    m10 = partial_trace(t[perm, :], dims, 1)
    m11 = partial_trace(t[np.ix_(perm, perm)], dims, 1)
    return _finish_two_block(m00, m01, m10, m11, d)


def dense_program_state_klk(k: DensityMatrix, l: DensityMatrix) -> ProgramState:
    """K L K program state from the three-register circuit: |+> control,
    controlled cyclic permutation over the registers holding K, L, K,
    partial traces over the third and second registers, Hadamard on the
    control, and dephasing."""
    d = k.dim
    t = np.kron(np.kron(k.matrix, l.matrix), k.matrix)
    q = _cyclic_perm_inverse(d)

    def tr23(m):
        return partial_trace(partial_trace(m, (d, d, d), 2), (d, d), 1)

    # control blocks after the controlled permutation: T, T P^dag, P T, P T P^dag
    m00 = tr23(t)
    m01 = tr23(t[:, q])
    m10 = tr23(t[q, :])
    m11 = tr23(t[np.ix_(q, q)])
    return _finish_two_block(m00, m01, m10, m11, d)


def controlled_partial_swap_evolution(dt: float, d: int) -> np.ndarray:
    """exp(-i S' dt) with S' = |0><0| (x) S + |1><1| (x) (-S).

    The control-0 block evolves forward, the control-1 block backward.
    """
    fwd = _partial_swap_unitary(d, dt)
    out = np.zeros((2 * d * d, 2 * d * d), dtype=np.complex128)
    out[: d * d, : d * d] = fwd
    out[d * d :, d * d :] = fwd.conj()
    return out


def _dense_apply(u: np.ndarray, ps: ProgramState, sigma_matrix: np.ndarray, d: int) -> np.ndarray:
    """Conjugate rho' (x) sigma by u, trace out control and program copy."""
    joint = u @ np.kron(program_state_matrix(ps), sigma_matrix) @ u.conj().T
    out = partial_trace(joint, (2, d, d), 0)
    out = partial_trace(out, (d, d), 0)
    return hermitian_part(out)


def dense_glmr_step(ps: ProgramState, sigma: DensityMatrix, dt: float) -> DensityMatrix:
    """One program-state step through the controlled partial swap."""
    d = ps.system_dim
    if sigma.dim != d:
        raise LayoutError(f"dimension mismatch: program {d}, target {sigma.dim}")
    u = controlled_partial_swap_evolution(dt, d)
    return DensityMatrix(_dense_apply(u, ps, sigma.matrix, d), **_TOLS)


def _channel_step(b: np.ndarray, r: np.ndarray, sigma: np.ndarray, dt: float) -> np.ndarray:
    """One program-state step on a matrix:
    c^2 sigma + s^2 tr(sigma) R - i c s [B, sigma] with c, s = cos dt, sin dt."""
    c, s = math.cos(dt), math.sin(dt)
    comm = b @ sigma - sigma @ b
    return hermitian_part(c * c * sigma + (s * s * np.trace(sigma)) * r - (1j * c * s) * comm)


def glmr_step(ps: ProgramState, sigma: DensityMatrix, dt: float) -> DensityMatrix:
    """One program-state step in closed form, validated as a density:
    sigma -> sigma - i dt [B, sigma] + O(dt^2) with B = rho'' - rho''' (the
    map of ``simulate_evolution`` at ``steps=1``)."""
    d = ps.system_dim
    if sigma.dim != d:
        raise LayoutError(f"dimension mismatch: program {d}, target {sigma.dim}")
    b, r = ps.step_operators()
    return DensityMatrix(_channel_step(b, r, sigma.matrix, dt), **_CHANNEL_TOLS)


def dense_one_step_errors(
    ps: ProgramState, eig: SpectralDecomposition, probe: StateVector, dts: Sequence[float]
) -> list[float]:
    """One-step errors ||glmr_step(P) - exact_conjugation(P)||_F of ``ps`` on
    P = |v><v| over ``dts``, from the two validated dense m x m densities
    (the oracle for the errors of ``pipeline._one_step_errors``)."""
    v = probe.amplitudes
    p = DensityMatrix(np.outer(v, v.conj()))
    return [float(np.linalg.norm(glmr_step(ps, p, dt).matrix
                                 - exact_conjugation(eig, p, dt).matrix)) for dt in dts]


def dense_simulate_evolution(sources, sigma0: DensityMatrix, cfg, rng=None) -> EvolutionResult:
    """Repeated dilated steps; same protocol as ``simulate_evolution``."""
    mixture = mix_program_states(sources)
    d = mixture.system_dim
    n = cfg.resolved_steps()
    if n == 0:
        return EvolutionResult(sigma0, 0)
    dt = cfg.total_time / n
    u = controlled_partial_swap_evolution(dt, d)
    weights = np.array([w for w, _ in sources], dtype=np.float64)
    probs = weights / weights.sum()
    state = sigma0.matrix
    for _ in range(n):
        ps = mixture if rng is None else sources[int(rng.choice(len(sources), p=probs))][1]
        state = _dense_apply(u, ps, state, d)
    return EvolutionResult(DensityMatrix(state, **_TOLS), n)


def stepwise_simulate_evolution(
    sources: Sequence[tuple[float, ProgramState]],
    sigma0: DensityMatrix,
    cfg: EvolutionConfig,
    rng: np.random.Generator | None = None,
) -> EvolutionResult:
    """Repeated program-state steps under a weighted source mixture, one
    closed-form step at a time (the oracle for ``simulate_evolution``).

    By default each step consumes the deterministic mixture state; passing
    ``rng`` switches to the sampled protocol in which each step draws one
    source with probability proportional to its weight (equivalent in
    expectation, useful for shot-noise experiments).
    """
    mixture = mix_program_states(sources)
    d = mixture.system_dim
    if sigma0.dim != d:
        raise LayoutError(f"dimension mismatch: program {d}, target {sigma0.dim}")
    n = cfg.resolved_steps()
    if n == 0:
        return EvolutionResult(sigma0, 0)
    dt = cfg.total_time / n
    weights = np.array([w for w, _ in sources], dtype=np.float64)
    probs = weights / weights.sum()
    mixture_ops = mixture.step_operators()
    source_ops = [ps.step_operators() for _, ps in sources]
    state = sigma0.matrix
    for _ in range(n):
        if rng is None:
            b, r = mixture_ops
        else:
            b, r = source_ops[int(rng.choice(len(sources), p=probs))]
        state = _channel_step(b, r, state, dt)
    return EvolutionResult(DensityMatrix(state, **_CHANNEL_TOLS), n)


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


def stepwise_glmr_phase_estimation(
    sources,
    b,
    cfg: QPEConfig,
    steps_per_unit: int = 2000,
) -> GlmrPhaseEstimate:
    """Phase estimation with controlled evolutions realized by the
    program-state channel, one controlled step at a time on the clock (x)
    system density (the oracle for ``glmr_phase_estimation``).

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
    generator = mixture.generator
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
        rho.reshape(t * d, t * d), hermitian_tol=1e-8, psd_tol=1e-7, trace_tol=1e-8
    )
    probs = np.real(np.diag(partial_trace(state.matrix, (t, d), 1)))
    return GlmrPhaseEstimate(probs, state)


def dense_glmr_phase_estimation(
    sources, b, cfg: QPEConfig, steps_per_unit: int = 2000
) -> GlmrPhaseEstimate:
    """Channel-backed phase estimation on the full control (x) program copy
    (x) clock (x) system register, one controlled step at a time."""
    mixture = sources if isinstance(sources, ProgramState) else mix_program_states(sources)
    d = mixture.system_dim
    vec = np.asarray(b, dtype=np.complex128).reshape(-1)
    vec = vec / np.linalg.norm(vec)
    t = cfg.clock_dim
    t0 = cfg.evolution_time
    if t0 is None:
        t0 = default_evolution_time(float(np.linalg.eigvalsh(mixture.generator)[-1]))

    # registers: control (2) x program copy (d) x clock (T) x system (d)
    clock_sys = np.zeros((t, d), dtype=np.complex128)
    clock_sys[0, :] = vec
    rho_big = np.outer(clock_sys.reshape(-1), clock_sys.reshape(-1).conj())
    walsh = reduce(np.kron, [_HADAMARD] * cfg.clock_qubits)
    w_full = np.kron(walsh, np.eye(d))
    rho_big = w_full @ rho_big @ w_full.conj().T

    dims_full = (2, d, t, d)
    dims_after_ctl = (d, t * d)
    dt = -t0 / steps_per_unit
    base = controlled_partial_swap_evolution(dt, d)  # on (control, a, b)
    # embed (control, a, b) -> (control, a, clock, b): S commutes with the clock
    idx = np.arange(2 * d * d)
    ctl, xa, xb = idx // (d * d), (idx // d) % d, idx % d
    emb = np.zeros((2 * d * t * d, 2 * d * t * d), dtype=np.complex128)
    for y in range(t):
        rows = (ctl * d + xa) * (t * d) + y * d + xb
        emb[np.ix_(rows, rows)] = base
    clock_bits = ((np.arange(t)[None, :] >> np.arange(cfg.clock_qubits)[:, None]) & 1).astype(bool)

    rho_mix = program_state_matrix(mixture)
    for j in range(cfg.clock_qubits):
        p1 = np.repeat(np.tile(clock_bits[j], 2 * d), d).astype(np.float64)
        v = emb * p1[None, :] + np.diag(1.0 - p1)
        vh = v.conj().T
        for _ in range(steps_per_unit * (2**j)):
            joint = v @ np.kron(rho_mix, rho_big) @ vh
            joint = partial_trace(joint, dims_full, 0)
            rho_big = partial_trace(joint, dims_after_ctl, 0)

    dft = np.exp(-2j * np.pi * np.outer(np.arange(t), np.arange(t)) / t) / math.sqrt(t)
    q_full = np.kron(dft, np.eye(d))
    rho_big = q_full @ rho_big @ q_full.conj().T
    state = DensityMatrix(rho_big, hermitian_tol=1e-8, psd_tol=1e-7, trace_tol=1e-8)
    probs = np.real(np.diag(partial_trace(state.matrix, (t, d), 1)))
    return GlmrPhaseEstimate(probs, state)


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


def _as_hermitian(a) -> np.ndarray:
    """The matrix of ``a``, a matrix or a ``DensityMatrix``."""
    return a.matrix if isinstance(a, DensityMatrix) else as_matrix(a)


def phase_estimation(a_hat, b, cfg: QPEConfig) -> QPEState:
    """Entangle a clock register with the eigencomponents of ``b``.

    The clock distribution peaks at the dyadic approximations of
    lambda_i t0 / (2 pi); exactly representable eigenvalues give a sharp
    clock.  All eigenphases must lie in [0, 1).  Eigenvalues in [-1e-8, 0),
    which the solvers accept as PSD, are read as 0: the controlled
    evolutions run under the matrix with those eigenvalues set to 0.
    """
    a = _as_hermitian(a_hat)
    eig = hermitian_eig(a)
    lam = eig.eigenvalues
    eig = SpectralDecomposition(np.where(lam >= -1e-8, np.maximum(lam, 0.0), lam),
                                eig.eigenvectors)
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
        StateVector(arr.reshape(-1)), grid, eig
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
        StateVector(flagged.reshape(-1)), qpe.grid, qpe.basis
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


def fft_clock_weights(
    eig: SpectralDecomposition, t0: float, clock_dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``hhl._clock_weights`` as the DFT of the controlled-evolution phases:
    the clock amplitude on eigenvector i is
    a[y, i] = (1/T) sum_k exp(i t0 k lambda_i) exp(-2 pi i y k / T), the
    weights are w = |a|^2 and the peaks their argmax over y (ties to the
    first bin), after the same phase-range check."""
    lam = np.maximum(eig.eigenvalues, 0.0)
    phases = lam * t0 / (2.0 * np.pi)
    if np.any(phases >= 1.0 - 1e-12):
        raise ConfigurationError(
            f"eigenphases must lie in [0, 1); got range "
            f"[{phases.min():.4g}, {phases.max():.4g}] -- rescale t0"
        )
    ks = np.arange(clock_dim)
    amps = np.fft.fft(np.exp(1j * t0 * np.outer(ks, lam)), axis=0) / clock_dim
    weights = np.abs(amps) ** 2
    return 2.0 * np.pi * ks / (clock_dim * t0), weights, np.argmax(weights, axis=0)


def dense_hhl_solve(a_hat, b, sigma_thresh: float, cfg: QPEConfig) -> HHLResult:
    """``hhl_solve`` through the circuit: phase estimation on the full
    clock (x) system array, the inverting rotation onto a flag register,
    uncomputation of the clock on the success branch, postselection."""
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
    retained = _retained_eigenvalues(a, sigma_thresh, cfg)
    return HHLResult(StateVector(solution / norm), p_success, retained)


def dense_quantum_multiply(k, y, cfg: QPEConfig) -> StateVector:
    """``quantum_multiply`` through the same circuit with the eigenvalue
    (not inverse-eigenvalue) rotation, after the same spectrum-range
    checks: an eigenvalue below -1e-8 is a ``NumericalError`` and one above
    1 an ``AmplitudeOverflowError``, before any phase-range check."""
    a = _as_hermitian(k)
    spectrum = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if spectrum[0] < -1e-8:
        raise NumericalError(f"matrix must be PSD, min eigenvalue {spectrum[0]:.3e}")
    if spectrum[-1] > 1.0 + 1e-9:
        raise AmplitudeOverflowError(
            f"eigenvalue {spectrum[-1]:.6g} exceeds the unit multiplication range"
        )
    if cfg.evolution_time is None:
        cfg = QPEConfig(cfg.clock_qubits, math.pi)
    qpe = phase_estimation(a, y, cfg)
    flagged = conditional_rotation_multiply(qpe)
    solution, p_success = _postselect(flagged)
    norm = np.linalg.norm(solution)
    if p_success <= 1e-24 or norm <= 1e-12:
        raise DegenerateSystemError("matrix-vector product is zero")
    return StateVector(solution / norm)


def _retained_eigenvalues(a: np.ndarray, sigma_thresh: float, cfg: QPEConfig) -> tuple[float, ...]:
    """Per eigenvalue >= sigma_thresh, the clock estimate that phase
    estimation on its eigenvector reads most often; descending."""
    eig = hermitian_eig(a)
    peaks = []
    for lam, vec in zip(eig.eigenvalues, eig.eigenvectors.T):
        if lam >= sigma_thresh:
            qpe = phase_estimation(a, vec, cfg)
            peaks.append(float(qpe.grid.eigenvalue(np.argmax(qpe.clock_distribution()))))
    return tuple(sorted(peaks, reverse=True))


def density(state: StateVector) -> DensityMatrix:
    """Rank-1 projector |psi><psi| as a density matrix."""
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()))


def overlap(a: StateVector, b: StateVector) -> complex:
    """<a|b>."""
    if a.dim != b.dim:
        raise LayoutError(f"state dimensions differ: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def reduced(rho: DensityMatrix, dims: tuple[int, ...], traced_factor: int, **tols) -> DensityMatrix:
    """Partial trace over one of the registers of dimensions ``dims``."""
    return DensityMatrix(partial_trace(rho.matrix, dims, traced_factor), **tols)


def data_state(x: TrainingSet) -> StateVector:
    """Superposition (1/sqrt(sum ||x_i||^2)) sum_i |i> (x) ||x_i|| |x_i>.

    Block i of the amplitude vector is simply row x_i, so the state is the
    flattened feature matrix normalized to unit Frobenius norm.
    """
    _row_norms(x)
    return StateVector.normalized(x.features.reshape(-1))


def incidence_matrix(g: SampleGraph) -> np.ndarray:
    """Degree-normalized vertex-by-edge incidence matrix G_I.

    For edge e = (i, j) with i < j the column holds -1/sqrt(d_i) at row i
    and +1/sqrt(d_j) at row j, so every row is a unit vector and
    ``G_I @ G_I.T`` equals the degree-normalized Laplacian.
    """
    m, n = g.vertex_count, g.edge_count
    out = np.zeros((m, n))
    for e, (i, j) in enumerate(g.edges):
        out[i, e] = -1.0 / np.sqrt(g.degrees[i])
        out[j, e] = +1.0 / np.sqrt(g.degrees[j])
    return out


def incidence_state(g: SampleGraph) -> StateVector:
    """(1/sqrt(m)) sum_i |i> (x) |v_i> over unit incidence-matrix rows."""
    if np.any(g.degrees == 0):
        raise DegreeError("graph has an isolated vertex")
    gi = incidence_matrix(g)
    return StateVector.normalized(gi.reshape(-1))


@dataclass(frozen=True)
class OverlapEstimate:
    """Measured (or analytic) swap-test probability.

    ``probability`` is the estimate of P = (1 - Re<psi|phi>) / 2;
    ``exact_overlap`` retains the analytic Re<psi|phi> for verification.
    ``shots == 0`` marks the analytic mode, where probability equals P
    exactly.
    """

    probability: float
    shots: int
    exact_overlap: float


def query_state(x_new: np.ndarray, training: TrainingSet) -> StateVector:
    """Uniform superposition over sample slots of the normalized new point.

    Normalized to exactly unit norm; classification uses only the overlap
    sign, which any positive normalization preserves.
    """
    x_new = np.asarray(x_new, dtype=np.float64).reshape(-1)
    if x_new.shape[0] != training.feature_count:
        raise LayoutError(
            f"query point has {x_new.shape[0]} features, training set has "
            f"{training.feature_count}"
        )
    if np.linalg.norm(x_new) == 0.0:
        raise EncodingError("cannot encode a zero query point")
    m = training.sample_count
    blocks = np.tile(x_new, m)
    return StateVector.normalized(blocks)


def expansion_state(alpha: np.ndarray, training: TrainingSet) -> StateVector:
    """Coefficient-weighted superposition sum_j alpha_j |j> (x) ||x_j|| |x_j>."""
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    m = training.sample_count
    if alpha.shape[0] != m:
        raise LayoutError(f"alpha has {alpha.shape[0]} entries, expected {m}")
    if not np.any(alpha):
        raise DegenerateSystemError("model coefficients are all zero")
    norms = np.linalg.norm(training.features, axis=1)
    if np.any(norms == 0.0):
        raise EncodingError("training set has a zero-norm sample")
    blocks = (alpha[:, None] * training.features).reshape(-1)
    return StateVector.normalized(blocks)


def overlap_probability(
    psi: StateVector, phi: StateVector, shots: int = 0, seed: int = 0
) -> OverlapEstimate:
    """Swap-test style overlap readout between two states.

    The ancilla state (|0>|psi> + |1>|phi>) / sqrt(2) is built explicitly;
    after a Hadamard on the ancilla, the |-> outcome lands with
    probability (1 - Re<psi|phi>) / 2.  ``shots == 0`` returns that
    probability analytically, otherwise it is estimated from seeded
    Bernoulli draws.
    """
    if psi.dim != phi.dim:
        raise LayoutError(f"state dimensions differ: {psi.dim} vs {phi.dim}")
    if shots < 0:
        raise ParameterError(f"shots must be >= 0, got {shots}")
    if not float(shots).is_integer():
        raise ParameterError(f"shots must be an integer, got {shots}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    # post-Hadamard branches: |0>(psi + phi)/2 and |1>(psi - phi)/2
    minus_branch = (psi.amplitudes - phi.amplitudes) / 2.0
    p_exact = float(np.clip(np.sum(np.abs(minus_branch) ** 2), 0.0, 1.0))
    exact_overlap = float(np.real(overlap(psi, phi)))
    if shots == 0:
        return OverlapEstimate(p_exact, 0, exact_overlap)
    rng = np.random.default_rng(seed)
    hits = int(rng.binomial(shots, p_exact))
    return OverlapEstimate(hits / shots, shots, exact_overlap)


def dense_classify(
    alpha: np.ndarray, x_new: np.ndarray, training: TrainingSet, shots: int = 0, seed: int = 0
) -> ClassificationResult:
    """``classify`` through the query and expansion states and the ancilla
    readout; sampled estimates within three binomial standard deviations
    of 1/2 are ambiguous."""
    q = query_state(x_new, training)
    s = expansion_state(alpha, training)
    p = overlap_probability(q, s, shots=shots, seed=seed).probability
    label = 1 if p <= 0.5 else -1
    ambiguous = False
    if shots > 0:
        std = float(np.sqrt(max(p * (1.0 - p), 0.0) / shots))
        ambiguous = abs(p - 0.5) < 3.0 * std
    return ClassificationResult(label, p, ambiguous)
