"""Circuit-level dilations of the sample-based simulation primitives.

Test oracle only.  Each function builds the full tensor-product circuit --
swap and cyclic-permutation matrices, controlled partial swaps, Kronecker
products with the program copies and partial traces over them -- that the
closed forms in ``qsslsvm.channels`` and ``qsslsvm.hhl`` reduce to d x d
algebra.  A dilated channel step costs O(d^6), so these run only at the
small dimensions the tests use.
"""

import math
from functools import reduce

import numpy as np

from qsslsvm.channels import EvolutionResult, ProgramState, mix_program_states
from qsslsvm.encodings import DensityMatrix
from qsslsvm.errors import LayoutError
from qsslsvm.hhl import GlmrPhaseEstimate, QPEConfig, default_evolution_time
from qsslsvm.linalg import TensorLayout, hermitian_part, partial_trace

#: Same validation tolerances the production channels use.
_TOLS = dict(hermitian_tol=1e-9, psd_tol=1e-8, trace_tol=1e-9)

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


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
    out = partial_trace(joint, TensorLayout((d, d)), 0)
    return DensityMatrix(hermitian_part(out), sigma.layout, **_TOLS)


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
    return ProgramState(DensityMatrix(hermitian_part(rho), TensorLayout((2, d)), **_TOLS))


def dense_program_state_kk(k: DensityMatrix) -> ProgramState:
    """K K program state from the circuit: two copies of K with a |+>
    control, controlled swap, partial trace over the second copy, Hadamard
    on the control and dephasing."""
    d = k.dim
    t = np.kron(k.matrix, k.matrix)
    perm = _swap_perm(d)
    layout = TensorLayout((d, d))
    # control blocks after the controlled swap: T, T S, S T, S T S
    m00 = partial_trace(t, layout, 1)
    m01 = partial_trace(t[:, perm], layout, 1)
    m10 = partial_trace(t[perm, :], layout, 1)
    m11 = partial_trace(t[np.ix_(perm, perm)], layout, 1)
    return _finish_two_block(m00, m01, m10, m11, d)


def dense_program_state_klk(k: DensityMatrix, l: DensityMatrix) -> ProgramState:
    """K L K program state from the three-register circuit: |+> control,
    controlled cyclic permutation over the registers holding K, L, K,
    partial traces over the third and second registers, Hadamard on the
    control, and dephasing."""
    d = k.dim
    t = np.kron(np.kron(k.matrix, l.matrix), k.matrix)
    q = _cyclic_perm_inverse(d)
    layout3 = TensorLayout((d, d, d))

    def tr23(m):
        return partial_trace(partial_trace(m, layout3, 2), TensorLayout((d, d)), 1)

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
    joint = u @ np.kron(ps.rho_prime.matrix, sigma_matrix) @ u.conj().T
    out = partial_trace(joint, TensorLayout((2, d, d)), 0)
    out = partial_trace(out, TensorLayout((d, d)), 0)
    return hermitian_part(out)


def dense_glmr_step(ps: ProgramState, sigma: DensityMatrix, dt: float) -> DensityMatrix:
    """One program-state step through the controlled partial swap."""
    d = ps.system_dim
    if sigma.dim != d:
        raise LayoutError(f"dimension mismatch: program {d}, target {sigma.dim}")
    u = controlled_partial_swap_evolution(dt, d)
    return DensityMatrix(_dense_apply(u, ps, sigma.matrix, d), sigma.layout, **_TOLS)


def dense_simulate_evolution(sources, sigma0: DensityMatrix, cfg, rng=None) -> EvolutionResult:
    """Repeated dilated steps; same protocol as ``simulate_evolution``."""
    mixture = mix_program_states(sources)
    d = mixture.system_dim
    n = cfg.resolved_steps()
    generator = mixture.generator / mixture.scale
    if n == 0:
        return EvolutionResult(sigma0, generator, mixture.scale, 0, 0.0)
    dt = cfg.total_time / n
    u = controlled_partial_swap_evolution(dt, d)
    weights = np.array([w for w, _ in sources], dtype=np.float64)
    probs = weights / weights.sum()
    state = sigma0.matrix
    for _ in range(n):
        ps = mixture if rng is None else sources[int(rng.choice(len(sources), p=probs))][1]
        state = _dense_apply(u, ps, state, d)
    return EvolutionResult(DensityMatrix(state, sigma0.layout, **_TOLS), generator,
                           mixture.scale, n, dt)


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
        t0 = default_evolution_time(float(np.linalg.eigvalsh(mixture.generator / mixture.scale)[-1]))

    # registers: control (2) x program copy (d) x clock (T) x system (d)
    clock_sys = np.zeros((t, d), dtype=np.complex128)
    clock_sys[0, :] = vec
    rho_big = np.outer(clock_sys.reshape(-1), clock_sys.reshape(-1).conj())
    walsh = reduce(np.kron, [_HADAMARD] * cfg.clock_qubits)
    w_full = np.kron(walsh, np.eye(d))
    rho_big = w_full @ rho_big @ w_full.conj().T

    layout_full = TensorLayout((2, d, t, d))
    layout_after_ctl = TensorLayout((d, t * d))
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

    rho_mix = mixture.rho_prime.matrix
    for j in range(cfg.clock_qubits):
        p1 = np.repeat(np.tile(clock_bits[j], 2 * d), d).astype(np.float64)
        v = emb * p1[None, :] + np.diag(1.0 - p1)
        vh = v.conj().T
        for _ in range(steps_per_unit * (2**j)):
            joint = v @ np.kron(rho_mix, rho_big) @ vh
            joint = partial_trace(joint, layout_full, 0)
            rho_big = partial_trace(joint, layout_after_ctl, 0)

    dft = np.exp(-2j * np.pi * np.outer(np.arange(t), np.arange(t)) / t) / math.sqrt(t)
    q_full = np.kron(dft, np.eye(d))
    rho_big = q_full @ rho_big @ q_full.conj().T
    state = DensityMatrix(
        rho_big, TensorLayout((t, d)), hermitian_tol=1e-8, psd_tol=1e-7, trace_tol=1e-8
    )
    probs = np.real(np.diag(partial_trace(state.matrix, state.layout, 1)))
    return GlmrPhaseEstimate(probs, state)
