"""Sample-based Hamiltonian simulation with density-matrix inputs.

The basic step consumes one auxiliary copy of a density K to advance a
target state sigma by exp(-i K dt) up to O(dt^2), using only a partial
swap and a partial trace:

    Tr_1{ exp(-iS dt) (K (x) sigma) exp(iS dt) }
        = sigma - i dt [K, sigma] + O(dt^2).

The generalized form replaces the auxiliary copy by a two-block program
state rho' = |0><0| (x) rho'' + |1><1| (x) rho''' with tr(rho'' + rho''') = 1
and evolves with a control-signed partial swap; the simulated generator is
B = rho'' - rho'''.  Program states exist for B = K (plain step embedded),
B = K K (two copies cycled by a swap) and B = K L K (three copies cycled
by a cyclic permutation, Hadamard and dephasing on the control).
Weighted mixtures of program states simulate weighted sums of generators,
which is how the full training matrix gamma^-1 K + K K + gamma^-1 K L K
is exponentiated.

Every construction is evaluated in closed form on d x d matrices.  A
``ProgramState`` holds only the two d x d control blocks rho'' and rho'''
(float64 when the densities are real) and checks each block Hermitian and
PSD, which for a block-diagonal state is the full density check; the
2d x 2d matrix is never assembled.  With S^2 = I, exp(-iS dt) =
cos(dt) I - i sin(dt) S, and the partial traces of the dilated circuits
reduce exactly to

    step:   sigma -> c^2 sigma + s^2 tr(sigma) R - i c s [B, sigma]
            with c, s = cos dt, sin dt and R = rho'' + rho''',
    K K:    rho'' = (K + K K) / 2,    rho''' = (K - K K) / 2,
    K L K:  rho'' = (K + K L K) / 2,  rho''' = (K - K L K) / 2,

so a step costs O(d^3) where the dilation costs O(d^6).  n steps have a
closed form too.  In the eigenbasis B = V diag(lam) V^dagger, with
X~ = V^dagger X V, one step multiplies sigma~_ab by
h_ab = c^2 - i c s (lam_a - lam_b) and adds s^2 tr(sigma) R~_ab; it keeps
the trace of any matrix because tr R = 1, so

    power:  sigma~_n = h^n sigma~_0 + s^2 tr(sigma_0) G R~,
            G = sum_{k<n} h^k = (1 - h^n) / (1 - h)   (entrywise),

and a trajectory costs one eigendecomposition of B whatever n is.  The
circuit-level constructions (swap and cyclic-permutation matrices,
controlled partial swaps, partial traces over the program copies) and
the step-by-step trajectory (``stepwise_simulate_evolution``) are kept in
``tests/dilation.py`` as the oracle these closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encodings import DensityMatrix, hermitian_psd
from .errors import EncodingError, LayoutError, ParameterError
from .linalg import SpectralDecomposition, hermitian_eig, hermitian_part

#: Tolerances for channel outputs; trajectories accumulate roundoff beyond
#: the strict single-construction bounds.
_CHANNEL_TOLS = dict(hermitian_tol=1e-9, psd_tol=1e-8, trace_tol=1e-9)


@dataclass(frozen=True)
class ProgramState:
    """The control blocks of a program state encoding a generator.

    ``rho0`` and ``rho1`` are the d x d blocks rho'' and rho''' of the
    block-diagonal state |0><0| (x) rho'' + |1><1| (x) rho'''.  Each is
    checked Hermitian and PSD, and tr(rho'' + rho''') = 1; a block-diagonal
    matrix is PSD exactly when its blocks are, so this is the full density
    check.  The intended Hermitian generator is ``scale * (rho'' - rho''')``.
    For the single-term constructions the scale is 1; mixtures record the
    total weight there so consumers can undo the normalization.
    """

    rho0: np.ndarray
    rho1: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ParameterError(f"scale must be finite and positive, got {self.scale}")
        tols = _CHANNEL_TOLS
        blocks = [hermitian_psd(b, tols["hermitian_tol"], tols["psd_tol"])
                  for b in (self.rho0, self.rho1)]
        if blocks[0].shape != blocks[1].shape:
            raise LayoutError(
                f"program-state blocks differ in shape: {blocks[0].shape} vs {blocks[1].shape}"
            )
        tr = float(np.trace(blocks[0]).real + np.trace(blocks[1]).real)
        if abs(tr - 1.0) > tols["trace_tol"]:
            raise EncodingError(
                f"program-state trace {tr!r} deviates from 1 beyond {tols['trace_tol']}"
            )
        for name, block in zip(("rho0", "rho1"), blocks):
            block.setflags(write=False)
            object.__setattr__(self, name, block)

    @property
    def system_dim(self) -> int:
        return self.rho0.shape[0]

    @property
    def generator(self) -> np.ndarray:
        """scale * (rho'' - rho''')."""
        return self.scale * (self.rho0 - self.rho1)

    def step_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """(B, R) = (rho'' - rho''', rho'' + rho'''), the two matrices one
        channel step needs."""
        return self.rho0 - self.rho1, self.rho0 + self.rho1


def _two_copy_program_state(k: DensityMatrix, g: np.ndarray) -> ProgramState:
    """rho'' = (K + G) / 2 and rho''' = (K - G) / 2, generator G."""
    g = hermitian_part(g)
    return ProgramState((k.matrix + g) / 2.0, (k.matrix - g) / 2.0)


def make_program_state_k(k: DensityMatrix) -> ProgramState:
    """Plain density-exponentiation term in program-state form:
    rho'' = k, rho''' = 0, so the generator is exactly k."""
    return ProgramState(k.matrix, np.zeros_like(k.matrix))


def make_program_state_kk(k: DensityMatrix) -> ProgramState:
    """Program state whose generator is K K.

    Two copies of K enter with a |+> control; a controlled swap, a partial
    trace over the second copy, a Hadamard on the control and dephasing
    leave rho'' = (K + K K) / 2 and rho''' = (K - K K) / 2, which is
    evaluated here directly.
    """
    return _two_copy_program_state(k, k.matrix @ k.matrix)


def make_program_state_klk(k: DensityMatrix, l: DensityMatrix) -> ProgramState:
    """Program state whose generator is K L K.

    The three-register circuit (|+> control, controlled cyclic permutation
    over the registers holding K, L, K, partial traces over the third and
    second registers, Hadamard on the control, dephasing) leaves
    rho'' = (K + K L K) / 2 and rho''' = (K - K L K) / 2 for Hermitian
    inputs, which is evaluated here directly.
    """
    if k.dim != l.dim:
        raise LayoutError(f"dimension mismatch: K is {k.dim}, L is {l.dim}")
    return _two_copy_program_state(k, k.matrix @ l.matrix @ k.matrix)


def mix_program_states(sources: Sequence[tuple[float, ProgramState]]) -> ProgramState:
    """Weighted mixture rho'_joint = sum_i w_i rho'_i / sum_i w_i.

    The mixture's generator is (sum_i w_i B_i) / sum_i w_i; the total
    weight is recorded as the scale so the unnormalized sum is
    ``scale * (rho'' - rho''')``.
    """
    if not sources:
        raise ParameterError("at least one program state is required")
    weights = np.array([w for w, _ in sources], dtype=np.float64)
    if np.any(weights <= 0):
        raise ParameterError("mixture weights must be positive")
    dims = {ps.system_dim for _, ps in sources}
    if len(dims) != 1:
        raise LayoutError(f"program states have mixed dimensions {sorted(dims)}")
    if any(ps.scale != 1.0 for _, ps in sources):
        raise ParameterError("only unit-scale program states can be mixed")
    total = float(weights.sum())
    return ProgramState(
        sum(w * ps.rho0 for w, ps in sources) / total,
        sum(w * ps.rho1 for w, ps in sources) / total,
        scale=total,
    )


def _channel_step(b: np.ndarray, r: np.ndarray, sigma: np.ndarray, dt: float) -> np.ndarray:
    """One program-state step on a matrix:
    c^2 sigma + s^2 tr(sigma) R - i c s [B, sigma] with c, s = cos dt, sin dt."""
    c, s = math.cos(dt), math.sin(dt)
    comm = b @ sigma - sigma @ b
    return hermitian_part(c * c * sigma + (s * s * np.trace(sigma)) * r - (1j * c * s) * comm)


def glmr_step(ps: ProgramState, sigma: DensityMatrix, dt: float) -> DensityMatrix:
    """One program-state step: sigma -> sigma - i dt [B, sigma] + O(dt^2)
    with B = rho'' - rho'''."""
    d = ps.system_dim
    if sigma.dim != d:
        raise LayoutError(f"dimension mismatch: program {d}, target {sigma.dim}")
    b, r = ps.step_operators()
    return DensityMatrix(_channel_step(b, r, sigma.matrix, dt), **_CHANNEL_TOLS)


@dataclass(frozen=True)
class EvolutionConfig:
    """Total time, error budget, and step count for a repeated-step run.

    When ``steps`` is omitted it is derived as ceil(t^2 / delta), the copy
    count that brings the accumulated second-order error down to O(delta).
    """

    total_time: float
    error_budget: float = 1e-3
    steps: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.total_time):
            raise ParameterError(f"total time must be finite, got {self.total_time}")
        if not (math.isfinite(self.error_budget) and self.error_budget > 0):
            raise ParameterError(
                f"error budget must be finite and positive, got {self.error_budget}"
            )
        if self.steps is not None and self.steps < 1:
            raise ParameterError(f"step count must be >= 1, got {self.steps}")
        if self.steps is None and not math.isfinite(self._step_bound()):
            raise ParameterError(
                f"t^2 / delta overflows for time {self.total_time} and budget {self.error_budget}"
            )

    def _step_bound(self) -> float:
        return self.total_time * self.total_time / self.error_budget

    def resolved_steps(self) -> int:
        if self.steps is not None:
            return int(self.steps)
        return int(math.ceil(self._step_bound()))


@dataclass(frozen=True)
class EvolutionResult:
    """Final state of a trajectory plus what it simulated.

    ``generator`` is the normalized mixture generator B_joint; the
    trajectory approximates exp(-i B_joint t) sigma0 exp(i B_joint t).
    ``weight_total`` is the scale factor relating B_joint to the
    unnormalized weighted sum of the source generators.
    """

    state: DensityMatrix
    generator: np.ndarray
    weight_total: float
    steps: int
    dt: float


def _channel_power(
    b: np.ndarray, r: np.ndarray, sigma: np.ndarray, dt: float, n: int
) -> np.ndarray:
    """n program-state steps on a matrix (see :func:`simulate_evolution`).

    h^n and G = (1 - h^n) / (1 - h) come from log1p/expm1, with
    1 - h = s (s + i c (lam_a - lam_b)) computed directly.  Where |1 - h|
    is 0 or below the smallest normal float, G takes its limit n (relative
    error n |1 - h| / 2).
    """
    c, s = math.cos(dt), math.sin(dt)
    eig = hermitian_eig(b)
    lam, v = eig.eigenvalues, eig.eigenvectors
    vh = v.conj().T
    gap = lam[:, None] - lam[None, :]
    with np.errstate(divide="ignore"):
        log_abs = np.log1p(-s * s * (1.0 - gap * gap)) + np.log1p(-s * s)
    # n log h, its imaginary part scaled on its own so that h = 0
    # (log|h| = -inf) gives h^n = 0 rather than NaN
    n_log_h = (0.5 * n) * log_abs + 1j * (n * np.arctan2(-c * s * gap, c * c))
    one_minus_h = s * (s + 1j * c * gap)
    geo = np.full(gap.shape, float(n), dtype=np.complex128)
    np.divide(-np.expm1(n_log_h), one_minus_h, out=geo,
              where=np.abs(one_minus_h) >= np.finfo(np.float64).tiny)
    geo *= s * s * np.trace(sigma)
    state = np.exp(n_log_h) * (vh @ sigma @ v) + geo * (vh @ r @ v)
    return v @ state @ vh


def simulate_evolution(
    sources: Sequence[tuple[float, ProgramState]],
    sigma0: DensityMatrix,
    cfg: EvolutionConfig,
) -> EvolutionResult:
    """n program-state steps under the deterministic source mixture, in
    closed form.

    In the eigenbasis B = V diag(lam) V^dagger of the mixture generator,
    with X~ = V^dagger X V, one step maps sigma~_ab to
    h_ab sigma~_ab + s^2 tr(sigma) R~_ab, h_ab = c^2 - i c s (lam_a - lam_b).
    The step keeps the trace because tr R = 1, so n steps give

        sigma~_n = h^n sigma~_0 + s^2 tr(sigma_0) G R~,  G = sum_{k<n} h^k,

    entrywise, from one eigendecomposition of B whatever n is.  The
    step-by-step loop, with its sampled-source variant, is the test oracle
    ``tests/dilation.py::stepwise_simulate_evolution``.
    """
    mixture = mix_program_states(sources)
    d = mixture.system_dim
    if sigma0.dim != d:
        raise LayoutError(f"dimension mismatch: program {d}, target {sigma0.dim}")
    n = cfg.resolved_steps()
    generator = mixture.generator / mixture.scale
    if n == 0:
        return EvolutionResult(sigma0, generator, mixture.scale, 0, 0.0)
    dt = cfg.total_time / n
    state = _channel_power(*mixture.step_operators(), sigma0.matrix, dt, n)
    return EvolutionResult(
        DensityMatrix(state, **_CHANNEL_TOLS),
        generator,
        mixture.scale,
        n,
        dt,
    )


def exact_conjugation(eig: SpectralDecomposition, sigma: DensityMatrix, t: float) -> DensityMatrix:
    """Reference evolution exp(-i G t) sigma exp(i G t) for comparisons,
    from the decomposition ``eig`` of G, which serves every t."""
    u = eig.apply(lambda w: np.exp(-1j * w * t))
    return DensityMatrix(u @ sigma.matrix @ u.conj().T, **_CHANNEL_TOLS)
