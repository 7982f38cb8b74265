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

Every construction is evaluated in closed form on d x d matrices.
``generator_terms`` forms K, K K and K L K once for the three program
states; ``simulate`` assembles its system matrix apart, from K's factor.  A
``ProgramState`` holds only the two d x d control blocks rho'' and rho'''
(float64 when the densities are real); the 2d x 2d matrix is never
assembled.  A state owns the decomposition of its generator
(``spectrum``), made on first use and shared by every consumer, or
handed to ``ProgramState._built`` by a builder that holds it (K K's
state gets K's, squared); nothing re-checks it.  ``ProgramState(...)``
checks a caller's blocks Hermitian and PSD (for a block-diagonal state,
the full density check) with unit total trace.  The builders below skip
that check (``ProgramState._built``): for densities 0 <= K <= I and
||L|| <= 1, K +- K K = K (I +- K) and K +- K L K are PSD with trace
2 tr K, and so is a positive mixture.  With S^2 = I,
exp(-iS dt) = cos(dt) I - i sin(dt) S, and the partial traces of the
dilated circuits reduce exactly to

    step:   sigma -> c^2 sigma + s^2 tr(sigma) R - i c s [B, sigma]
            with c, s = cos dt, sin dt and R = rho'' + rho''',
    G:      rho'' = (K + G) / 2,  rho''' = (K - G) / 2,  G = K, K K, K L K,

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
the step-by-step trajectory (``stepwise_simulate_evolution``, from
``glmr_step``) are kept in ``tests/dilation.py`` as the oracle these
closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .encodings import DensityMatrix, hermitian_psd
from .errors import EncodingError, LayoutError, ParameterError
from .linalg import SpectralDecomposition, hermitian_eig, hermitian_part
from .swap_test import _nonnegative_int

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
    check.  The generator is rho'' - rho''', and ``spectrum`` its
    decomposition.
    """

    rho0: np.ndarray
    rho1: np.ndarray

    def __post_init__(self):
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

    @classmethod
    def _built(
        cls, rho0: np.ndarray, rho1: np.ndarray, spectrum: SpectralDecomposition | None = None
    ) -> ProgramState:
        """Wrap fresh blocks PSD by construction, unchecked, with the
        decomposition of their generator when the builder holds it."""
        ps = object.__new__(cls)
        for name, block in (("rho0", rho0), ("rho1", rho1)):
            block.setflags(write=False)
            object.__setattr__(ps, name, block)
        if spectrum is not None:
            ps.__dict__["spectrum"] = spectrum  # where ``cached_property`` keeps it
        return ps

    @property
    def system_dim(self) -> int:
        return self.rho0.shape[0]

    @property
    def generator(self) -> np.ndarray:
        """B = rho'' - rho'''."""
        return self.rho0 - self.rho1

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        """The decomposition of ``generator``, made on first use (unless
        ``_built`` was handed it) and shared by every consumer."""
        return hermitian_eig(self.generator)

    def step_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """(B, R) = (rho'' - rho''', rho'' + rho'''), the two matrices one
        channel step needs."""
        return self.generator, self.rho0 + self.rho1


def generator_terms(k: DensityMatrix, l: DensityMatrix) -> dict[str, np.ndarray]:
    """The terms of the training generator by name, each formed once and
    symmetrized once: {"k": K, "kk": K K, "klk": K (L K)}."""
    if k.dim != l.dim:
        raise LayoutError(f"dimension mismatch: K is {k.dim}, L is {l.dim}")
    km = k.matrix
    return {"k": km, "kk": hermitian_part(km @ km), "klk": hermitian_part(km @ (l.matrix @ km))}


def make_program_state(k: np.ndarray, g: np.ndarray) -> ProgramState:
    """Program state rho'' = (K + G) / 2, rho''' = (K - G) / 2 for a term G
    of ``generator_terms``, its generator, evaluated directly.  G = K: the
    plain step, rho'' = K and rho''' = 0 exactly.  G = K K: two copies of K
    with a |+> control, a controlled swap, a partial trace over the second
    copy, a Hadamard on the control and dephasing.  G = K L K, for Hermitian
    inputs: a |+> control, a controlled cyclic permutation over registers
    holding K, L, K, partial traces over the third and second, a Hadamard on
    the control and dephasing."""
    return ProgramState._built((k + g) / 2.0, (k - g) / 2.0)


def mix_program_states(sources: Sequence[tuple[float, ProgramState]]) -> ProgramState:
    """Weighted mixture sum_i p_i rho'_i, p_i = w_i / sum_j w_j, whose
    generator is sum_i p_i B_i; ``ParameterError`` unless each w_i is finite
    and positive and their sum finite.  A single source is its own mixture:
    it is returned itself, with its ``spectrum``."""
    if not sources:
        raise ParameterError("at least one program state is required")
    weights = [float(w) for w, _ in sources]
    if not all(0.0 < w < math.inf for w in weights):
        raise ParameterError(f"mixture weights must be finite and positive, got {weights}")
    total = sum(weights)
    if total == math.inf:
        raise ParameterError(f"mixture weights {weights} sum past the float64 range")
    if len(sources) == 1:
        return sources[0][1]
    dims = {ps.system_dim for _, ps in sources}
    if len(dims) != 1:
        raise LayoutError(f"program states have mixed dimensions {sorted(dims)}")
    probs = [w / total for w in weights]
    return ProgramState._built(
        sum(p * ps.rho0 for p, (_, ps) in zip(probs, sources)),
        sum(p * ps.rho1 for p, (_, ps) in zip(probs, sources)),
    )


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
        if self.steps is not None:  # not fractional, not a bool; stored as an int
            object.__setattr__(self, "steps", _nonnegative_int("steps", self.steps))
        if self.steps is None and not math.isfinite(self._step_bound()):
            raise ParameterError(
                f"t^2 / delta overflows for time {self.total_time} and budget {self.error_budget}"
            )

    def _step_bound(self) -> float:
        return self.total_time * self.total_time / self.error_budget

    def resolved_steps(self) -> int:
        if self.steps is not None:
            return self.steps
        return int(math.ceil(self._step_bound()))


@dataclass(frozen=True)
class EvolutionResult:
    """Final state of a trajectory, ~exp(-i B t) sigma0 exp(i B t) for the
    mixture's generator B, and its step count."""

    state: DensityMatrix
    steps: int


def _channel_power(
    eig: SpectralDecomposition, r: np.ndarray, sigma: np.ndarray, dt: float, n: int
) -> np.ndarray:
    """n program-state steps on a matrix, from the decomposition ``eig`` of
    the step generator B (see :func:`simulate_evolution`).

    h^n and G = (1 - h^n) / (1 - h) come from log1p/expm1, with
    1 - h = s (s + i c (lam_a - lam_b)) computed directly.  Where |1 - h|
    is 0 or below the smallest normal float, G takes its limit n (relative
    error n |1 - h| / 2).
    """
    c, s = math.cos(dt), math.sin(dt)
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

    The mixture's generator B is decomposed by its ``spectrum``; a single
    source is its own mixture, so its decomposition is the one its other
    consumers share.  In the eigenbasis B = V diag(lam) V^dagger, with
    X~ = V^dagger X V, one step maps sigma~_ab to
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
    if n == 0:
        return EvolutionResult(sigma0, 0)
    r = mixture.rho0 + mixture.rho1
    state = _channel_power(mixture.spectrum, r, sigma0.matrix, cfg.total_time / n, n)
    return EvolutionResult(DensityMatrix(state, **_CHANNEL_TOLS), n)


def exact_conjugation(eig: SpectralDecomposition, sigma: DensityMatrix, t: float) -> DensityMatrix:
    """Reference evolution exp(-i G t) sigma exp(i G t) for comparisons,
    from the decomposition ``eig`` of G, which serves every t."""
    u = eig.apply(lambda w: np.exp(-1j * w * t))
    return DensityMatrix(u @ sigma.matrix @ u.conj().T, **_CHANNEL_TOLS)
