"""Classification of new points by ancilla-interference overlap readout.

The trained coefficient state is never read out directly; instead a query
state built from the new point and an expansion state built from the
coefficients and the training points interfere on an ancilla.  The
probability of the |-> outcome is P = (1 - Re<x_q|s>) / 2, so P < 1/2
means positive overlap and a positive predicted label.  For the linear
kernel the overlap sign equals the sign of the classical decision score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import TrainingSet
from .encodings import StateVector
from .errors import DegenerateSystemError, EncodingError, LayoutError, ParameterError
from .linalg import TensorLayout


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


@dataclass(frozen=True)
class ClassificationResult:
    label: int
    p_estimate: float
    ambiguous: bool


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
    return StateVector.normalized(blocks, TensorLayout((m, x_new.shape[0])))


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
    return StateVector.normalized(blocks, TensorLayout((m, training.feature_count)))


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
    # post-Hadamard branches: |0>(psi + phi)/2 and |1>(psi - phi)/2
    minus_branch = (psi.amplitudes - phi.amplitudes) / 2.0
    p_exact = float(np.clip(np.sum(np.abs(minus_branch) ** 2), 0.0, 1.0))
    overlap = float(np.real(psi.overlap(phi)))
    if shots == 0:
        return OverlapEstimate(p_exact, 0, overlap)
    rng = np.random.default_rng(seed)
    hits = int(rng.binomial(shots, p_exact))
    return OverlapEstimate(hits / shots, shots, overlap)


def classify(
    alpha: np.ndarray,
    x_new: np.ndarray,
    training: TrainingSet,
    shots: int = 0,
    seed: int = 0,
    ambiguity_sigmas: float = 3.0,
) -> ClassificationResult:
    """Predict the label of ``x_new`` from the overlap of the query and
    expansion states.

    P < 1/2 means positive overlap and label +1; exactly 1/2 maps to +1,
    the same tie rule as the classical predictor's sign(0).  In sampled
    mode an estimate within ``ambiguity_sigmas`` binomial standard
    deviations of 1/2 is flagged as ambiguous (the label is still
    returned).
    """
    q = query_state(x_new, training)
    s = expansion_state(alpha, training)
    est = overlap_probability(q, s, shots=shots, seed=seed)
    p = est.probability
    label = 1 if p <= 0.5 else -1
    ambiguous = False
    if shots > 0:
        std = float(np.sqrt(max(p * (1.0 - p), 0.0) / shots))
        ambiguous = abs(p - 0.5) < ambiguity_sigmas * std
    return ClassificationResult(label, p, ambiguous)
