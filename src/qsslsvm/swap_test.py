"""Classification of new points by ancilla-interference overlap readout.

The trained coefficient state is never read out directly; a query state
(the new point x tiled over the m sample slots) and an expansion state
(sum_j alpha_j |j> (x) x_j) interfere on an ancilla, and the |-> outcome
lands with probability P = (1 - Re<q|s>) / 2.  Both states are real and
unit-normalized, so their overlap is the identity

    Re<q|s> = x . (X^T alpha) / (sqrt(m) ||x|| ||diag(alpha) X||_F)

for training rows X (m x p).  ``classify`` evaluates P from it for a
block of points without building either state: X^T alpha and
||diag(alpha) X||_F once per (alpha, training set), then O(p) per point.
The pair is memoized on the ``TrainingSet`` for the last coefficients
that passed their checks, so one-point calls with the same alpha, as a
readout of test points one at a time makes them, pay only the O(p)
part.  That part is two dot products.  A one-point exact call (shape
``(p,)`` or ``()``, ``shots == 0``) does the rest in Python floats,
whose sqrt, *, /, min and max round as numpy's elementwise ops do, and
takes its dot products from ``np.vdot`` and ``ndarray.dot``, the same
BLAS ddot as ``np.vecdot`` on a block row, so row i of a block equals a
one-point call on it bit for bit.  A query whose squared norm overflows
or underflows is read out as x / max|x_i|.  The array expressions that
a block takes spend ~12 us per one-point call on numpy dispatch over 0-d
arrays; the scalar path takes ~4 us (m = 24, p = 4, 2-core x86-64), and
a readout one test point per call pays this per point.  P < 1/2 means
positive overlap and a positive predicted label; for the linear kernel
the overlap sign equals the sign of the classical decision score.  The
state construction and the ancilla circuit are the test oracle in
``tests/dilation.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import TrainingSet
from .errors import DegenerateSystemError, EncodingError, LayoutError, ParameterError

#: Sampled estimates within this many binomial standard deviations of 1/2
#: are flagged as ambiguous.
_AMBIGUITY_SIGMAS = 3.0

#: A squared query norm below this (subnormal or 0), or not finite, is rescaled.
_TINY = float(np.finfo(np.float64).tiny)

#: A one-point label by ``P <= 1/2``, the scalar type of ``2 * (P <= 0.5) - 1``.
_LABELS = {True: np.int_(1), False: np.int_(-1)}


@dataclass(frozen=True)
class ClassificationResult:
    """Labels, P estimates and ambiguity flags, each of shape ``x.shape[:-1]``."""

    label: np.ndarray
    p_estimate: np.ndarray
    ambiguous: np.ndarray


def _expansion(alpha: np.ndarray, training: TrainingSet) -> tuple[np.ndarray, float]:
    """X^T alpha and ||diag(alpha) X||_F, after the checks that the
    expansion state can be encoded.

    The result is memoized on ``training`` under the float64 bytes of
    ``alpha`` and stored only once every check has passed; the training
    rows are read-only, so a hit stands for the same checks on the same
    inputs.  One entry: another alpha replaces it.
    """
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    key = alpha.tobytes()
    memo = training._expansion_memo
    hit = memo.get(key)
    if hit is not None:
        return hit
    m = training.sample_count
    if alpha.shape[0] != m:
        raise LayoutError(f"alpha has {alpha.shape[0]} entries, expected {m}")
    if not alpha.any():
        raise DegenerateSystemError("model coefficients are all zero")
    row_norms = training.row_norms
    if (row_norms == 0.0).any():
        raise EncodingError("training set has a zero-norm sample")
    with np.errstate(over="ignore"):  # an overflow is the non-finite case below
        s_norm = np.linalg.norm(alpha * row_norms)
    if s_norm == 0.0 or not np.isfinite(s_norm):
        raise EncodingError("cannot encode a zero or non-finite expansion")
    weights = training.features.T @ alpha
    weights.setflags(write=False)
    memo.clear()
    memo[key] = hit = weights, float(s_norm)
    return hit


def _nonnegative_int(name: str, value) -> int:
    """``value`` as an int after checking that it is a non-negative
    integer (an integral float is, a ``bool`` is not)."""
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    if type(value) is not int and (  # a plain int is one: the common case, kept cheap
            isinstance(value, (bool, np.bool_)) or not float(value).is_integer()):
        raise ParameterError(f"{name} must be an integer, got {value}")
    return int(value)


def _scaled_query(x: np.ndarray) -> np.ndarray:
    """``x / max|x_i|``, or the error of a zero or non-finite query row."""
    if not np.isfinite(x).all():
        raise EncodingError("cannot encode a non-finite query point")
    top = np.max(np.abs(x))
    if top == 0.0:
        raise EncodingError("cannot encode a zero query point")
    return x / top


def classify(
    alpha: np.ndarray,
    x_new: np.ndarray,
    training: TrainingSet,
    shots: int = 0,
    seed: int = 0,
) -> ClassificationResult:
    """Predict the labels of ``x_new``, one point ``(p,)`` or a block
    ``(n, p)``, from the overlap of the query and expansion states.

    P < 1/2 means positive overlap and label +1; exactly 1/2 maps to +1,
    the same tie rule as the classical predictor's sign(0).  ``shots == 0``
    returns P itself, for row i of a block bit for bit what a one-point
    call on that row returns; otherwise P is estimated from ``shots``
    Bernoulli draws, seeded with ``seed + i`` for row i, and an estimate
    within three binomial standard deviations of 1/2 is flagged as
    ambiguous (the label is still returned).  Errors are raised in the
    order the construction would meet them: the query points, then the
    coefficients and training rows, then ``shots`` and ``seed`` (each a
    non-negative integer, not a ``bool``); the first bad row of a block
    raises the error a one-point call on it would.
    """
    m, p = training.features.shape
    # C order: each row's dot product then sums in the same order as a
    # one-point call on it
    x = np.asarray(x_new, dtype=np.float64, order="C")
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape[-1] != p:
        raise LayoutError(f"query point has {x.shape[-1]} features, training set has {p}")
    if x.ndim == 1 and shots == 0:
        # the scalar path of the module docstring; np.vdot overflows with no warning
        sq = float(np.vdot(x, x))
        if not _TINY <= sq < math.inf:
            x = _scaled_query(x)
            sq = float(np.vdot(x, x))
        q_norm = math.sqrt(m) * math.sqrt(sq)
        weights, s_norm = _expansion(alpha, training)
        _nonnegative_int("shots", shots)
        _nonnegative_int("seed", seed)
        overlap = float(x.dot(weights)) / (q_norm * s_norm)
        prob = min(max((1.0 - overlap) / 2.0, 0.0), 1.0)
        return ClassificationResult(_LABELS[prob <= 0.5], np.float64(prob),
                                    np.zeros((), dtype=bool))
    with np.errstate(over="ignore"):  # an overflowing row is rescaled below
        sq = np.vecdot(x, x)
    rescaled = ~((sq >= _TINY) & (sq < math.inf))
    if rescaled.any():  # in row order, so that the first bad row raises
        x = x.copy()
        x[rescaled] = [_scaled_query(row) for row in x[rescaled]]
        sq = np.vecdot(x, x)
    q_norm = math.sqrt(m) * np.sqrt(sq)
    weights, s_norm = _expansion(alpha, training)
    shots, seed = _nonnegative_int("shots", shots), _nonnegative_int("seed", seed)
    overlap = np.vecdot(x, weights) / (q_norm * s_norm)
    prob = np.minimum(np.maximum((1.0 - overlap) / 2.0, 0.0), 1.0)
    ambiguous = np.zeros(prob.shape, dtype=bool)
    if shots > 0:
        hits = [np.random.default_rng(seed + i).binomial(shots, pi)
                for i, pi in enumerate(prob.reshape(-1))]
        prob = np.reshape(hits, prob.shape) / shots
        std = np.sqrt(prob * (1.0 - prob) / shots)
        ambiguous = abs(prob - 0.5) < _AMBIGUITY_SIGMAS * std
    return ClassificationResult(2 * (prob <= 0.5) - 1, prob, ambiguous)
