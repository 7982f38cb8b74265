"""Classical semi-supervised least-squares SVM.

Training minimizes a squared-loss objective with a kernel-norm regularizer
and a graph-smoothness term, which reduces to the linear system

    (K/gamma + K K + K L K / gamma) alpha = K y.

Its matrix is formed from two dense products, A = K/gamma + K (K + L K /
gamma), and then symmetrized.  The solver works on the trace-normalized
matrix A/tr(A) with eigenvalue filtering, so the classical solution and
the quantum-simulated one invert the identical matrix.  An
``AssembledSystem`` decomposes A/tr(A) once (``spectrum``); the classical
solve, the phase-estimation solve and the pipeline's residual projection
all read that one decomposition.  This module is the ground-truth oracle
for the quantum pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .datasets import LaplacianMatrix, TrainingSet
from .errors import DegenerateSystemError, LayoutError, NumericalError, ParameterError
from .linalg import SpectralDecomposition, hermitian_eig, overflow_guard

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class KernelSpec:
    """Kernel function: linear, polynomial (x.y + offset)^degree, or
    Gaussian rbf exp(-||x - y||^2 / (2 width^2))."""

    kind: str = "linear"
    degree: int = 3
    offset: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "poly", "rbf"):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "poly" and (int(self.degree) != self.degree or self.degree < 1):
            raise ParameterError(f"polynomial degree must be an integer >= 1, got {self.degree}")
        if self.kind == "rbf" and not self.width > 0:
            raise ParameterError(f"rbf width must be positive, got {self.width}")

    @classmethod
    def parse(cls, text: str) -> "KernelSpec":
        """Parse CLI syntax: ``linear``, ``poly:D,C`` or ``rbf:W``."""
        name, _, args = text.partition(":")
        name = name.strip().lower()
        try:
            if name == "linear":
                return cls("linear")
            if name == "poly":
                d_str, _, c_str = args.partition(",")
                return cls("poly", degree=int(d_str), offset=float(c_str) if c_str else 1.0)
            if name == "rbf":
                return cls("rbf", width=float(args))
        except ValueError:
            raise ParameterError(f"bad kernel arguments in {text!r}") from None
        raise ParameterError(f"unknown kernel {text!r} (expected linear|poly:d,c|rbf:w)")

    def gram(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Kernel values K(a_i, b_j) between rows of two point sets."""
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        if a.shape[1] != b.shape[1]:
            raise LayoutError(f"feature dimensions differ: {a.shape[1]} vs {b.shape[1]}")
        inner = a @ b.T
        if self.kind == "linear":
            return inner
        if self.kind == "poly":
            return (inner + self.offset) ** self.degree
        sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2 * inner
        with np.errstate(over="ignore"):  # an exponent overflowing to -inf gives 0
            return np.exp(-np.clip(sq, 0.0, None) / (2.0 * self.width**2))


@overflow_guard("the kernel matrix")
def kernel_matrix(x: TrainingSet, spec: KernelSpec) -> np.ndarray:
    """Symmetric PSD m x m kernel matrix over the training samples.

    The linear kind is the Gram matrix of the sample rows, X @ X.T.
    """
    k = spec.gram(x.features, x.features)
    return (k + k.T) / 2


@dataclass(frozen=True)
class AssembledSystem:
    """Left-hand matrix A = K/gamma + K K + K L K / gamma and rhs K y."""

    a_matrix: np.ndarray
    rhs: np.ndarray
    gamma: float
    trace_a: float

    def normalized_matrix(self) -> np.ndarray:
        """A / tr(A), the matrix both solution paths invert."""
        if self.trace_a <= 0:
            raise DegenerateSystemError("system matrix has non-positive trace")
        return self.a_matrix / self.trace_a

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        """A/tr(A) decomposed on first use, shared by every consumer."""
        return hermitian_eig(self.normalized_matrix())


@overflow_guard("the system matrix")
def assemble_system(
    k: np.ndarray,
    l: np.ndarray | LaplacianMatrix,
    y: np.ndarray,
    gamma: float,
) -> AssembledSystem:
    """Build the training system for kernel matrix ``k`` and Laplacian ``l``."""
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    k = np.ascontiguousarray(k, dtype=np.float64)
    lm = l.matrix if isinstance(l, LaplacianMatrix) else np.ascontiguousarray(l, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64).reshape(-1)
    m = k.shape[0]
    if k.shape != (m, m) or lm.shape != (m, m) or y.shape != (m,):
        raise LayoutError(
            f"dimension mismatch: K {k.shape}, L {lm.shape}, y {y.shape}"
        )
    # A = K/gamma + K (K + (L K)/gamma): two dense products, not three
    inner = lm @ k
    inner /= gamma
    inner += k
    a = k @ inner
    del inner  # no more than two m x m temporaries at a time
    a += k / gamma
    a = (a + a.T) / 2
    return AssembledSystem(a, k @ y, float(gamma), float(np.trace(a)))


@dataclass(frozen=True)
class ModelSolution:
    """Trained coefficients together with everything prediction needs."""

    alpha: np.ndarray
    gamma: float
    kernel: KernelSpec
    sigma_filter: float
    training_features: np.ndarray


def solve_classical(
    sys: AssembledSystem,
    sigma_filter: float,
    kernel: KernelSpec | None = None,
    training_features: np.ndarray | None = None,
) -> ModelSolution:
    """Solve the assembled system by filtered pseudo-inversion of A/tr(A).

    From A/tr(A) = V diag(lambda) V^T (``sys.spectrum``), alpha =
    V_keep ((V_keep^T rhs / tr(A)) / lambda_keep) over lambda >=
    ``sigma_filter``; ``sigma_filter = 0`` selects a machine-level threshold
    that only removes numerical zeros.  ``kernel`` and ``training_features``
    are carried into the model for later prediction.
    """
    if sigma_filter < 0:
        raise ParameterError(f"sigma_filter must be >= 0, got {sigma_filter}")
    lam = sys.spectrum.eigenvalues
    m = lam.shape[0]
    if lam[-1] < -1e-8 * max(1.0, abs(lam[0])):
        raise NumericalError(f"matrix is not PSD (min eigenvalue {lam[-1]:.3e})")
    sigma_eff = sigma_filter or max(float(lam[0]), _EPS) * m * _EPS * 100
    keep = lam >= sigma_eff
    if not np.any(keep):
        raise DegenerateSystemError(
            f"all eigenvalues fall below the filter threshold {sigma_eff:.3e}"
        )
    v = sys.spectrum.eigenvectors[:, keep]
    alpha = v @ ((v.T @ (sys.rhs / sys.trace_a)) / lam[keep])
    features = (
        np.zeros((m, 0)) if training_features is None
        else np.ascontiguousarray(training_features, dtype=np.float64)
    )
    return ModelSolution(alpha, sys.gamma, kernel or KernelSpec("linear"), sigma_filter, features)


@overflow_guard("the kernel scores")
def predict(model: ModelSolution, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores sum_j alpha_j K(x_j, x) and their sign labels for one point
    ``(p,)`` or a block ``(n, p)``, each of shape ``x_new.shape[:-1]``.

    The m x n kernel block is formed once; a score of exactly zero maps to
    +1 (documented tie rule).
    """
    x = np.atleast_1d(np.asarray(x_new, dtype=np.float64))
    p = model.training_features.shape[1]
    if x.shape[-1] != p:
        raise LayoutError(f"point has {x.shape[-1]} features, model expects {p}")
    scores = (model.alpha @ model.kernel.gram(model.training_features, x)).reshape(x.shape[:-1])
    return scores, 2 * (scores >= 0) - 1


def objective_gradient(sys: AssembledSystem, alpha: np.ndarray) -> np.ndarray:
    """Gradient A alpha - K y of the training objective."""
    return sys.a_matrix @ np.asarray(alpha, dtype=np.float64) - sys.rhs


def train_semi_supervised(
    x: TrainingSet,
    lap: LaplacianMatrix,
    kernel: KernelSpec,
    gamma: float,
    sigma_filter: float,
) -> tuple[ModelSolution, AssembledSystem]:
    """Convenience wrapper: kernel matrix, system assembly, and solve."""
    k = kernel_matrix(x, kernel)
    sys = assemble_system(k, lap, x.labels, gamma)
    model = solve_classical(sys, sigma_filter, kernel=kernel, training_features=x.features)
    return model, sys
