"""Classical semi-supervised least-squares SVM.

Training minimizes a squared-loss objective with a kernel-norm regularizer
and a graph-smoothness term, which reduces to the linear system

    (K/gamma + K K + K L K / gamma) alpha = K y.

The solver works on the trace-normalized matrix A/tr(A) with eigenvalue
filtering, so the classical solution and the quantum-simulated one invert
the identical matrix.  An ``AssembledSystem`` decomposes A/tr(A) once
(``spectrum``); the classical solve, the phase-estimation solve and the
pipeline's residual projection all read that one decomposition.

A is held in one of two forms.  ``assemble_system`` forms it dense from two
products, A = K/gamma + K (K + L K / gamma), and symmetrizes it.  A kernel
with an explicit feature map of r < m columns, K = F F^T, can be held
factored by ``assemble_factored``:

    A = F C F^T,   C = I/gamma + F^T F + F^T (L F) / gamma   (r x r).

With a thin QR F = Q R, the nonzero spectrum of A/tr(A) is that of the
r x r core S = R C R^T / tr(S), and its eigenvectors are Q U_S; the rhs is
F (F^T y) and A v is F (C (F^T v)).  ``train_semi_supervised`` takes that
form for the linear kernel (F = X, r = p) and for a polynomial kernel with
offset c >= 0 (``KernelSpec.features``) when r <= m/2.  There L F comes
from the graph's edges in O(E r), and ``predict`` scores through the
feature map, so that route forms no m x m or m x n array; rbf kernels,
negative offsets and r > m/2, where the factored form is no cheaper
(``_FACTORED_MAX_SHARE``), take the dense form.  ``simulate`` assembles
its system here too, from the kernel density's factor X/||X||_F and L/m,
so ``train`` and ``simulate`` share one assembly; this module is the
ground-truth oracle for the quantum pipeline.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

from .datasets import LaplacianMatrix, TrainingSet
from .errors import DegenerateSystemError, LayoutError, NumericalError, ParameterError
from .linalg import SpectralDecomposition, as_matrix, hermitian_eig, overflow_guard

_EPS = np.finfo(np.float64).eps

#: ``train`` takes the factored route when the kernel's feature count r is
#: at most this share of m.  Measured on one BLAS thread (README Scale
#: limits), the factored route takes 0.36-0.44 of the dense time at
#: r = m/2 with 0.73 of its peak memory; at r = 0.65 m it takes 0.6-0.76
#: of it (0.77-0.86 on two threads) at the same peak, and from r ~ 0.75 m
#: it is slower.
_FACTORED_MAX_SHARE = 0.5


@dataclass(frozen=True)
class KernelSpec:
    """Kernel function: linear, polynomial (x.y + offset)^degree, or
    Gaussian rbf exp(-||x - y||^2 / (2 width^2)).

    A polynomial degree is an integer >= 1 (an integral float is stored as
    an int, a bool is rejected) and its offset is finite; an rbf width is
    finite and positive."""

    kind: str = "linear"
    degree: int = 3
    offset: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "poly", "rbf"):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "poly":
            d = self.degree
            if isinstance(d, (bool, np.bool_)) or not float(d).is_integer() or d < 1:
                raise ParameterError(f"polynomial degree must be an integer >= 1, got {d}")
            object.__setattr__(self, "degree", int(d))
            if not math.isfinite(self.offset):
                raise ParameterError(f"polynomial offset must be finite, got {self.offset}")
        if self.kind == "rbf" and not 0 < self.width < math.inf:
            raise ParameterError(f"rbf width must be finite and positive, got {self.width}")

    @classmethod
    def parse(cls, text: str) -> "KernelSpec":
        """Parse CLI syntax: ``linear``, ``poly:D,C`` or ``rbf:W``."""
        name, _, args = text.partition(":")
        name = name.strip().lower()
        if name not in ("linear", "poly", "rbf"):
            raise ParameterError(f"unknown kernel {text!r} (expected linear|poly:d,c|rbf:w)")
        try:
            if name == "poly":
                d_str, _, c_str = args.partition(",")
                values = {"degree": int(d_str), "offset": float(c_str) if c_str else 1.0}
            else:
                values = {"width": float(args)} if name == "rbf" else {}
        except ValueError:
            raise ParameterError(f"bad kernel arguments in {text!r}") from None
        return cls(name, **values)  # a value out of range raises the constructor's message

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
        sq = np.clip(np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2 * inner,
                     0.0, None)
        scale = 2.0 * self.width**2
        if scale == 0.0:  # 2 width^2 underflows: the limit of a vanishing width
            return (sq == 0.0).astype(np.float64)
        with np.errstate(over="ignore"):  # an exponent overflowing to -inf gives 0
            return np.exp(-sq / scale)

    def feature_count(self, p: int) -> int | None:
        """Columns r of the explicit feature map (``features``) of points
        with ``p`` coordinates, or None for a kernel without one (rbf, or a
        polynomial with a negative offset)."""
        if self.kind == "linear":
            return p
        if self.kind == "poly" and self.offset >= 0:
            return math.comb(p + self.degree - (self.offset == 0), self.degree)
        return None

    def features(self, a: np.ndarray) -> np.ndarray:
        """Feature rows F with F F^T = gram(a, a), for a kernel with a
        ``feature_count``.  Linear: the points themselves.  Polynomial: the
        degree-d monomials of (x, sqrt(offset)), each weighted by the square
        root of its multinomial coefficient, since (x.y + c)^d is the d-th
        power of (x, sqrt c).(y, sqrt c); at offset 0 the constant column is
        dropped."""
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        if self.kind == "linear":
            return a
        if self.offset > 0:
            a = np.hstack([a, np.full((a.shape[0], 1), math.sqrt(self.offset))])
        d = self.degree
        monomials = list(combinations_with_replacement(range(a.shape[1]), d))
        # log of the multinomial d! / prod(n_k!) over each index's multiplicity n_k
        log_weights = [math.lgamma(d + 1) - sum(math.lgamma(n + 1) for n in Counter(mono).values())
                       for mono in monomials]
        idx = np.array(monomials)
        f = a[:, idx[:, 0]]
        for j in range(1, d):  # one m x r product at a time, no m x r x d temporary
            f *= a[:, idx[:, j]]
        return f * np.exp(0.5 * np.array(log_weights))


@overflow_guard("the kernel matrix")
def kernel_matrix(x: TrainingSet, spec: KernelSpec) -> np.ndarray:
    """Symmetric PSD m x m kernel matrix over the training samples.

    The linear kind is the Gram matrix of the sample rows, X @ X.T.
    """
    k = spec.gram(x.features, x.features)
    return (k + k.T) / 2


def _factored_route(spec: KernelSpec, m: int, p: int) -> bool:
    """Whether ``spec`` has an explicit feature map of at most
    ``_FACTORED_MAX_SHARE`` m columns for m points with p coordinates."""
    r = spec.feature_count(p)
    return r is not None and r <= _FACTORED_MAX_SHARE * m


@overflow_guard("the kernel matrix")
def kernel_features(x: TrainingSet, spec: KernelSpec) -> np.ndarray | None:
    """Feature rows F of the training samples, F F^T = ``kernel_matrix(x,
    spec)``, when the kernel has an explicit feature map of at most
    ``_FACTORED_MAX_SHARE`` m columns (``KernelSpec.feature_count``); None
    otherwise.

    K is PSD, so its largest entry lies on its diagonal K_ii = sum_j F_ij^2:
    2 max_i K_ii overflows exactly when ``kernel_matrix``'s (K + K^T)/2
    does, and raises the same error at O(m r) cost.
    """
    if not _factored_route(spec, *x.features.shape):
        return None
    f = spec.features(x.features)
    2.0 * np.max(np.sum(f * f, axis=1))  # evaluated for its overflow only
    return f


class AssembledSystem:
    """Left-hand matrix A = K/gamma + K K + K L K / gamma, its trace and the
    right-hand side K y.

    ``AssembledSystem(a_matrix, rhs, gamma, trace_a)`` holds a caller's
    dense A, and ``spectrum`` checks that A/tr(A) is symmetric
    (``hermitian_eig``).  The systems that ``assemble_system`` (``_built``)
    and ``assemble_factored`` (``_factored``) build are symmetrized before
    they are divided by their trace, so their ``spectrum`` decomposes them
    with no such check.  A factored system forms ``a_matrix`` only when a
    caller asks for it.
    """

    def __init__(self, a_matrix: np.ndarray, rhs: np.ndarray, gamma: float, trace_a: float):
        self._a = a_matrix
        self.rhs = rhs
        self.gamma = gamma
        self.trace_a = trace_a
        self._symmetric = False
        # the factored form A = F C F^T with F = Q R and S = R C R^T / tr(A);
        # all None for a dense A
        self._f = self._c = self._q = self._s = None

    @classmethod
    def _built(cls, a: np.ndarray, rhs: np.ndarray, gamma: float, trace_a: float) -> AssembledSystem:
        """Wrap a dense A that ``assemble_system`` symmetrized: A/tr(A) is
        then exactly symmetric and needs only its finite check."""
        sys = cls(a, rhs, gamma, trace_a)
        sys._symmetric = True
        return sys

    @classmethod
    def _factored(cls, f: np.ndarray, c: np.ndarray, q: np.ndarray, s: np.ndarray,
                  rhs: np.ndarray, gamma: float, trace_a: float) -> AssembledSystem:
        """Hold A by the factors F, C, Q and S of ``assemble_factored``."""
        sys = cls(None, rhs, gamma, trace_a)
        sys._f, sys._c, sys._q, sys._s = f, c, q, s
        return sys

    @property
    def a_matrix(self) -> np.ndarray:
        """Dense A, formed on first use from the factored form."""
        if self._a is None:
            with overflow_guard("the system matrix"):
                a = (0.5 * (self._f @ self._c)) @ self._f.T
                self._a = a + a.T  # symmetrized from halves, as S is
        return self._a

    def normalized_matrix(self) -> np.ndarray:
        """A / tr(A), the matrix both solution paths invert."""
        if self.trace_a <= 0:
            raise DegenerateSystemError("system matrix has non-positive trace")
        return self.a_matrix / self.trace_a

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v; O(m r) in the factored form."""
        if self._f is None:
            return self.a_matrix @ v
        return self._f @ (self._c @ (self._f.T @ v))

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        """A/tr(A) decomposed on first use, shared by every consumer; only
        its nonzero part (r eigenpairs) in the factored form."""
        if self._f is not None:
            w, u = np.linalg.eigh(self._s)
            return SpectralDecomposition(w[::-1].copy(), self._q @ u[:, ::-1])
        if self._symmetric:
            w, v = np.linalg.eigh(as_matrix(self.normalized_matrix()))
            return SpectralDecomposition(w[::-1].copy(), np.ascontiguousarray(v[:, ::-1]))
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
    return AssembledSystem._built(a, k @ y, float(gamma), float(np.trace(a)))


@overflow_guard("the system matrix")
def assemble_factored(
    f: np.ndarray,
    l: np.ndarray | LaplacianMatrix,
    y: np.ndarray,
    gamma: float,
) -> AssembledSystem:
    """Build the training system for K = F F^T from the m x r feature rows
    ``f`` in factored form (module docstring).  A built Laplacian ``l``
    gives L F from its graph's edges (``LaplacianMatrix.product``), so no
    m x m array is formed; a caller's array is multiplied densely."""
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    f = np.ascontiguousarray(f, dtype=np.float64)
    if not isinstance(l, LaplacianMatrix):
        l = np.ascontiguousarray(l, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64).reshape(-1)
    m = f.shape[0]
    if f.ndim != 2 or l.shape != (m, m) or y.shape != (m,):
        raise LayoutError(
            f"dimension mismatch: F {f.shape}, L {l.shape}, y {y.shape}"
        )
    c = f.T @ (l.product(f) if isinstance(l, LaplacianMatrix) else l @ f)
    c /= gamma
    c += f.T @ f
    c += np.eye(f.shape[1]) / gamma
    q, r = np.linalg.qr(f)
    s = (0.5 * r) @ c @ r.T
    s = s + s.T  # (S + S^T) / 2 from halves, which cannot overflow
    trace_a = float(np.trace(s))
    if trace_a <= 0:
        raise DegenerateSystemError("system matrix has non-positive trace")
    return AssembledSystem._factored(f, c, q, s / trace_a, f @ (f.T @ y), float(gamma), trace_a)


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
    # a thin spectrum stands for m eigenvalues, its implicit zeros included;
    # those zeros pass the PSD check and lie below any threshold
    m = sys.spectrum.eigenvectors.shape[0]
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

    A kernel that ``train`` solves in factored form (an explicit feature
    map of at most ``_FACTORED_MAX_SHARE`` m columns) is scored as
    Phi(x) . (Phi(X)^T alpha), with no m x n array; any other forms its
    m x n kernel block once.  A score of exactly zero maps to +1
    (documented tie rule).
    """
    x = np.atleast_1d(np.asarray(x_new, dtype=np.float64))
    m, p = model.training_features.shape
    if x.shape[-1] != p:
        raise LayoutError(f"point has {x.shape[-1]} features, model expects {p}")
    kernel = model.kernel
    if _factored_route(kernel, m, p):
        scores = kernel.features(x) @ (kernel.features(model.training_features).T @ model.alpha)
    else:
        scores = model.alpha @ kernel.gram(model.training_features, x)
    scores = scores.reshape(x.shape[:-1])
    return scores, 2 * (scores >= 0) - 1


def objective_gradient(sys: AssembledSystem, alpha: np.ndarray) -> np.ndarray:
    """Gradient A alpha - K y of the training objective."""
    return sys.matvec(np.asarray(alpha, dtype=np.float64)) - sys.rhs


def train_semi_supervised(
    x: TrainingSet,
    lap: LaplacianMatrix,
    kernel: KernelSpec,
    gamma: float,
    sigma_filter: float,
) -> tuple[ModelSolution, AssembledSystem]:
    """Kernel, system assembly, and solve: the factored form when the kernel
    has an explicit feature map of at most m/2 columns
    (``kernel_features``), the dense form otherwise."""
    f = kernel_features(x, kernel)
    if f is None:
        sys = assemble_system(kernel_matrix(x, kernel), lap, x.labels, gamma)
    else:
        sys = assemble_factored(f, lap, x.labels, gamma)
    model = solve_classical(sys, sigma_filter, kernel=kernel, training_features=x.features)
    return model, sys
