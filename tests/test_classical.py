"""Tests for the classical semi-supervised LS-SVM solver."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import objective_value, random_connected_graph, random_training_set
from qsslsvm.classical import (
    AssembledSystem,
    KernelSpec,
    ModelSolution,
    assemble_factored,
    assemble_system,
    kernel_features,
    kernel_matrix,
    objective_gradient,
    predict,
    solve_classical,
    train_semi_supervised,
)
from qsslsvm.datasets import (
    SampleGraph,
    TrainingSet,
    combinatorial_laplacian,
    laplacian,
    load_points,
    normalized_laplacian,
)
from qsslsvm.encodings import kernel_density, laplacian_density
from qsslsvm.errors import (
    DegenerateSystemError,
    LayoutError,
    NumericalError,
    ParameterError,
    SymmetryError,
)
from qsslsvm.linalg import hermitian_eig


class TestKernelSpec:
    def test_parse(self):
        assert KernelSpec.parse("linear").kind == "linear"
        spec = KernelSpec.parse("poly:3,0.5")
        assert (spec.kind, spec.degree, spec.offset) == ("poly", 3, 0.5)
        assert KernelSpec.parse("rbf:0.7").width == 0.7

    def test_parse_errors(self):
        for bad in ("cubic", "poly:x", "rbf:", "rbf:-1"):
            with pytest.raises(ParameterError):
                KernelSpec.parse(bad)

    def test_validation(self):
        with pytest.raises(ParameterError):
            KernelSpec("poly", degree=0)
        with pytest.raises(ParameterError):
            KernelSpec("rbf", width=0.0)

    @pytest.mark.parametrize("kind, arg, value", [
        ("poly", "offset", math.nan), ("poly", "offset", math.inf), ("poly", "offset", -math.inf),
        ("rbf", "width", math.nan), ("rbf", "width", math.inf),
    ])
    def test_non_finite_offset_or_width(self, kind, arg, value):
        with pytest.raises(ParameterError, match="must be finite"):
            KernelSpec(kind, **{arg: value})
        text = f"poly:2,{value}" if kind == "poly" else f"rbf:{value}"
        with pytest.raises(ParameterError):
            KernelSpec.parse(text)

    @pytest.mark.parametrize("degree", [True, np.True_, 2.5, math.inf, math.nan])
    def test_degree_not_an_integer(self, degree):
        with pytest.raises(ParameterError, match="degree must be an integer"):
            KernelSpec("poly", degree=degree)

    @pytest.mark.parametrize("degree", [2.0, np.float64(2.0), np.int64(2)])
    def test_integral_degree_stored_as_int(self, degree):
        assert type(KernelSpec("poly", degree=degree).degree) is int


class TestKernelMatrix:
    def test_orthonormal_rows(self):
        ts = TrainingSet(np.eye(2), np.array([1.0, -1.0]), 2)
        assert np.allclose(kernel_matrix(ts, KernelSpec("linear")), np.eye(2))

    def test_linear_entries(self):
        ts = TrainingSet(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([1.0, -1.0]), 2)
        assert np.allclose(kernel_matrix(ts, KernelSpec("linear")), [[1.0, 1.0], [1.0, 2.0]])

    def test_rbf_unit_diagonal_psd(self, rng):
        x = rng.normal(size=(5, 3))
        ts = TrainingSet(x, np.array([1.0, -1.0, 0.0, 0.0, 0.0]), 2)
        k = kernel_matrix(ts, KernelSpec("rbf", width=0.8))
        assert np.allclose(np.diag(k), 1.0)
        assert np.linalg.eigvalsh(k)[0] >= -1e-9

    def test_poly_psd(self, rng):
        x = rng.normal(size=(4, 2))
        ts = TrainingSet(x, np.array([1.0, -1.0, 0.0, 0.0]), 2)
        k = kernel_matrix(ts, KernelSpec("poly", degree=2, offset=1.0))
        assert np.linalg.eigvalsh(k)[0] >= -1e-9

    @pytest.mark.parametrize("width", [1e-150, 1e-300])
    def test_rbf_exponent_past_float64_is_zero(self, width):
        # the squared distance is finite, its ratio to 2 width^2 is not; at
        # 1e-300, 2 width^2 itself underflows to 0 (a warning would fail)
        ts = TrainingSet(np.array([[0.0, 1.0], [1e5, 1.0]]), np.array([1.0, -1.0]), 2)
        assert np.array_equal(kernel_matrix(ts, KernelSpec("rbf", width=width)), np.eye(2))

    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("poly", 2, 1.0),
                                        KernelSpec("rbf", width=1.0)], ids=lambda k: k.kind)
    def test_overflow_is_numerical_error(self, kernel):
        # each row's squared norm is finite; sums, differences and powers
        # of the entries are not (a warning would fail the test)
        ts = TrainingSet(np.array([[1e154, 0.0], [-1e154, 0.0]]), np.array([1.0, -1.0]), 2)
        with pytest.raises(NumericalError, match="^float64 overflow in the kernel matrix$"):
            kernel_matrix(ts, kernel)


class TestAssembleSystem:
    def test_identity_kernel_empty_graph(self):
        y = np.array([1.0, -1.0, 1.0])
        sys = assemble_system(np.eye(3), np.zeros((3, 3)), y, 1.0)
        assert np.allclose(sys.a_matrix, 2 * np.eye(3))
        assert np.array_equal(sys.rhs, y)
        assert sys.trace_a == pytest.approx(6.0)

    def test_identity_kernel_collapses_products(self):
        g_lap = combinatorial_laplacian(SampleGraph(3, ((0, 1), (1, 2))))
        y = np.array([1.0, 0.0, -1.0])
        sys = assemble_system(np.eye(3), g_lap, y, 1.0)
        assert np.allclose(sys.a_matrix, 2 * np.eye(3) + g_lap.matrix)

    def test_term_by_term_oracle(self, rng):
        m = 4
        a = rng.normal(size=(m, m))
        k = a @ a.T
        b = rng.normal(size=(m, m))
        l = b @ b.T
        y = rng.choice([-1.0, 1.0], size=m)
        gamma = 2.5
        sys = assemble_system(k, l, y, gamma)
        # independent naive products, entry by entry
        kk = np.zeros((m, m))
        klk = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                kk[i, j] = sum(k[i, r] * k[r, j] for r in range(m))
                klk[i, j] = sum(
                    k[i, r] * l[r, s] * k[s, j] for r in range(m) for s in range(m)
                )
        expected = k / gamma + kk + klk / gamma
        assert np.max(np.abs(sys.a_matrix - expected)) < 1e-12
        assert np.allclose(sys.rhs, k @ y)

    @given(m=st.integers(2, 48), rank=st.integers(1, 48), seed=st.integers(0, 2**32 - 1),
           gamma=st.floats(1e-3, 1e3), kind=st.sampled_from(["combinatorial", "normalized"]))
    def test_two_products_match_three(self, m, rank, seed, gamma, kind):
        # A = K/gamma + K (K + L K/gamma) against K/gamma + K K + K L K/gamma
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(m, min(rank, m)))
        k = x @ x.T
        lm = laplacian(random_connected_graph(rng, m, m), kind).matrix
        a = assemble_system(k, lm, np.ones(m), gamma).a_matrix
        three = k / gamma + k @ k + (k @ lm @ k) / gamma
        three = (three + three.T) / 2
        assert np.max(np.abs(a - three)) <= 1e-12 * np.max(np.abs(three))

    def test_gamma_validation(self):
        with pytest.raises(ParameterError):
            assemble_system(np.eye(2), np.zeros((2, 2)), np.array([1.0, -1.0]), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(LayoutError):
            assemble_system(np.eye(2), np.zeros((3, 3)), np.array([1.0, -1.0]), 1.0)

    def test_built_spectrum_is_the_checked_one(self, rng):
        # A/tr(A) is exactly symmetric, so skipping hermitian_eig's
        # symmetrized copy and deviation scan changes no bit
        x = rng.normal(size=(30, 4))
        lm = laplacian(random_connected_graph(rng, 30, 30), "normalized").matrix
        sys = assemble_system(x @ x.T, lm, np.ones(30), 0.7)
        checked = hermitian_eig(sys.normalized_matrix())
        assert np.array_equal(sys.spectrum.eigenvalues, checked.eigenvalues)
        assert np.array_equal(sys.spectrum.eigenvectors, checked.eigenvectors)
        assert sys.spectrum.eigenvectors.flags.c_contiguous

    def test_callers_system_is_checked(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(SymmetryError):
            AssembledSystem(a, np.ones(2), 1.0, 2.0).spectrum

    def test_overflow_is_numerical_error(self):
        k = np.full((2, 2), 1e200)
        with pytest.raises(NumericalError, match="^float64 overflow in the system matrix$"):
            assemble_system(k, np.zeros((2, 2)), np.array([1.0, -1.0]), 1.0)


class TestSolveClassical:
    def test_scalar_system(self):
        y = np.array([1.0, -1.0])
        sys = assemble_system(np.eye(2), np.zeros((2, 2)), y, 1.0)
        model = solve_classical(sys, 1e-12)
        assert np.allclose(model.alpha, y / 2, atol=1e-12)

    def test_closed_form_identity_kernel(self):
        y = np.array([1.0, -1.0, 1.0])
        sys = assemble_system(np.eye(3), np.zeros((3, 3)), y, 10.0)
        model = solve_classical(sys, 1e-12)
        assert np.allclose(model.alpha, y / (1.0 + 1.0 / 10.0), atol=1e-12)

    def test_fixture_numeric_gradient(self, cluster8, cluster8_graph):
        spec = KernelSpec("linear")
        lap = normalized_laplacian(cluster8_graph)
        model, sys = train_semi_supervised(cluster8, lap, spec, 1.0, 1e-9)
        k = kernel_matrix(cluster8, spec)

        def objective(alpha):
            return objective_value(k, lap, cluster8.labels, 1.0, alpha)

        h = 1e-6
        grad = np.zeros(8)
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            grad[i] = (objective(model.alpha + e) - objective(model.alpha - e)) / (2 * h)
        assert np.linalg.norm(grad) <= 1e-6

    def test_residual_invariant(self, cluster8, cluster8_graph):
        lap = normalized_laplacian(cluster8_graph)
        model, sys = train_semi_supervised(cluster8, lap, KernelSpec("linear"), 1.0, 1e-9)
        resid = np.linalg.norm(sys.a_matrix @ model.alpha - sys.rhs)
        assert resid <= 1e-8 * np.linalg.norm(sys.rhs)

    def test_all_filtered_is_degenerate(self):
        y = np.array([1.0, -1.0])
        sys = assemble_system(np.eye(2), np.zeros((2, 2)), y, 1.0)
        with pytest.raises(DegenerateSystemError):
            solve_classical(sys, 10.0)

    def test_sigma_validation(self):
        sys = assemble_system(np.eye(2), np.zeros((2, 2)), np.array([1.0, -1.0]), 1.0)
        with pytest.raises(ParameterError):
            solve_classical(sys, -0.5)

    def test_one_decomposition_per_system(self, cluster8, cluster8_graph, eig_calls):
        # the machine threshold of sigma_filter = 0 reads the same spectrum,
        # and a second solve of the same system decomposes nothing
        k = kernel_density(cluster8).matrix
        l = laplacian_density(cluster8_graph).matrix
        for first, second in ((0.05, 0.0), (0.0, 0.05)):
            sys = assemble_system(k, l, cluster8.labels, 1.0)
            eig_calls.clear()
            solve_classical(sys, first)
            solve_classical(sys, second)
            assert [name for name, _ in eig_calls] == ["eigh"]


class TestPredict:
    def test_single_representer(self, rng):
        x = rng.normal(size=(3, 2))
        model = ModelSolution(np.array([1.0, 0.0, 0.0]), 1.0, KernelSpec("linear"), 0.0, x)
        x_new = rng.normal(size=2)
        score, _ = predict(model, x_new)
        assert score == pytest.approx(float(x[0] @ x_new))

    def test_fixture_positive_point(self, cluster8, cluster8_graph):
        lap = normalized_laplacian(cluster8_graph)
        model, _ = train_semi_supervised(cluster8, lap, KernelSpec("linear"), 1.0, 1e-9)
        positive = cluster8.features[np.argmax(cluster8.labels)]
        assert predict(model, positive)[1] == 1

    def test_zero_model_tie_rule(self, cluster8):
        model = ModelSolution(
            np.zeros(8), 1.0, KernelSpec("linear"), 0.0, cluster8.features
        )
        score, label = predict(model, np.array([1.0, 1.0]))
        assert score == 0.0
        assert label == 1


    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("poly", 2, 1.0),
                                        KernelSpec("rbf", width=2.0)], ids=lambda k: k.kind)
    def test_block_matches_one_point_calls(self, cluster8, data_dir, rng, kernel):
        model = ModelSolution(rng.normal(size=8), 1.0, kernel, 0.0, cluster8.features)
        points = load_points(data_dir / "grid_20.csv")
        scores, labels = predict(model, points)
        assert scores.shape == labels.shape == (20,)
        tol = 1e-12 * np.max(np.abs(scores))
        for i, point in enumerate(points):
            score, label = predict(model, point)
            assert abs(scores[i] - score) <= tol
            assert labels[i] == label

class TestSolverProperties:
    def test_zero_laplacian_matches_plain_ls_svm(self, rng):
        m = 5
        a = rng.normal(size=(m, m))
        k = a @ a.T + 0.5 * np.eye(m)
        y = rng.choice([-1.0, 1.0], size=m)
        gamma = 2.0
        sys = assemble_system(k, np.zeros((m, m)), y, gamma)
        model = solve_classical(sys, 1e-12)
        direct = np.linalg.solve(k / gamma + k @ k, k @ y)
        assert np.max(np.abs(model.alpha - direct)) < 1e-9

    def test_objective_descent(self, cluster8, cluster8_graph, rng):
        spec = KernelSpec("linear")
        lap = normalized_laplacian(cluster8_graph)
        model, _ = train_semi_supervised(cluster8, lap, spec, 1.0, 1e-9)
        k = kernel_matrix(cluster8, spec)
        base = objective_value(k, lap, cluster8.labels, 1.0, model.alpha)
        for _ in range(100):
            delta = rng.normal(size=8)
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = objective_value(k, lap, cluster8.labels, 1.0, model.alpha + delta)
            assert base <= perturbed + 1e-9

    def test_graph_term_equals_edge_sum(self, cluster8, cluster8_graph, rng):
        k = kernel_matrix(cluster8, KernelSpec("linear"))
        lap = combinatorial_laplacian(cluster8_graph)
        alpha = rng.normal(size=8)
        f = k @ alpha
        edge_sum = sum((f[u] - f[v]) ** 2 for u, v in cluster8_graph.edges)
        assert abs(alpha @ k @ lap.matrix @ k @ alpha - edge_sum) < 1e-9

    def test_gradient_helper_matches_residual(self, cluster8, cluster8_graph):
        lap = normalized_laplacian(cluster8_graph)
        model, sys = train_semi_supervised(cluster8, lap, KernelSpec("linear"), 1.0, 1e-9)
        grad = objective_gradient(sys, model.alpha)
        assert np.allclose(grad, sys.a_matrix @ model.alpha - sys.rhs)


#: Kernels with an explicit feature map: linear, and polynomial with offset
#: 0 (no constant column) or positive.
_FINITE_RANK_KERNELS = st.one_of(
    st.just(KernelSpec("linear")),
    st.builds(lambda d, c: KernelSpec("poly", degree=d, offset=c),
              st.integers(1, 3), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
)


@st.composite
def _both_forms(draw):
    """A random problem with r < m <= 300 and its system in the factored
    form and in the dense form, the oracle."""
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.integers(1, 5))
    kernel = draw(_FINITE_RANK_KERNELS)
    r = kernel.feature_count(p)
    assume(r < 300)
    m = draw(st.integers(r + 1, 300))
    kind = draw(st.sampled_from(["combinatorial", "normalized"]))
    gamma = draw(st.floats(1e-2, 1e2))
    rng = np.random.default_rng(seed)
    ts = random_training_set(rng, m, p)
    lap = laplacian(random_connected_graph(rng, m, m), kind)
    thin = assemble_factored(kernel.features(ts.features), lap, ts.labels, gamma)
    dense = assemble_system(kernel_matrix(ts, kernel), lap, ts.labels, gamma)
    return thin, dense


#: (kernel, p, m, rank of the system train solves): rank < m on the
#: factored route, rank = m on the dense one.
_ROUTES = [
    (KernelSpec("linear"), 4, 8, 4),  # r = m/2: factored
    (KernelSpec("linear"), 4, 7, 7),  # r > m/2: dense
    (KernelSpec("poly", 2, 1.0), 2, 12, 6),  # (x1, x2, 1): C(4, 2) = 6 columns
    (KernelSpec("poly", 2, 1.0), 2, 11, 11),
    (KernelSpec("poly", 2, 0.0), 2, 6, 3),  # (x1, x2): C(3, 2) = 3 columns
    (KernelSpec("poly", 2, -1.0), 2, 12, 12),  # no real feature map: dense
    (KernelSpec("rbf"), 2, 12, 12),
]


class TestFactoredRoute:
    """The factored form A = F C F^T against the dense form as the oracle."""

    @given(m=st.integers(1, 40), p=st.integers(1, 5), kernel=_FINITE_RANK_KERNELS,
           seed=st.integers(0, 2**32 - 1))
    def test_features_reproduce_the_gram_matrix(self, m, p, kernel, seed):
        x = np.random.default_rng(seed).normal(size=(m, p))
        f = kernel.features(x)
        k = kernel.gram(x, x)
        assert f.shape == (m, kernel.feature_count(p))
        assert np.max(np.abs(f @ f.T - k)) <= 1e-12 * np.max(np.abs(k))

    def test_feature_counts(self):
        assert KernelSpec("linear").feature_count(8) == 8
        assert KernelSpec("poly", 2, 1.0).feature_count(8) == 45  # C(10, 2)
        assert KernelSpec("poly", 2, 0.0).feature_count(8) == 36  # C(9, 2): no constant
        assert KernelSpec("poly", 2, -1.0).feature_count(8) is None
        assert KernelSpec("rbf").feature_count(8) is None

    @settings(max_examples=40)
    @given(_both_forms())
    def test_spectrum_matches_dense(self, systems):
        thin, dense = systems
        r = thin.spectrum.eigenvalues.size
        assert thin.spectrum.eigenvectors.shape == (dense.rhs.size, r)
        assert np.max(np.abs(thin.spectrum.eigenvalues - dense.spectrum.eigenvalues[:r])) <= 1e-12
        # a matrix function with f(0) = 1 reads the thin form's null space
        f = lambda w: np.exp(-0.9j * w)  # noqa: E731
        assert np.max(np.abs(thin.spectrum.apply(f) - dense.spectrum.apply(f))) <= 1e-12
        assert np.max(np.abs(thin.matvec(dense.rhs) - dense.a_matrix @ dense.rhs)) <= (
            1e-12 * np.max(np.abs(dense.a_matrix)) * np.linalg.norm(dense.rhs, 1))
        assert thin.trace_a == pytest.approx(dense.trace_a, rel=1e-12)

    @settings(max_examples=40)
    @given(_both_forms())
    def test_solution_matches_dense(self, systems):
        thin, dense = systems
        lam = dense.spectrum.eigenvalues
        # away from the threshold both forms keep the same eigenvalues
        if lam[0] >= 0.05 and np.min(np.abs(lam - 0.05)) > 1e-6:
            alpha = solve_classical(dense, 0.05).alpha
            err = np.linalg.norm(solve_classical(thin, 0.05).alpha - alpha)
            assert err <= 1e-8 * np.linalg.norm(alpha)
        # at the machine threshold, alpha moves with ill-conditioned kept
        # eigenvalues: compare the residual on the dense retained space
        m = lam.size
        keep = dense.spectrum.eigenvectors[:, lam >= max(lam[0], 2.0**-52) * m * 2.0**-52 * 100]
        resid = keep.T @ (dense.a_matrix @ solve_classical(thin, 0.0).alpha - dense.rhs)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(keep.T @ dense.rhs)

    def test_machine_threshold_counts_all_m_eigenvalues(self, rng):
        # eigenvalues of A/tr(A) near 1 and 1e-12: the second lies below
        # the threshold 100 m eps lambda_0 at m = 300, not below 100 r eps
        q = np.linalg.qr(rng.normal(size=(300, 2)))[0]
        f = q * [1.0, math.sqrt(2e-12)]
        y = rng.normal(size=300)
        dense = solve_classical(assemble_system(f @ f.T, np.zeros((300, 300)), y, 1.0), 0.0)
        thin = solve_classical(assemble_factored(f, np.zeros((300, 300)), y, 1.0), 0.0)
        assert np.linalg.norm(thin.alpha - dense.alpha) <= 1e-8 * np.linalg.norm(dense.alpha)

    @pytest.mark.parametrize("kernel, p, m, rank", _ROUTES)
    def test_route_follows_the_feature_count(self, rng, kernel, p, m, rank):
        ts = random_training_set(rng, m, p)
        lap = normalized_laplacian(random_connected_graph(rng, m, m))
        model, sys = train_semi_supervised(ts, lap, kernel, 1.0, 0.0)
        assert sys.spectrum.eigenvectors.shape == (m, rank)
        resid = sys.a_matrix @ model.alpha - sys.rhs
        keep = sys.spectrum.eigenvectors
        assert np.linalg.norm(keep.T @ resid) <= 1e-8 * np.linalg.norm(keep.T @ sys.rhs)

    @pytest.mark.parametrize("kernel, p, m, rank", _ROUTES)
    def test_predict_follows_the_route(self, rng, monkeypatch, kernel, p, m, rank):
        """``predict`` forms the m x n kernel block only where ``train``
        takes the dense route."""
        ts = random_training_set(rng, m, p)
        model = ModelSolution(rng.normal(size=m), 1.0, kernel, 0.0, ts.features)
        points = rng.normal(size=(5, p))
        expected = model.alpha @ kernel.gram(ts.features, points)
        blocks = []
        gram = KernelSpec.gram
        monkeypatch.setattr(KernelSpec, "gram",
                            lambda self, a, b: blocks.append(b.shape) or gram(self, a, b))
        scores, _ = predict(model, points)
        assert blocks == ([] if rank < m else [(5, p)])
        assert np.max(np.abs(scores - expected)) <= 1e-12 * np.max(np.abs(expected))

    @given(m=st.integers(2, 40), p=st.integers(1, 5), kernel=_FINITE_RANK_KERNELS,
           n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_feature_scores_match_the_kernel_block(self, m, p, kernel, n, seed):
        """Phi(x) . (Phi(X)^T alpha) against alpha K(X, x) as the oracle,
        within 1e-12 of sqrt(K(x, x)) sum_j |alpha_j| sqrt(K(x_j, x_j)),
        which bounds each score's terms; ``n`` 0 is one point of shape (p,)."""
        assume(kernel.feature_count(p) <= m / 2)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(m, p))
        points = rng.normal(size=(n, p) if n else p)
        model = ModelSolution(rng.normal(size=m), 1.0, kernel, 0.0, x)
        scores, labels = predict(model, points)
        expected = (model.alpha @ kernel.gram(x, points)).reshape(points.shape[:-1])
        diag = lambda a: np.sum(kernel.features(a) ** 2, axis=1)  # noqa: E731
        size = np.sqrt(diag(points)) * (np.abs(model.alpha) @ np.sqrt(diag(x)))
        assert scores.shape == labels.shape == points.shape[:-1]
        assert np.all(np.abs(scores - expected) <= 1e-12 * size.reshape(scores.shape))

    @pytest.mark.parametrize("kernel, x, fails", [
        (KernelSpec("linear"), 1e154, True),  # 2 K_ii = 2e308
        (KernelSpec("linear"), 9e153, False),
        (KernelSpec("poly", 2, 1.0), 1e77, True),  # 2 (1e154 + 1)^2
        (KernelSpec("poly", 2, 1.0), 9e76, False),
    ])
    def test_features_overflow_like_the_kernel_matrix(self, kernel, x, fails):
        ts = TrainingSet(np.array([[x], [-x], [1.0], [2.0], [3.0], [4.0]]),
                         np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]), 2)
        assert kernel.feature_count(1) <= 3  # the factored route
        for build in (kernel_matrix, kernel_features):
            if fails:
                with pytest.raises(NumericalError, match="^float64 overflow in the kernel matrix$"):
                    build(ts, kernel)
            else:
                assert np.all(np.isfinite(build(ts, kernel)))

    def test_core_overflow_is_a_system_matrix_error(self):
        f = np.array([[1e100], [-1e100], [1.0]])
        lm = np.eye(3)
        for assemble, k in ((assemble_factored, f), (assemble_system, f @ f.T)):
            with pytest.raises(NumericalError, match="^float64 overflow in the system matrix$"):
                assemble(k, lm, np.array([1.0, -1.0, 0.0]), 1.0)

    def test_a_matrix_formed_on_request(self, cluster8, cluster8_graph):
        lap = normalized_laplacian(cluster8_graph)
        _, sys = train_semi_supervised(cluster8, lap, KernelSpec("linear"), 1.0, 0.05)
        dense = assemble_system(kernel_matrix(cluster8, KernelSpec("linear")), lap,
                                cluster8.labels, 1.0)
        assert sys._a is None
        assert np.max(np.abs(sys.a_matrix - dense.a_matrix)) <= 1e-12 * np.max(dense.a_matrix)
        assert np.array_equal(sys.a_matrix, sys.a_matrix.T)
