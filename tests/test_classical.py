"""Tests for the classical semi-supervised LS-SVM solver."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import objective_value, random_connected_graph
from qsslsvm.classical import (
    KernelSpec,
    ModelSolution,
    assemble_system,
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
from qsslsvm.errors import DegenerateSystemError, LayoutError, NumericalError, ParameterError


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

    def test_rbf_exponent_past_float64_is_zero(self):
        # the squared distance is finite, its ratio to 2 width^2 is not
        ts = TrainingSet(np.array([[0.0, 1.0], [1e5, 1.0]]), np.array([1.0, -1.0]), 2)
        assert np.array_equal(kernel_matrix(ts, KernelSpec("rbf", width=1e-150)), np.eye(2))

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
