"""Tests for the quantum state and density-matrix encodings."""

import numpy as np
import pytest

from conftest import random_connected_graph, random_training_set
from dilation import data_state, density, incidence_matrix, incidence_state, overlap, reduced
from qsslsvm.datasets import SampleGraph, TrainingSet, normalized_laplacian
from qsslsvm.encodings import (
    DensityMatrix,
    StateVector,
    kernel_density,
    label_state,
    laplacian_density,
)
from qsslsvm.errors import EncodingError, LayoutError


class TestStateVector:
    def test_norm_validation(self):
        with pytest.raises(EncodingError):
            StateVector(np.array([1.0, 1.0]))

    def test_normalized_constructor(self):
        sv = StateVector.normalized(np.array([3.0, 4.0]))
        assert np.allclose(sv.amplitudes, [0.6, 0.8])
        with pytest.raises(EncodingError):
            StateVector.normalized(np.zeros(3))

    def test_overlap_dimension_check(self):
        a = StateVector(np.array([1.0, 0.0]))
        b = StateVector(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(LayoutError):
            overlap(a, b)

    def test_positional_layout_rejected(self):
        # the tolerance is keyword-only, so a stale layout argument fails loudly
        with pytest.raises(TypeError):
            StateVector(np.array([1.0, 0.0]), (2,))


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(EncodingError):
            DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]]))  # not Hermitian
        with pytest.raises(EncodingError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(EncodingError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue

    def test_from_state_and_reduced(self):
        sv = StateVector.normalized(np.array([1.0, 0.0, 0.0, 1.0]))
        rho = density(sv)
        assert np.trace(rho.matrix).real == pytest.approx(1.0)
        assert np.allclose(reduced(rho, (2, 2), 1).matrix, np.eye(2) / 2)


class TestRealDensities:
    def test_kernel_and_laplacian_densities_are_float64(self, cluster8, cluster8_graph):
        assert kernel_density(cluster8).matrix.dtype == np.float64
        assert laplacian_density(cluster8_graph).matrix.dtype == np.float64

    def test_complex_input_stays_complex(self):
        rho = DensityMatrix(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
        assert rho.matrix.dtype == np.complex128

    def test_positional_tolerance_rejected(self):
        with pytest.raises(TypeError):
            DensityMatrix(np.eye(2) / 2, (2,))


class TestDataState:
    def test_single_sample(self):
        ts = TrainingSet(np.array([[1.0, 0.0]]), np.array([1.0]), 1)
        sv = data_state(ts)
        assert np.allclose(sv.amplitudes, [1.0, 0.0])
        assert sv.dim == 2

    def test_two_orthonormal_samples(self):
        ts = TrainingSet(np.eye(2), np.array([1.0, -1.0]), 2)
        sv = data_state(ts)
        assert np.allclose(sv.amplitudes, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))

    def test_blocks_proportional_to_rows(self, rng):
        ts = random_training_set(rng, 4, 3)
        sv = data_state(ts)
        assert np.linalg.norm(sv.amplitudes) == pytest.approx(1.0, abs=1e-12)
        blocks = sv.amplitudes.reshape(4, 3)
        expected = ts.features / np.linalg.norm(ts.features)
        assert np.allclose(blocks, expected, atol=1e-12)

    def test_zero_row_rejected(self):
        ts = TrainingSet(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0]), 1)
        with pytest.raises(EncodingError):
            data_state(ts)


class TestKernelDensity:
    def test_orthogonal_equal_norm(self):
        ts = TrainingSet(np.eye(2) * 3.0, np.array([1.0, -1.0]), 2)
        kd = kernel_density(ts)
        assert np.allclose(kd.matrix, np.diag([0.5, 0.5]))

    def test_single_sample_rank_one(self):
        ts = TrainingSet(np.array([[2.0, 1.0]]), np.array([1.0]), 1)
        kd = kernel_density(ts)
        assert kd.matrix.shape == (1, 1)
        assert kd.matrix[0, 0].real == pytest.approx(1.0)

    def test_entrywise_inner_product_oracle(self, rng):
        ts = random_training_set(rng, 6, 3)
        kd = kernel_density(ts)
        x = ts.features
        total = np.sum(np.linalg.norm(x, axis=1) ** 2)
        for i in range(6):
            for j in range(6):
                assert kd.matrix[i, j].real == pytest.approx(
                    float(x[i] @ x[j]) / total, abs=1e-12
                )

    def test_matches_gram_formula(self, rng):
        for _ in range(5):
            ts = random_training_set(rng, int(rng.integers(2, 8)), int(rng.integers(1, 5)))
            kd = kernel_density(ts)
            gram = ts.features @ ts.features.T
            assert np.max(np.abs(kd.matrix - gram / np.trace(gram))) < 1e-12

    def test_scale_invariance(self, rng):
        ts = random_training_set(rng, 5, 2)
        scaled = TrainingSet(ts.features * 37.5, ts.labels, ts.labeled_count)
        assert np.max(np.abs(kernel_density(ts).matrix - kernel_density(scaled).matrix)) < 1e-10


class TestLabelState:
    def test_mixed_labels(self):
        sv = label_state(np.array([1.0, -1.0, 0.0, 0.0]))
        assert np.allclose(sv.amplitudes, np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2))

    def test_basis_vector(self):
        sv = label_state(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(sv.amplitudes, [1.0, 0.0, 0.0])

    def test_fixture_unit_norm(self, cluster8):
        assert np.linalg.norm(label_state(cluster8.labels).amplitudes) == pytest.approx(1.0)

    def test_zero_labels_rejected(self):
        with pytest.raises(EncodingError):
            label_state(np.zeros(4))


class TestIncidenceState:
    def test_single_edge(self):
        g = SampleGraph(2, ((0, 1),))
        sv = incidence_state(g)
        assert np.allclose(sv.amplitudes, np.array([-1.0, 1.0]) / np.sqrt(2))
        assert sv.dim == 2

    def test_path_block_norms(self):
        g = SampleGraph(3, ((0, 1), (1, 2)))
        sv = incidence_state(g)
        blocks = sv.amplitudes.reshape(3, 2)
        assert np.allclose(np.linalg.norm(blocks, axis=1), 1 / np.sqrt(3))

    def test_triangle_blocks_match_incidence_rows(self):
        g = SampleGraph(3, ((0, 1), (0, 2), (1, 2)))
        sv = incidence_state(g)
        blocks = sv.amplitudes.reshape(3, 3)
        assert np.allclose(blocks, incidence_matrix(g) / np.sqrt(3))


class TestLaplacianDensity:
    def test_single_edge(self):
        g = SampleGraph(2, ((0, 1),))
        ld = laplacian_density(g)
        assert np.allclose(ld.matrix, np.array([[0.5, -0.5], [-0.5, 0.5]]))

    def test_path_is_normalized_laplacian_over_m(self):
        g = SampleGraph(3, ((0, 1), (1, 2)))
        ld = laplacian_density(g)
        assert np.allclose(ld.matrix, normalized_laplacian(g).matrix / 3, atol=1e-14)

    def test_dual_path_consistency(self, rng):
        g = random_connected_graph(rng, 6)
        ld = laplacian_density(g)
        direct = normalized_laplacian(g).matrix / 6
        assert np.max(np.abs(ld.matrix - direct)) < 1e-12

    def test_eigenvalue_range(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 9))
            g = random_connected_graph(rng, m)
            w = np.linalg.eigvalsh(laplacian_density(g).matrix)
            assert w[0] >= -1e-10
            assert w[-1] <= 2.0 / m + 1e-10


class TestDensityInvariantsFuzz:
    def test_all_encodings_are_valid_densities(self, rng):
        # constructor validation runs on every call; exercising it across
        # random datasets and graphs is the invariant check
        for _ in range(20):
            ts = random_training_set(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            kd = kernel_density(ts)
            assert np.trace(kd.matrix).real == pytest.approx(1.0, abs=1e-10)
            g = random_connected_graph(rng, ts.sample_count) if ts.sample_count > 1 else None
            if g is not None:
                ld = laplacian_density(g)
                assert np.trace(ld.matrix).real == pytest.approx(1.0, abs=1e-10)
