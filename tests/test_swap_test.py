"""Tests for the overlap-readout classifier and for its state-level oracle
(query state, expansion state and ancilla readout in ``dilation.py``)."""

import numpy as np
import pytest

from dilation import expansion_state, overlap, overlap_probability, query_state
from qsslsvm.classical import KernelSpec, predict
from qsslsvm.datasets import TrainingSet
from qsslsvm.encodings import StateVector
from qsslsvm.errors import (
    DegenerateSystemError,
    EncodingError,
    LayoutError,
    ParameterError,
)
from qsslsvm.swap_test import classify


def _state(vec) -> StateVector:
    return StateVector.normalized(np.asarray(vec, dtype=float))


class TestQueryState:
    def test_single_sample(self):
        ts = TrainingSet(np.array([[1.0, 2.0]]), np.array([1.0]), 1)
        sv = query_state(np.array([3.0, 4.0]), ts)
        assert np.allclose(sv.amplitudes, [0.6, 0.8])

    def test_uniform_blocks(self):
        ts = TrainingSet(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0]), 2)
        sv = query_state(np.array([1.0, 0.0]), ts)
        assert np.allclose(sv.amplitudes, [1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 0.0])

    def test_unit_norm(self, rng):
        ts = TrainingSet(rng.normal(size=(5, 3)), np.array([1.0, -1.0, 0.0, 0.0, 0.0]), 2)
        sv = query_state(rng.normal(size=3), ts)
        assert np.linalg.norm(sv.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_zero_point_rejected(self):
        ts = TrainingSet(np.array([[1.0, 0.0]]), np.array([1.0]), 1)
        with pytest.raises(EncodingError):
            query_state(np.zeros(2), ts)


class TestExpansionState:
    def test_single_representer(self):
        ts = TrainingSet(np.array([[1.0, 1.0], [5.0, 0.0]]), np.array([1.0, -1.0]), 2)
        sv = expansion_state(np.array([1.0, 0.0]), ts)
        assert np.allclose(sv.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0, 0.0])

    def test_equal_alphas_orthonormal_samples(self):
        ts = TrainingSet(np.eye(2), np.array([1.0, -1.0]), 2)
        sv = expansion_state(np.array([1.0, 1.0]), ts)
        assert np.allclose(np.abs(sv.amplitudes) ** 2, [0.5, 0.0, 0.0, 0.5])

    def test_overlap_proportional_to_score(self, cluster8, rng):
        # the query/expansion overlap expands to the weighted inner-product
        # sum with a positive proportionality constant
        alpha = rng.normal(size=8)
        x_new = rng.normal(size=2)
        q = query_state(x_new, cluster8)
        s = expansion_state(alpha, cluster8)
        overlap_qs = float(np.real(overlap(q, s)))
        score = float(alpha @ (cluster8.features @ x_new))
        norm_q = np.sqrt(8.0) * np.linalg.norm(x_new)
        norm_s = np.linalg.norm(alpha[:, None] * cluster8.features)
        assert overlap_qs == pytest.approx(score / (norm_q * norm_s), abs=1e-12)

    def test_zero_alpha_rejected(self, cluster8):
        with pytest.raises(DegenerateSystemError):
            expansion_state(np.zeros(8), cluster8)


class TestOverlapProbability:
    def test_identical_states(self):
        psi = _state([1.0, 0.0])
        est = overlap_probability(psi, psi)
        assert est.probability == 0.0
        assert est.exact_overlap == pytest.approx(1.0)

    def test_orthogonal_states(self):
        est = overlap_probability(_state([1.0, 0.0]), _state([0.0, 1.0]))
        assert est.probability == pytest.approx(0.5)

    def test_negated_state(self):
        psi = _state([1.0, 0.0])
        phi = StateVector(np.array([-1.0, 0.0]))
        est = overlap_probability(psi, phi)
        assert est.probability == pytest.approx(1.0)
        assert est.exact_overlap == pytest.approx(-1.0)

    def test_sampled_mode_deterministic_for_seed(self):
        psi, phi = _state([1.0, 0.0]), _state([1.0, 1.0])
        a = overlap_probability(psi, phi, shots=500, seed=9)
        b = overlap_probability(psi, phi, shots=500, seed=9)
        assert a.probability == b.probability
        assert a.shots == 500

    def test_dimension_mismatch(self):
        with pytest.raises(LayoutError):
            overlap_probability(_state([1.0, 0.0]), _state([1.0, 0.0, 0.0]))

    def test_shots_validation(self):
        with pytest.raises(ParameterError):
            overlap_probability(_state([1.0, 0.0]), _state([1.0, 0.0]), shots=-1)


class TestClassify:
    def test_self_overlap_positive(self, cluster8):
        alpha = np.zeros(8)
        alpha[0] = 1.0
        result = classify(alpha, cluster8.features[0], cluster8)
        assert result.label == 1
        assert result.p_estimate < 0.5

    def test_negated_alpha_flips_label(self, cluster8, rng):
        alpha = rng.normal(size=8)
        x_new = rng.normal(size=2)
        r_pos = classify(alpha, x_new, cluster8)
        r_neg = classify(-alpha, x_new, cluster8)
        assert r_pos.label == -r_neg.label

    def test_positive_rescaling_invariance(self, cluster8, rng):
        alpha = rng.normal(size=8)
        x_new = rng.normal(size=2)
        assert classify(alpha, x_new, cluster8).label == classify(
            alpha * 123.4, x_new, cluster8
        ).label

    def test_matches_classical_predictor_on_fixture(self, cluster8, cluster8_graph, data_dir):
        from qsslsvm.datasets import load_points, normalized_laplacian
        from qsslsvm.classical import train_semi_supervised

        lap = normalized_laplacian(cluster8_graph)
        model, _ = train_semi_supervised(cluster8, lap, KernelSpec("linear"), 1.0, 1e-9)
        points = load_points(data_dir / "grid_20.csv")
        for pt in points:
            score, classical_label = predict(model, pt)
            if abs(score) < 1e-12:
                continue
            assert classify(model.alpha, pt, cluster8).label == classical_label

    def test_sampled_mode_flags_ambiguous_near_half(self, cluster8):
        # orthogonal query/expansion: P = 1/2 exactly, every estimate is
        # within noise of the threshold
        alpha = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        x = cluster8.features[0]
        perp = np.array([-x[1], x[0]])
        result = classify(alpha, perp, cluster8, shots=2000, seed=3)
        assert result.ambiguous

    def test_sampled_convergence(self):
        # 4-sigma binomial bound holds in >= 99% of seeded trials
        shots = 10_000
        cases = {
            0.0: (_state([1.0, 0.0]), _state([1.0, 0.0])),
            0.25: (_state([1.0, 0.0]), _state([0.5, np.sqrt(3) / 2])),
            0.5: (_state([1.0, 0.0]), _state([0.0, 1.0])),
        }
        for p_true, (psi, phi) in cases.items():
            bound = 4.0 * np.sqrt(p_true * (1 - p_true) / shots)
            hits = sum(
                abs(overlap_probability(psi, phi, shots=shots, seed=seed).probability - p_true)
                <= bound
                for seed in range(100)
            )
            assert hits >= 99
