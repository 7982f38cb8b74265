"""Tests for the overlap-readout classifier and for its state-level oracle
(query state, expansion state and ancilla readout in ``dilation.py``)."""

import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilation import expansion_state, overlap, overlap_probability, query_state
from qsslsvm.classical import KernelSpec, predict
from qsslsvm.datasets import TrainingSet, load_points
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
        from qsslsvm.datasets import normalized_laplacian
        from qsslsvm.classical import train_semi_supervised

        lap = normalized_laplacian(cluster8_graph)
        model, _ = train_semi_supervised(cluster8, lap, KernelSpec("linear"), 1.0, 1e-9)
        points = load_points(data_dir / "grid_20.csv")
        for pt in points:
            score, classical_label = predict(model, pt)
            if abs(score) < 1e-12:
                continue
            assert classify(model.alpha, pt, cluster8).label == classical_label

    @pytest.mark.parametrize("shots", [0, 1, 1000])
    def test_block_matches_one_point_calls(self, cluster8, data_dir, rng, shots):
        # row i of a block is the one-point call at seed + i
        alpha = rng.normal(size=8)
        points = load_points(data_dir / "grid_20.csv")
        block = classify(alpha, points, cluster8, shots=shots, seed=11)
        assert block.label.shape == block.p_estimate.shape == block.ambiguous.shape == (20,)
        for i, point in enumerate(points):
            one = classify(alpha, point, cluster8, shots=shots, seed=11 + i)
            assert (block.label[i], block.p_estimate[i], block.ambiguous[i]) == (
                one.label, one.p_estimate, one.ambiguous)

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


def _copy(training: TrainingSet) -> TrainingSet:
    """The same rows and labels in a new training set, whose memo is empty."""
    return TrainingSet(training.features, training.labels, training.labeled_count)


def _same(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("label", "p_estimate", "ambiguous"))


class TestExpansionMemo:
    """``classify`` keeps X^T alpha and ||diag(alpha) X||_F on the training
    set for the last coefficients that passed their checks; no call may
    read it for other coefficients, other rows or coefficients that failed."""

    def test_alpha_changed_in_place(self, cluster8, rng):
        alpha = rng.normal(size=8)
        x = rng.normal(size=(5, 2))
        before = classify(alpha, x, cluster8)
        alpha *= -1.0
        after = classify(alpha, x, cluster8)
        assert np.array_equal(after.label, -before.label)
        assert _same(after, classify(alpha, x, _copy(cluster8)))

    def test_same_alpha_on_another_training_set(self, cluster8, rng):
        alpha = rng.normal(size=8)
        x = rng.normal(size=2)
        classify(alpha, x, cluster8)
        other = TrainingSet(cluster8.features[::-1], cluster8.labels, cluster8.labeled_count)
        assert _same(classify(alpha, x, other), classify(alpha, x, _copy(other)))
        with_zero_row = TrainingSet(np.vstack([cluster8.features[:7], [0.0, 0.0]]),
                                    cluster8.labels, cluster8.labeled_count)
        with pytest.raises(EncodingError, match="^training set has a zero-norm sample$"):
            classify(alpha, x, with_zero_row)

    @pytest.mark.parametrize("bad, error, message", [
        (np.ones(7), LayoutError, "alpha has 7 entries, expected 8"),
        (np.zeros(8), DegenerateSystemError, "model coefficients are all zero"),
        (np.full(8, np.nan), EncodingError, "cannot encode a zero or non-finite expansion"),
        (np.r_[np.inf, np.ones(7)], EncodingError, "cannot encode a zero or non-finite expansion"),
        # finite, but the expansion norm (and at 1e308 alpha_j ||x_j|| too)
        # overflows: the error, no RuntimeWarning, under the suite's filter
        (np.r_[1e300, np.ones(7)], EncodingError, "cannot encode a zero or non-finite expansion"),
        (np.r_[1e308, np.ones(7)], EncodingError, "cannot encode a zero or non-finite expansion"),
    ])
    def test_failing_alpha_is_never_stored(self, cluster8, rng, bad, error, message):
        alpha = rng.normal(size=8)
        x = rng.normal(size=2)
        for _ in range(2):
            with pytest.raises(error, match=f"^{message}$"):
                classify(bad, x, cluster8)
            assert _same(classify(alpha, x, cluster8), classify(alpha, x, _copy(cluster8)))

    def test_one_point_calls_equal_one_block_call(self, rng):
        # m, p and the query count of a library readout one point at a time
        labels = np.zeros(24)
        labels[:6] = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
        training = TrainingSet(rng.normal(size=(24, 4)), labels, 6)
        alpha = rng.normal(size=24)
        queries = rng.normal(size=(256, 4))
        one_by_one = [classify(alpha, q, training) for q in queries]
        for block in (queries, np.asfortranarray(queries)):
            result = classify(alpha, block, _copy(training))
            assert np.array_equal([r.p_estimate for r in one_by_one], result.p_estimate)
            assert np.array_equal([r.label for r in one_by_one], result.label)

    def test_nothing_outlives_the_training_set(self, rng):
        training = TrainingSet(rng.normal(size=(4, 2)), np.array([1.0, 0.0, 0.0, 0.0]), 1)
        classify(rng.normal(size=4), rng.normal(size=2), training)
        ref = weakref.ref(training)
        del training
        gc.collect()
        assert ref() is None


class TestOnePointPath:
    """A one-point exact call (``x.ndim <= 1``, ``shots == 0``) is read out
    in Python floats; a block keeps the array expressions.  Both must give
    the same values, types and errors."""

    @settings(max_examples=60)
    @given(p=st.sampled_from([1, 7, 8, 9, 130]), m=st.integers(1, 12), n=st.integers(1, 9),
           scale=st.sampled_from([1e-200, 1e-160, 1e-150, 1e-3, 1.0, 1e3, 1e150, 1e200]),
           fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_one_point_calls_equal_a_block_row_by_row(self, p, m, n, scale, fortran, seed):
        # p crosses numpy's pairwise-sum (8) and BLAS unroll boundaries
        rng = np.random.default_rng(seed)
        labels = np.zeros(m)
        labels[0] = 1.0
        training = TrainingSet(rng.normal(size=(m, p)), labels, 1)
        alpha = rng.normal(size=m)
        block = rng.normal(size=(n, p)) * scale
        block = np.asfortranarray(block) if fortran else block
        result = classify(alpha, block, _copy(training))
        for i in range(n):
            # a row of a Fortran-order block is a strided view
            queries = [block[i]] + ([block[i, 0], np.array(block[i, 0])] if p == 1 else [])
            for query in queries:
                one = classify(alpha, query, training)
                for field in ("label", "p_estimate", "ambiguous"):
                    got, want = getattr(one, field), getattr(result, field)
                    assert np.shape(got) == want.shape[1:] == ()
                    assert np.asarray(got).dtype == want.dtype
                    assert got == want[i]
                assert type(one.label) is type(result.label[i]) is np.int64
                assert type(one.p_estimate) is type(result.p_estimate[i]) is np.float64

    @pytest.mark.parametrize("point", [[1e200, 0.0], [-1e300, 1e300], [1e-200, 0.0],
                                       [1e-160, -3e-161]],
                             ids=["overflow", "overflow_both", "underflow", "subnormal"])
    def test_extreme_norm_reads_as_its_scaled_copy(self, cluster8, rng, point):
        # the squared norm overflows, underflows to 0 or is subnormal, while
        # the overlap depends on x / ||x|| only; an overflow warning would
        # fail the test under the suite's RuntimeWarning filter
        x = np.array(point)
        scaled = x / np.max(np.abs(x))
        alpha = rng.normal(size=cluster8.sample_count)
        want = classify(alpha, scaled, cluster8)
        one = classify(alpha, x, cluster8)
        block = classify(alpha, np.stack([scaled, x, [1.0, 2.0]]), cluster8)
        assert one.label == want.label == block.label[1] == block.label[0]
        assert one.p_estimate == want.p_estimate == block.p_estimate[1]
        # sampled: row 0 of a block and a one-point call draw from seed 3
        sampled = [classify(alpha, q, cluster8, shots=50, seed=3).p_estimate
                   for q in (np.stack([x, scaled]), x, scaled)]
        assert sampled[0][0] == sampled[1] == sampled[2]

    @pytest.mark.parametrize("rows, first_bad, message", [
        ([[1.0, 2.0], [0.0, 0.0], [np.nan, 1.0], [3.0, 4.0]], 1, "cannot encode a zero query point"),
        ([[1.0, 2.0], [np.inf, 0.0], [0.0, 0.0]], 1, "cannot encode a non-finite query point"),
    ])
    @pytest.mark.parametrize("shots", [0, 5])
    def test_first_bad_row_of_a_block_raises(self, cluster8, rows, first_bad, message, shots):
        block = np.array(rows)
        for query in (block[first_bad], block):
            with pytest.raises(EncodingError, match=f"^{message}$"):
                classify(np.ones(8), query, cluster8, shots=shots)

    @pytest.mark.parametrize("shots, seed, message", [
        (10, 1.5, "seed must be an integer, got 1.5"),
        (0, 1.5, "seed must be an integer, got 1.5"),
        (10, float("nan"), "seed must be an integer, got nan"),
        (10, True, "seed must be an integer, got True"),
        (0, np.False_, "seed must be an integer, got False"),
        (True, 0, "shots must be an integer, got True"),
        (np.True_, 0, "shots must be an integer, got True"),
        # shots before seed, the sign before integrality
        (2.5, 1.5, "shots must be an integer, got 2.5"),
        (-1, 1.5, "shots must be >= 0, got -1"),
        (1, -1.5, "seed must be >= 0, got -1.5"),
    ])
    def test_shots_and_seed_must_be_non_negative_integers(self, cluster8, shots, seed, message):
        alpha = np.ones(8)
        for query in (cluster8.features[0], cluster8.features):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                classify(alpha, query, cluster8, shots=shots, seed=seed)

    def test_query_and_coefficient_errors_come_before_a_bad_seed(self, cluster8):
        for query in (np.zeros(2), np.zeros((3, 2))):
            with pytest.raises(EncodingError, match="^cannot encode a zero query point$"):
                classify(np.ones(8), query, cluster8, shots=10, seed=1.5)
            with pytest.raises(DegenerateSystemError):
                classify(np.zeros(8), query + 1.0, cluster8, shots=10, seed=1.5)

    def test_integral_float_seed_and_shots_are_their_ints(self, cluster8, rng):
        alpha = rng.normal(size=8)
        x = rng.normal(size=(6, 2))
        assert _same(classify(alpha, x, cluster8, shots=40.0, seed=3.0),
                     classify(alpha, x, cluster8, shots=40, seed=3))
