"""Tests for phase estimation, conditional rotations, solve and multiply.

Phase estimation and the conditional rotations are the circuit oracle in
``dilation.py``; ``hhl_solve`` and ``quantum_multiply`` are the closed forms
of the circuit."""

import numpy as np
import pytest

from conftest import random_density
from dilation import conditional_rotation_invert, conditional_rotation_multiply, phase_estimation
from qsslsvm.channels import make_program_state_k
from qsslsvm.classical import KernelSpec, assemble_system, solve_classical
from qsslsvm.encodings import DensityMatrix, kernel_density, label_state, laplacian_density
from qsslsvm.errors import (
    AmplitudeOverflowError,
    ConfigurationError,
    DegenerateSystemError,
    NumericalError,
    ParameterError,
)
from qsslsvm.hhl import QPEConfig, glmr_phase_estimation, hhl_solve, quantum_multiply
from qsslsvm.linalg import state_fidelity


class TestQPEConfig:
    def test_ranges(self):
        with pytest.raises(ConfigurationError):
            QPEConfig(clock_qubits=1)
        with pytest.raises(ConfigurationError):
            QPEConfig(clock_qubits=13)
        with pytest.raises(ConfigurationError):
            QPEConfig(evolution_time=0.0)


class TestPhaseEstimation:
    def test_sharp_clock_for_dyadic_phase(self):
        qpe = phase_estimation(
            np.diag([0.5, 0.25]), np.array([1.0, 0.0]), QPEConfig(2, 2 * np.pi)
        )
        dist = qpe.clock_distribution()
        assert dist[2] == pytest.approx(1.0, abs=1e-12)  # phase 1/2 -> |10>

    def test_zero_matrix(self):
        b = np.array([0.6, 0.8])
        qpe = phase_estimation(np.zeros((2, 2)), b, QPEConfig(3))
        dist = qpe.clock_distribution()
        assert dist[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(qpe.array()[0], b, atol=1e-12)

    def test_dyadic_spectrum_reads_binary_expansion(self, rng):
        # eigenvalues k/16 with t0 = 2 pi readable exactly on 4 clock qubits
        w = np.array([9.0, 5.0, 3.0, 1.0]) / 16.0
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        a = (q * w) @ q.T
        cfg = QPEConfig(4, 2 * np.pi)
        for i in range(4):
            qpe = phase_estimation(a, q[:, i], cfg)
            dist = qpe.clock_distribution()
            expected_index = int(round(w[i] * 16))
            assert dist[expected_index] == pytest.approx(1.0, abs=1e-10)

    def test_phase_range_error(self):
        with pytest.raises(ConfigurationError):
            phase_estimation(np.diag([1.5, 0.5]), np.array([1.0, 0.0]), QPEConfig(3, 2 * np.pi))
        with pytest.raises(ConfigurationError):
            phase_estimation(np.diag([-0.5, 0.5]), np.array([1.0, 0.0]), QPEConfig(3, 2 * np.pi))


class TestConditionalRotations:
    def test_inverse_amplitude(self):
        qpe = phase_estimation(np.array([[0.5]]), np.array([1.0]), QPEConfig(2, 2 * np.pi))
        flagged = conditional_rotation_invert(qpe, sigma_thresh=0.25, c_const=0.25)
        success = flagged.success_block()
        # lambda = 1/2 at clock index 2; amplitude c/lambda = 1/2
        assert abs(success[2, 0]) == pytest.approx(0.5, abs=1e-12)

    def test_filtered_branch_has_zero_success(self):
        # dyadic eigenvalue below the threshold: the clock is sharp and the
        # success branch is exactly empty
        qpe = phase_estimation(np.array([[0.125]]), np.array([1.0]), QPEConfig(3, 2 * np.pi))
        flagged = conditional_rotation_invert(qpe, sigma_thresh=0.5)
        assert np.max(np.abs(flagged.success_block())) < 1e-12

    def test_two_eigenvalue_closed_form(self):
        a = np.diag([0.5, 0.25])
        b = np.array([0.8, 0.6])
        qpe = phase_estimation(a, b, QPEConfig(4, 2 * np.pi))
        flagged = conditional_rotation_invert(qpe, sigma_thresh=0.1)
        success = flagged.success_block()
        collapsed = success.sum(axis=0)  # dyadic: one clock index per component
        expected = np.array([0.8 / 0.5, 0.6 / 0.25])
        expected /= np.linalg.norm(expected)
        assert state_fidelity(collapsed / np.linalg.norm(collapsed), expected) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_overflow_when_c_exceeds_retained(self):
        qpe = phase_estimation(np.diag([0.5, 0.25]), np.array([1.0, 0.0]), QPEConfig(3, 2 * np.pi))
        with pytest.raises(AmplitudeOverflowError):
            conditional_rotation_invert(qpe, sigma_thresh=0.2, c_const=0.3)

    def test_multiply_unit_eigenvalue(self):
        qpe = phase_estimation(np.array([[1.0]]), np.array([1.0]), QPEConfig(3, np.pi))
        flagged = conditional_rotation_multiply(qpe)
        success = flagged.success_block()
        assert np.max(np.abs(success)) == pytest.approx(1.0, abs=1e-12)

    def test_multiply_zero_annihilated(self):
        qpe = phase_estimation(np.diag([0.5, 0.0]), np.array([0.0, 1.0]), QPEConfig(3, np.pi))
        flagged = conditional_rotation_multiply(qpe)
        assert np.max(np.abs(flagged.success_block())) < 1e-12

    def test_multiply_matches_matrix_action(self, rng):
        a = np.diag([0.75, 0.25])
        b = rng.normal(size=2)
        b /= np.linalg.norm(b)
        out = quantum_multiply(a, b, QPEConfig(3))
        target = a @ b
        target /= np.linalg.norm(target)
        assert state_fidelity(out.amplitudes, target) == pytest.approx(1.0, abs=1e-12)

    def test_multiply_overflow_for_non_density(self):
        with pytest.raises(AmplitudeOverflowError):
            quantum_multiply(np.diag([1.5, 0.5]), np.array([1.0, 0.0]), QPEConfig(3, 1.0))


class TestHhlSolve:
    def test_scaled_identity(self):
        b = np.array([0.6, 0.8])
        res = hhl_solve(np.eye(2) / 2, b, 0.1, QPEConfig(3))
        assert state_fidelity(res.solution_state.amplitudes, b) == pytest.approx(1.0, abs=1e-9)

    def test_dyadic_closed_form(self):
        b = np.array([1.0, 1.0]) / np.sqrt(2)
        res = hhl_solve(np.diag([0.5, 0.25]), b, 0.1, QPEConfig(3))
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert state_fidelity(res.solution_state.amplitudes, expected) == pytest.approx(
            1.0, abs=1e-9
        )
        assert res.retained_eigenvalues == (0.5, 0.25)

    def test_spectral_identity_exact_spectrum(self, rng):
        # beta_i / lambda_i combination for an exactly representable spectrum
        w = np.array([0.5, 0.375, 0.25, 0.125])
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        a = (q * w) @ q.T
        b = rng.normal(size=4)
        b /= np.linalg.norm(b)
        res = hhl_solve(a, b, 0.1, QPEConfig(4, 2 * np.pi))
        beta = q.T @ b
        expected = q @ (beta / w)
        expected /= np.linalg.norm(expected)
        assert state_fidelity(res.solution_state.amplitudes, expected) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_svm_fixture_matches_classical(self, cluster4, cluster4_graph):
        kd = kernel_density(cluster4)
        ld = laplacian_density(cluster4_graph)
        sys = assemble_system(kd.matrix, ld.matrix, cluster4.labels, 1.0)
        a_hat = sys.normalized_matrix()
        model = solve_classical(sys, 0.05, kernel=KernelSpec("linear"))
        ky = quantum_multiply(kd, label_state(cluster4.labels), QPEConfig(8))
        res = hhl_solve(a_hat, ky, 0.05, QPEConfig(8))
        alpha_unit = model.alpha / np.linalg.norm(model.alpha)
        assert state_fidelity(res.solution_state.amplitudes, alpha_unit) >= 0.99

    def test_monotone_refinement(self):
        # designated non-dyadic fixture; checked at 4, 6, 8 clock qubits
        a = np.diag([0.9, 0.5, 0.22])
        b = np.array([0.5, 1.0, 0.7])
        b /= np.linalg.norm(b)
        x = b / np.diag(a)  # every eigenvalue is above the 0.05 filter
        x /= np.linalg.norm(x)
        fids = [
            state_fidelity(hhl_solve(a, b, 0.05, QPEConfig(cq)).solution_state.amplitudes, x)
            for cq in (4, 6, 8)
        ]
        assert fids[1] >= fids[0] - 1e-9
        assert fids[2] >= fids[1] - 1e-9

    def test_success_probability_consistency(self):
        a = np.diag([0.5, 0.25])
        b = np.array([0.8, 0.6])
        res = hhl_solve(a, b, 0.1, QPEConfig(4))
        qpe = phase_estimation(a, b, QPEConfig(4))
        flagged = conditional_rotation_invert(qpe, 0.1)
        # uncompute is unitary, so the flagged success norm is the probability
        p = float(np.sum(np.abs(flagged.success_block()) ** 2))
        assert res.success_probability == pytest.approx(p, abs=1e-12)

    def test_one_eigendecomposition(self, eig_calls, rng):
        # the PSD, filter and phase-range checks share the response's decomposition
        a = random_density(rng, 5).matrix
        eig_calls.clear()
        hhl_solve(a, rng.normal(size=5), 0.05, QPEConfig(6))
        assert [name for name, _ in eig_calls] == ["eigh"]

    def test_shared_spectrum_is_not_decomposed_again(self, cluster8, cluster8_graph,
                                                     eig_calls):
        sys = assemble_system(kernel_density(cluster8).matrix,
                              laplacian_density(cluster8_graph).matrix, cluster8.labels, 1.0)
        b = sys.rhs / np.linalg.norm(sys.rhs)
        spectrum = sys.spectrum
        eig_calls.clear()
        shared = hhl_solve(spectrum, b, 0.05, QPEConfig(8))
        assert eig_calls == []
        fresh = hhl_solve(sys.normalized_matrix(), b, 0.05, QPEConfig(8))
        assert np.array_equal(shared.solution_state.amplitudes, fresh.solution_state.amplitudes)
        assert shared.success_probability == fresh.success_probability

    def test_degenerate_when_all_filtered(self):
        with pytest.raises(DegenerateSystemError):
            hhl_solve(np.diag([0.1, 0.05]), np.array([1.0, 0.0]), 0.5, QPEConfig(4, 2 * np.pi))

    def test_rejects_indefinite_matrix(self):
        with pytest.raises((ConfigurationError, ArithmeticError)):
            hhl_solve(np.diag([0.5, -0.5]), np.array([1.0, 0.0]), 0.1, QPEConfig(3, 2 * np.pi))


class TestRealAndComplexInput:
    """A real matrix is decomposed by a real eigh; the same matrix cast to
    complex128 takes the complex one.  Both must give the same states."""

    def test_hhl_solve(self, cluster4, cluster4_graph):
        kd = kernel_density(cluster4)
        sys = assemble_system(kd.matrix, laplacian_density(cluster4_graph).matrix,
                              cluster4.labels, 1.0)
        a_hat = sys.normalized_matrix()
        b = sys.rhs / np.linalg.norm(sys.rhs)
        real = hhl_solve(a_hat, b, 0.05, QPEConfig(8))
        cplx = hhl_solve(a_hat.astype(np.complex128), b, 0.05, QPEConfig(8))
        gap = np.max(np.abs(real.solution_state.amplitudes - cplx.solution_state.amplitudes))
        assert gap <= 1e-12
        assert abs(real.success_probability - cplx.success_probability) <= 1e-12
        assert np.max(np.abs(np.subtract(real.retained_eigenvalues,
                                         cplx.retained_eigenvalues))) <= 1e-12

    def test_quantum_multiply(self, cluster4):
        k = kernel_density(cluster4).matrix
        y = label_state(cluster4.labels)
        real = quantum_multiply(k, y, QPEConfig(8)).amplitudes
        cplx = quantum_multiply(k.astype(np.complex128), y, QPEConfig(8)).amplitudes
        assert np.max(np.abs(real - cplx)) <= 1e-12


class TestQuantumMultiply:
    def test_maximally_mixed_is_identity_action(self, rng):
        m = 4
        y = rng.normal(size=m)
        y /= np.linalg.norm(y)
        out = quantum_multiply(np.eye(m) / m, y, QPEConfig(4))
        assert state_fidelity(out.amplitudes, y) == pytest.approx(1.0, abs=1e-9)

    def test_rank_one_projector(self):
        v = np.array([0.6, 0.8])
        out = quantum_multiply(np.outer(v, v), np.array([1.0, 0.0]), QPEConfig(4))
        assert state_fidelity(out.amplitudes, v) == pytest.approx(1.0, abs=1e-9)

    def test_fixture_product_fidelity(self, cluster4):
        kd = kernel_density(cluster4)
        out = quantum_multiply(kd, label_state(cluster4.labels), QPEConfig(8))
        target = kd.matrix @ cluster4.labels
        target /= np.linalg.norm(target)
        assert state_fidelity(out.amplitudes, target) >= 0.999

    def test_eigenvalue_above_one_overflows(self):
        # at the default t0 = pi eigenvalue 3 is also outside the phase range;
        # the spectrum check comes first
        with pytest.raises(AmplitudeOverflowError):
            quantum_multiply(np.diag([3.0, 0.5]), np.array([1.0, 0.0]), QPEConfig(4))

    def test_negative_eigenvalue_is_numerical_error(self):
        with pytest.raises(NumericalError, match="must be PSD"):
            quantum_multiply(np.diag([0.5, -0.25]), np.array([1.0, 0.0]), QPEConfig(4))

    def test_zero_product_degenerate(self):
        k = np.diag([1.0, 0.0])
        with pytest.raises(DegenerateSystemError):
            quantum_multiply(k, np.array([0.0, 1.0]), QPEConfig(3))


class TestGlmrBackend:
    def test_clock_distribution_matches_exact(self):
        # channel-backed density-matrix phase estimation (demonstration mode)
        k = DensityMatrix(np.diag([2 / 3, 1 / 3]))
        b = np.array([1.0, 1.0]) / np.sqrt(2)
        cfg = QPEConfig(3, np.pi)
        exact = phase_estimation(k, b, cfg).clock_distribution()
        demo = glmr_phase_estimation(make_program_state_k(k), b, cfg, steps_per_unit=800)
        assert np.max(np.abs(demo - exact)) < 0.02
        assert np.sum(demo) == pytest.approx(1.0, abs=1e-8)

    def test_steps_validation(self, rng):
        ps = make_program_state_k(random_density(rng, 2))
        with pytest.raises(ParameterError):
            glmr_phase_estimation(ps, np.array([1.0, 0.0]), QPEConfig(2), steps_per_unit=0)
