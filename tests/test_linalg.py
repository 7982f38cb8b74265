"""Tests for the tensor-structured linear algebra primitives."""

import numpy as np
import pytest

from conftest import density_fidelity, random_density, random_hermitian
from dilation import partial_trace, without
from qsslsvm.errors import LayoutError, NumericalError, ParameterError, SymmetryError
from qsslsvm.linalg import (
    TensorLayout,
    filtered_pseudo_inverse,
    hermitian_eig,
    hermitian_exp,
    state_fidelity,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestTensorLayout:
    def test_dimension_product(self):
        layout = TensorLayout((2, 3, 4))
        assert layout.dim == 24
        layout.check_matches(24)
        with pytest.raises(LayoutError):
            layout.check_matches(23)

    def test_without(self):
        assert without(TensorLayout((2, 3, 4)), 1).factor_dims == (2, 4)
        assert without(TensorLayout((5,)), 0).factor_dims == (1,)

    def test_invalid_dims(self):
        with pytest.raises(LayoutError):
            TensorLayout((2, 0))


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        out = partial_trace(np.kron(a, b), TensorLayout((2, 2)), 1)
        assert np.allclose(out, np.trace(b) * a)
        out0 = partial_trace(np.kron(a, b), TensorLayout((2, 2)), 0)
        assert np.allclose(out0, np.trace(a) * b)

    def test_bell_state_reduction(self):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell)
        out = partial_trace(rho, TensorLayout((2, 2)), 1)
        assert np.allclose(out, np.eye(2) / 2)

    def test_three_factor_index_sum_oracle(self, rng):
        rho = random_density(rng, 8).matrix
        layout = TensorLayout((2, 2, 2))
        out = partial_trace(rho, layout, 2)
        # direct summation over the traced index
        t = rho.reshape(2, 2, 2, 2, 2, 2)
        expected = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for d in range(2):
                        expected[a * 2 + b, c * 2 + d] = sum(
                            t[a, b, k, c, d, k] for k in range(2)
                        )
        assert np.allclose(out, expected, atol=1e-14)

    def test_trace_and_psd_preserved(self, rng):
        for _ in range(20):
            rho = random_density(rng, 6).matrix
            layout = TensorLayout((2, 3))
            for factor in (0, 1):
                out = partial_trace(rho, layout, factor)
                assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-10

    def test_layout_mismatch(self, rng):
        with pytest.raises(LayoutError):
            partial_trace(np.eye(6), TensorLayout((2, 2)), 0)
        with pytest.raises(LayoutError):
            partial_trace(np.eye(4), TensorLayout((2, 2)), 2)


class TestHermitianEig:
    def test_diagonal_sorted_descending(self):
        eig = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.eigenvalues, [3.0, 2.0, 1.0])

    def test_pauli_x_spectrum(self):
        eig = hermitian_eig(PAULI_X)
        assert np.allclose(eig.eigenvalues, [1.0, -1.0])

    def test_reconstruction_and_unitarity(self, rng):
        h = random_hermitian(rng, 4)
        eig = hermitian_eig(h)
        scale = max(np.linalg.norm(h), 1.0)
        assert np.linalg.norm(eig.reconstruct() - h) / scale < 1e-10
        v = eig.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(SymmetryError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(NumericalError):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _taylor_exp(h: np.ndarray, t: float, terms: int = 40, squarings: int = 10) -> np.ndarray:
    """Scaled-and-squared Taylor series for exp(-i h t), independent oracle."""
    m = -1j * h * t / (2**squarings)
    out = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        term = term @ m / n
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


class TestHermitianExp:
    def test_zero_generator(self):
        assert np.allclose(hermitian_exp(np.zeros((3, 3)), 2.7), np.eye(3))

    def test_diagonal_phase(self):
        out = hermitian_exp(np.diag([1.0, -1.0]), np.pi)
        assert np.allclose(out, -np.eye(2), atol=1e-12)

    def test_taylor_oracle(self, rng):
        h = random_hermitian(rng, 3)
        out = hermitian_exp(h, 0.37)
        assert np.max(np.abs(out - _taylor_exp(h, 0.37))) < 1e-8

    def test_unitary_and_inverse(self, rng):
        h = random_hermitian(rng, 4)
        u = hermitian_exp(h, 1.3)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10
        assert np.max(np.abs(u @ hermitian_exp(h, -1.3) - np.eye(4))) < 1e-10
        assert np.allclose(np.abs(np.linalg.eigvals(u)), 1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(SymmetryError):
            hermitian_exp(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)


class TestFilteredPseudoInverse:
    def test_identity(self):
        assert np.allclose(filtered_pseudo_inverse(np.eye(3), 0.5), np.eye(3))

    def test_drops_small_eigenvalue(self):
        out = filtered_pseudo_inverse(np.diag([1.0, 0.1]), 0.5)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_moore_penrose_identity(self, rng):
        w = np.array([2.0, 1.0, 0.5, 0.25])
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        m = (q * w) @ q.T
        out = filtered_pseudo_inverse(m, 0.1)
        assert np.max(np.abs(m @ out @ m - m)) < 1e-9

    def test_small_sigma_matches_inverse(self, rng):
        m = random_density(rng, 4).matrix + 0.5 * np.eye(4)
        out = filtered_pseudo_inverse(m, 1e-12)
        assert np.max(np.abs(out - np.linalg.inv(m))) < 1e-8

    def test_output_hermitian(self, rng):
        m = random_density(rng, 5).matrix
        out = filtered_pseudo_inverse(m, 0.01)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_rejects_bad_sigma(self):
        with pytest.raises(ParameterError):
            filtered_pseudo_inverse(np.eye(2), 0.0)
        with pytest.raises(ParameterError):
            filtered_pseudo_inverse(np.eye(2), -0.1)

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError):
            filtered_pseudo_inverse(np.diag([1.0, -1.0]), 0.1)


class TestFidelities:
    def test_state_fidelity_phase_invariant(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert state_fidelity(v, np.exp(1j * 0.7) * v) == pytest.approx(1.0)

    def test_density_fidelity_pure_states(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0]) / np.sqrt(2)
        f = density_fidelity(np.outer(a, a), np.outer(b, b))
        assert f == pytest.approx(0.5, abs=1e-12)
