"""Tests for the tensor-structured linear algebra primitives."""

import numpy as np
import pytest

from conftest import density_fidelity, random_density, random_hermitian
from dilation import partial_trace
from qsslsvm.channels import exact_conjugation
from qsslsvm.classical import AssembledSystem, solve_classical
from qsslsvm.errors import LayoutError, NumericalError, ParameterError, SymmetryError
from qsslsvm.linalg import hermitian_eig, hermitian_part, state_fidelity

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        out = partial_trace(np.kron(a, b), (2, 2), 1)
        assert np.allclose(out, np.trace(b) * a)
        out0 = partial_trace(np.kron(a, b), (2, 2), 0)
        assert np.allclose(out0, np.trace(a) * b)

    def test_bell_state_reduction(self):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell)
        out = partial_trace(rho, (2, 2), 1)
        assert np.allclose(out, np.eye(2) / 2)

    def test_three_factor_index_sum_oracle(self, rng):
        rho = random_density(rng, 8).matrix
        layout = (2, 2, 2)
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
            layout = (2, 3)
            for factor in (0, 1):
                out = partial_trace(rho, layout, factor)
                assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-10

    def test_layout_mismatch(self, rng):
        with pytest.raises(LayoutError):
            partial_trace(np.eye(6), (2, 2), 0)
        with pytest.raises(LayoutError):
            partial_trace(np.eye(4), (2, 2), 2)


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
        assert np.linalg.norm(eig.apply(lambda w: w) - h) / scale < 1e-10
        v = eig.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(SymmetryError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(NumericalError):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(LayoutError):
            hermitian_eig(np.ones((2, 3)))

    def test_deviation_read_from_symmetrized_copy(self):
        m = np.array([[1.0, 2e-10], [0.0, 1.0]])
        with pytest.raises(SymmetryError, match=r"max deviation 2\.000e-10"):
            hermitian_eig(m)
        hermitian_eig(m / 4)

    def test_bit_identical_to_stable_argsort(self, rng):
        # eigh's ascending output reversed, as a stable argsort orders it,
        # also inside repeated eigenvalues (exact and to roundoff)
        q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        real = rng.normal(size=(30, 30))
        cases = [
            random_hermitian(rng, 7),
            real + real.T + 1e-12 * rng.normal(size=(30, 30)),
            np.diag([2.0, 1.0, 2.0, 1.0, 0.0]),
            q @ np.diag([3.0, 3.0, 3.0, 1.0, 1.0, 0.0]) @ q.T,
            np.eye(4),
        ]
        for m in cases:
            w, v = np.linalg.eigh(hermitian_part(m))
            order = np.argsort(w, kind="stable")[::-1]
            eig = hermitian_eig(m)
            assert np.array_equal(eig.eigenvalues, w[order])
            assert np.array_equal(eig.eigenvectors, v[:, order])
            assert eig.eigenvectors.flags.c_contiguous


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


def _exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) as a matrix function of h's decomposition."""
    return hermitian_eig(h).apply(lambda w: np.exp(-1j * w * t))


class TestHermitianExp:
    """exp(-i h t) through ``hermitian_eig(h).apply`` and
    ``exact_conjugation``, which share one decomposition over every t."""

    def test_zero_generator(self):
        assert np.allclose(_exp(np.zeros((3, 3)), 2.7), np.eye(3))

    def test_diagonal_phase(self):
        out = _exp(np.diag([1.0, -1.0]), np.pi)
        assert np.allclose(out, -np.eye(2), atol=1e-12)

    def test_taylor_oracle(self, rng):
        h = random_hermitian(rng, 3)
        out = _exp(h, 0.37)
        assert np.max(np.abs(out - _taylor_exp(h, 0.37))) < 1e-8
        sigma = random_density(rng, 3)
        u = _taylor_exp(h, 0.37)
        exact = exact_conjugation(hermitian_eig(h), sigma, 0.37)
        assert np.max(np.abs(exact.matrix - u @ sigma.matrix @ u.conj().T)) < 1e-8

    def test_unitary_and_inverse(self, rng):
        h = random_hermitian(rng, 4)
        u = _exp(h, 1.3)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10
        assert np.max(np.abs(u @ _exp(h, -1.3) - np.eye(4))) < 1e-10
        assert np.allclose(np.abs(np.linalg.eigvals(u)), 1.0)
        sigma = random_density(rng, 4)
        eig = hermitian_eig(h)
        there = exact_conjugation(eig, sigma, 1.3)
        back = exact_conjugation(eig, there, -1.3)
        assert np.max(np.abs(back.matrix - sigma.matrix)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(SymmetryError):
            _exp(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)


def _filtered_inverse(m: np.ndarray, sigma: float) -> np.ndarray:
    """The filtered pseudo-inverse ``solve_classical`` applies, column by
    column: a system whose recorded trace is 1 solves alpha = pinv(A) rhs
    over the eigenvalues of A at or above ``sigma``."""
    m = np.asarray(m, dtype=np.float64)
    return np.column_stack([
        solve_classical(AssembledSystem(m, e, 1.0, 1.0), sigma).alpha for e in np.eye(len(m))
    ])


class TestFilteredPseudoInverse:
    """The eigenvalue-filtered pseudo-inverse of A/tr(A) that
    ``solve_classical`` applies from the system's one decomposition."""

    def test_identity(self):
        assert np.allclose(_filtered_inverse(np.eye(3), 0.5), np.eye(3))

    def test_drops_small_eigenvalue(self):
        out = _filtered_inverse(np.diag([1.0, 0.1]), 0.5)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_moore_penrose_identity(self, rng):
        w = np.array([2.0, 1.0, 0.5, 0.25])
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        m = (q * w) @ q.T
        out = _filtered_inverse(m, 0.1)
        assert np.max(np.abs(m @ out @ m - m)) < 1e-9

    def test_small_sigma_matches_inverse(self, rng):
        m = random_density(rng, 4, real=True).matrix + 0.5 * np.eye(4)
        out = _filtered_inverse(m, 1e-12)
        assert np.max(np.abs(out - np.linalg.inv(m))) < 1e-8

    def test_output_hermitian(self, rng):
        m = random_density(rng, 5, real=True).matrix
        out = _filtered_inverse(m, 0.01)
        assert np.max(np.abs(out - out.T)) < 1e-12

    def test_rejects_bad_sigma(self):
        # a negative threshold is rejected; zero selects the machine-level
        # threshold, which keeps every nonzero eigenvalue
        with pytest.raises(ParameterError):
            _filtered_inverse(np.eye(2), -0.1)
        assert np.allclose(_filtered_inverse(np.diag([1.0, 1e-6]), 0.0), np.diag([1.0, 1e6]))

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError, match="not PSD"):
            _filtered_inverse(np.diag([1.0, -1.0]), 0.1)


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
