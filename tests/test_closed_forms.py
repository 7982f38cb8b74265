"""The production closed forms against the circuit-level dilations in
``dilation.py`` (and the encodings against the partial traces of their
full states), at <= 1e-12."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_connected_graph, random_density, random_training_set
from dilation import (
    dense_glmr_phase_estimation,
    dense_glmr_step,
    dense_hhl_solve,
    dense_program_state_kk,
    dense_program_state_klk,
    dense_quantum_multiply,
    dense_simulate_evolution,
    lmr_step,
)
from qsslsvm.channels import (
    EvolutionConfig,
    ProgramState,
    glmr_step,
    make_program_state_k,
    make_program_state_kk,
    make_program_state_klk,
    simulate_evolution,
)
from qsslsvm.classical import assemble_system
from qsslsvm.encodings import (
    DensityMatrix,
    data_state,
    incidence_state,
    kernel_density,
    label_state,
    laplacian_density,
)
from qsslsvm.hhl import QPEConfig, glmr_phase_estimation, hhl_solve, quantum_multiply
from qsslsvm.linalg import TensorLayout

TOL = 1e-12

dims = st.integers(1, 6)
seeds = st.integers(0, 2**32 - 1)
times = st.floats(-1.0, 1.0)


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _random_program_state(rng: np.random.Generator, d: int) -> ProgramState:
    """Two random PSD blocks with tr(rho'' + rho''') = 1."""
    w = float(rng.uniform(0.05, 0.95))
    rho = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    rho[:d, :d] = w * random_density(rng, d).matrix
    rho[d:, d:] = (1.0 - w) * random_density(rng, d).matrix
    return ProgramState(DensityMatrix(rho, TensorLayout((2, d))))


def _assert_solve_matches(a, b, sigma, cfg):
    closed, dense = hhl_solve(a, b, sigma, cfg), dense_hhl_solve(a, b, sigma, cfg)
    assert _gap(closed.solution_state.amplitudes, dense.solution_state.amplitudes) <= TOL
    assert abs(closed.success_probability - dense.success_probability) <= TOL
    assert closed.retained_eigenvalues == dense.retained_eigenvalues


def _assert_multiply_matches(k, y, cfg):
    assert _gap(quantum_multiply(k, y, cfg).amplitudes,
                dense_quantum_multiply(k, y, cfg).amplitudes) <= TOL


def _outcome(fn, *args):
    """The function's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by type with the other route
        return type(exc)


#: hhl_solve and quantum_multiply inputs with dyadic (exactly readable) spectra
_DYADIC = [
    (np.eye(2) / 2, np.array([0.6, 0.8]), QPEConfig(3)),
    (np.diag([0.5, 0.25]), np.array([1.0, 1.0]) / np.sqrt(2), QPEConfig(3)),
    (np.diag([0.5, 0.25]), np.array([0.8, 0.6]), QPEConfig(4)),
    (np.diag([0.75, 0.25]), np.array([0.8, -0.6]), QPEConfig(3)),
    (np.eye(4) / 4, np.array([0.5, -0.5, 0.5j, 0.5]), QPEConfig(4)),
]


class TestAgainstDilation:
    def test_program_states(self, rng):
        k, l, sigma = (random_density(rng, 4) for _ in range(3))
        assert _gap(make_program_state_kk(k).rho_prime.matrix,
                    dense_program_state_kk(k).rho_prime.matrix) <= TOL
        assert _gap(make_program_state_klk(k, l).rho_prime.matrix,
                    dense_program_state_klk(k, l).rho_prime.matrix) <= TOL
        # the K program state's step is the plain density-exponentiation step
        for dt in (0.3, -0.7):
            assert _gap(glmr_step(make_program_state_k(k), sigma, dt).matrix,
                        lmr_step(k, sigma, dt).matrix) <= TOL

    def test_glmr_step(self, rng):
        k, l, sigma = (random_density(rng, 4) for _ in range(3))
        for ps in (make_program_state_k(k), make_program_state_kk(k),
                   make_program_state_klk(k, l)):
            for dt in (0.2, -0.05, 1.0):
                assert _gap(glmr_step(ps, sigma, dt).matrix,
                            dense_glmr_step(ps, sigma, dt).matrix) <= TOL

    def test_fifty_step_evolution(self, rng):
        k, l, sigma = (random_density(rng, 4) for _ in range(3))
        sources = [(0.5, make_program_state_k(k)), (1.0, make_program_state_kk(k)),
                   (0.5, make_program_state_klk(k, l))]
        cfg = EvolutionConfig(1.0, steps=50)
        closed = simulate_evolution(sources, sigma, cfg)
        dense = dense_simulate_evolution(sources, sigma, cfg)
        assert _gap(closed.state.matrix, dense.state.matrix) <= TOL
        sampled = simulate_evolution(sources, sigma, cfg, rng=np.random.default_rng(3))
        dense_sampled = dense_simulate_evolution(sources, sigma, cfg, rng=np.random.default_rng(3))
        assert _gap(sampled.state.matrix, dense_sampled.state.matrix) <= TOL

    def test_glmr_phase_estimation(self, rng):
        k, l = random_density(rng, 2), random_density(rng, 2)
        sources = [(1.0, make_program_state_k(k)), (1.0, make_program_state_klk(k, l))]
        b = np.array([0.6, 0.8j])
        cfg = QPEConfig(2)
        closed = glmr_phase_estimation(sources, b, cfg, steps_per_unit=100)
        dense = dense_glmr_phase_estimation(sources, b, cfg, steps_per_unit=100)
        assert _gap(closed.state.matrix, dense.state.matrix) <= TOL
        assert _gap(closed.clock_probabilities, dense.clock_probabilities) <= TOL

    def test_encodings(self, rng):
        ts = random_training_set(rng, 7, 3)
        assert _gap(kernel_density(ts).matrix, data_state(ts).density().reduced(1).matrix) <= TOL
        g = random_connected_graph(rng, 7)
        assert _gap(laplacian_density(g).matrix,
                    incidence_state(g).density().reduced(1).matrix) <= TOL


class TestSolverAgainstCircuit:
    @pytest.mark.parametrize("a, b, cfg", _DYADIC)
    def test_dyadic(self, a, b, cfg):
        _assert_solve_matches(a, b, 0.1, cfg)
        _assert_multiply_matches(a, b, cfg)

    def test_dyadic_rotated_spectrum(self, rng):
        w = np.array([0.5, 0.375, 0.25, 0.125])
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        b = rng.normal(size=4)
        _assert_solve_matches((q * w) @ q.T, b, 0.1, QPEConfig(4, 2 * np.pi))
        _assert_multiply_matches(np.outer(q[:, 0], q[:, 0]), b, QPEConfig(4))

    def test_non_dyadic_refinement(self):
        a = np.diag([0.9, 0.5, 0.22])
        b = np.array([0.5, 1.0, 0.7])
        for cq in (4, 6, 8):
            _assert_solve_matches(a, b, 0.05, QPEConfig(cq))

    def test_svm_fixture(self, cluster4, cluster4_graph):
        kd = kernel_density(cluster4)
        ld = laplacian_density(cluster4_graph)
        a_hat = assemble_system(kd.matrix.real, ld.matrix.real, cluster4.labels,
                                1.0).normalized_matrix()
        y = label_state(cluster4.labels)
        _assert_multiply_matches(kd, y, QPEConfig(8))
        _assert_solve_matches(a_hat, quantum_multiply(kd, y, QPEConfig(8)), 0.05, QPEConfig(8))


class TestProperties:
    @given(d=dims, rank=dims, clock=st.integers(2, 6), seed=seeds,
           t0=st.none() | st.floats(0.5, 8.0), sigma=st.floats(0.01, 0.6),
           scale=st.floats(0.2, 1.5), shift=st.sampled_from([0.0, 0.0, -0.05]),
           in_kernel=st.booleans())
    def test_solver(self, d, rank, clock, seed, t0, sigma, scale, shift, in_kernel):
        """Random PSD matrices of any rank (shifted indefinite or scaled past
        the unit range now and then), inputs possibly in the kernel; both
        routes raise the same exception type or agree at <= 1e-12."""
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        a = g @ g.conj().T
        a = scale * a / np.trace(a).real + shift * np.eye(d)
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        if in_kernel and rank < d:
            basis = np.linalg.svd(g)[0][:, rank:]
            b = basis @ (basis.conj().T @ b)
        cfg = QPEConfig(clock, t0)
        closed = _outcome(hhl_solve, a, b, sigma, cfg)
        dense = _outcome(dense_hhl_solve, a, b, sigma, cfg)
        if isinstance(dense, type):
            assert closed is dense
        else:
            _assert_solve_matches(a, b, sigma, cfg)
        closed = _outcome(quantum_multiply, a, b, cfg)
        dense = _outcome(dense_quantum_multiply, a, b, cfg)
        if isinstance(dense, type):
            assert closed is dense
        else:
            assert _gap(closed.amplitudes, dense.amplitudes) <= TOL


    @given(d=dims, seed=seeds, dt=times)
    def test_glmr_step(self, d, seed, dt):
        rng = np.random.default_rng(seed)
        ps = _random_program_state(rng, d)
        sigma = random_density(rng, d)
        assert _gap(glmr_step(ps, sigma, dt).matrix, dense_glmr_step(ps, sigma, dt).matrix) <= TOL

    @given(d=dims, seed=seeds, dt=times)
    def test_program_states(self, d, seed, dt):
        rng = np.random.default_rng(seed)
        k, l, sigma = (random_density(rng, d) for _ in range(3))
        assert _gap(glmr_step(make_program_state_k(k), sigma, dt).matrix,
                    lmr_step(k, sigma, dt).matrix) <= TOL
        assert _gap(make_program_state_kk(k).rho_prime.matrix,
                    dense_program_state_kk(k).rho_prime.matrix) <= TOL
        assert _gap(make_program_state_klk(k, l).rho_prime.matrix,
                    dense_program_state_klk(k, l).rho_prime.matrix) <= TOL

    @given(m=dims, p=dims, seed=seeds)
    def test_kernel_density(self, m, p, seed):
        ts = random_training_set(np.random.default_rng(seed), m, p)
        assert _gap(kernel_density(ts).matrix, data_state(ts).density().reduced(1).matrix) <= TOL

    @given(m=st.integers(2, 6), seed=seeds)
    def test_laplacian_density(self, m, seed):
        g = random_connected_graph(np.random.default_rng(seed), m)
        assert _gap(laplacian_density(g).matrix,
                    incidence_state(g).density().reduced(1).matrix) <= TOL
