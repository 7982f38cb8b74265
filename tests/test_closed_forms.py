"""The production closed forms against the circuit-level dilations in
``dilation.py`` (and the encodings against the partial traces of their
full states), at <= 1e-12."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_connected_graph, random_density, random_training_set
from dilation import (
    dense_glmr_phase_estimation,
    dense_glmr_step,
    dense_program_state_kk,
    dense_program_state_klk,
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
from qsslsvm.encodings import (
    DensityMatrix,
    data_state,
    incidence_state,
    kernel_density,
    laplacian_density,
)
from qsslsvm.hhl import QPEConfig, glmr_phase_estimation
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


class TestProperties:
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
