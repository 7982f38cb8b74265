"""The production closed forms against the circuit-level dilations in
``dilation.py`` (the encodings against the partial traces of their full
states, the readout against the query and expansion states), at <= 1e-12."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph, random_density, random_training_set
from dilation import (
    data_state,
    dense_classify,
    dense_glmr_phase_estimation,
    dense_glmr_step,
    dense_hhl_solve,
    dense_program_state_kk,
    dense_program_state_klk,
    dense_quantum_multiply,
    dense_simulate_evolution,
    density,
    incidence_state,
    lmr_step,
    program_state_matrix,
    reduced,
    stepwise_glmr_phase_estimation,
    stepwise_simulate_evolution,
)
from qsslsvm.channels import (
    EvolutionConfig,
    ProgramState,
    exact_conjugation,
    glmr_step,
    make_program_state_k,
    make_program_state_kk,
    make_program_state_klk,
    mix_program_states,
    simulate_evolution,
)
from qsslsvm.classical import KernelSpec, assemble_system, train_semi_supervised
from qsslsvm.datasets import TrainingSet, load_points, normalized_laplacian
from qsslsvm.encodings import (
    DensityMatrix,
    kernel_density,
    label_state,
    laplacian_density,
)
from qsslsvm.hhl import QPEConfig, glmr_phase_estimation, hhl_solve, quantum_multiply
from qsslsvm.linalg import hermitian_eig
from qsslsvm.swap_test import classify

TOL = 1e-12

dims = st.integers(1, 6)
seeds = st.integers(0, 2**32 - 1)
times = st.floats(-1.0, 1.0)


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _random_program_state(rng: np.random.Generator, d: int) -> ProgramState:
    """Two random PSD blocks with tr(rho'' + rho''') = 1."""
    w = float(rng.uniform(0.05, 0.95))
    return ProgramState(w * random_density(rng, d).matrix,
                        (1.0 - w) * random_density(rng, d).matrix)


def _reduced_data(ts: TrainingSet) -> np.ndarray:
    """Tr_2 |X><X| from the full data state."""
    return reduced(density(data_state(ts)), (ts.sample_count, ts.feature_count), 1).matrix


def _reduced_incidence(g) -> np.ndarray:
    """Tr_2 |G_I><G_I| from the full incidence state."""
    return reduced(density(incidence_state(g)), (g.vertex_count, g.edge_count), 1).matrix


def _random_sources(rng: np.random.Generator, d: int, count: int) -> list:
    return [(float(rng.uniform(0.1, 2.0)), _random_program_state(rng, d)) for _ in range(count)]


def _assert_solve_matches(a, b, sigma, cfg):
    closed, dense = hhl_solve(a, b, sigma, cfg), dense_hhl_solve(a, b, sigma, cfg)
    assert _gap(closed.solution_state.amplitudes, dense.solution_state.amplitudes) <= TOL
    assert abs(closed.success_probability - dense.success_probability) <= TOL
    assert closed.retained_eigenvalues == dense.retained_eigenvalues


def _assert_multiply_matches(k, y, cfg):
    assert _gap(quantum_multiply(k, y, cfg).amplitudes,
                dense_quantum_multiply(k, y, cfg).amplitudes) <= TOL


def _outcome(fn, *args, **kwargs):
    """The function's result, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
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
        assert _gap(program_state_matrix(make_program_state_kk(k)),
                    program_state_matrix(dense_program_state_kk(k))) <= TOL
        assert _gap(program_state_matrix(make_program_state_klk(k, l)),
                    program_state_matrix(dense_program_state_klk(k, l))) <= TOL
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
        sampled = stepwise_simulate_evolution(sources, sigma, cfg, rng=np.random.default_rng(3))
        dense_sampled = dense_simulate_evolution(sources, sigma, cfg, rng=np.random.default_rng(3))
        assert _gap(sampled.state.matrix, dense_sampled.state.matrix) <= TOL

    def test_glmr_phase_estimation(self, rng):
        k, l = random_density(rng, 2), random_density(rng, 2)
        sources = [(1.0, make_program_state_k(k)), (1.0, make_program_state_klk(k, l))]
        b = np.array([0.6, 0.8j])
        cfg = QPEConfig(2)
        closed = glmr_phase_estimation(sources, b, cfg, steps_per_unit=100)
        stepwise = stepwise_glmr_phase_estimation(sources, b, cfg, steps_per_unit=100)
        dense = dense_glmr_phase_estimation(sources, b, cfg, steps_per_unit=100)
        assert _gap(stepwise.state.matrix, dense.state.matrix) <= TOL
        assert _gap(closed, dense.clock_probabilities) <= TOL

    def test_encodings(self, rng):
        ts = random_training_set(rng, 7, 3)
        assert _gap(kernel_density(ts).matrix, _reduced_data(ts)) <= TOL
        g = random_connected_graph(rng, 7)
        assert _gap(laplacian_density(g).matrix,
                    _reduced_incidence(g)) <= TOL


class TestChannelPower:
    """The loop-free trajectory and channel-backed phase estimation against
    their step-by-step oracles at the edges of the closed form."""

    def test_zero_time_with_steps_returns_input(self, rng):
        sigma = random_density(rng, 3)
        res = simulate_evolution(_random_sources(rng, 3, 2), sigma, EvolutionConfig(0.0, steps=5))
        assert res.steps == 5
        assert _gap(res.state.matrix, sigma.matrix) <= TOL

    def test_half_turn_step(self, rng):
        # dt = pi: sin dt is roundoff, so 1 - h is nearly 0 everywhere
        sources, sigma = _random_sources(rng, 4, 3), random_density(rng, 4)
        cfg = EvolutionConfig(np.pi, steps=1)
        assert _gap(simulate_evolution(sources, sigma, cfg).state.matrix,
                    stepwise_simulate_evolution(sources, sigma, cfg).state.matrix) <= TOL

    def test_vanishing_step(self, rng):
        # 1 - h underflows: the closed form takes its limit G = n
        sources, sigma = _random_sources(rng, 3, 2), random_density(rng, 3)
        for dt in (5e-324, 1e-310, 1e-160):
            cfg = EvolutionConfig(7 * dt, steps=7)
            assert _gap(simulate_evolution(sources, sigma, cfg).state.matrix,
                        stepwise_simulate_evolution(sources, sigma, cfg).state.matrix) <= TOL

    def test_ten_million_steps(self, rng):
        sources, sigma = _random_sources(rng, 4, 3), random_density(rng, 4)
        res = simulate_evolution(sources, sigma, EvolutionConfig(1.0, steps=10**7))
        exact = exact_conjugation(hermitian_eig(res.generator), sigma, 1.0)
        assert _gap(res.state.matrix, exact.matrix) <= 1e-6

    def test_one_decomposition_each(self, rng, eig_calls):
        sources, sigma = _random_sources(rng, 3, 2), random_density(rng, 3)
        mix_program_states(sources)  # validate the inputs before counting
        eig_calls.clear()
        simulate_evolution(sources, sigma, EvolutionConfig(1.0, steps=1000))
        assert sum(name == "eigh" for name, _ in eig_calls) == 1
        glmr_phase_estimation(sources, np.ones(3), QPEConfig(4), steps_per_unit=100)
        assert sum(name == "eigh" for name, _ in eig_calls) == 2

    def test_clock_distribution_sums_to_one(self, rng):
        probs = glmr_phase_estimation(_random_sources(rng, 3, 3), rng.normal(size=3),
                                      QPEConfig(6), steps_per_unit=7)
        assert probs.shape == (64,)
        assert abs(probs.sum() - 1.0) <= TOL
        assert probs.min() >= -TOL


def _assert_classify_matches(alpha, x, training, shots=0, seed=0):
    """Both routes raise the same exception type, or give P within 1e-12
    (equal estimates when sampled), equal labels and ambiguity flags."""
    closed = _outcome(classify, alpha, x, training, shots=shots, seed=seed)
    dense = _outcome(dense_classify, alpha, x, training, shots=shots, seed=seed)
    if isinstance(dense, type):
        assert closed is dense
        return
    if shots == 0:
        assert abs(closed.p_estimate - dense.p_estimate) <= TOL
    else:
        assert closed.p_estimate == dense.p_estimate
    assert (closed.label, closed.ambiguous) == (dense.label, dense.ambiguous)


class TestReadoutAgainstCircuit:
    def test_fixture_model(self, cluster8, cluster8_graph, data_dir):
        model, _ = train_semi_supervised(cluster8, normalized_laplacian(cluster8_graph),
                                         KernelSpec("linear"), 1.0, 1e-9)
        for i, point in enumerate(load_points(data_dir / "grid_20.csv")):
            for shots in (0, 1, 1000):
                _assert_classify_matches(model.alpha, point, cluster8, shots, seed=i)

    def test_exact_probabilities(self):
        training = TrainingSet(np.array([[1.0, 0.0]]), np.array([1.0]), 1)
        for query, p in (([2.0, 0.0], 0.0), ([0.0, 3.0], 0.5), ([-1.0, 0.0], 1.0)):
            assert classify(np.array([1.0]), np.array(query), training).p_estimate == p
            _assert_classify_matches(np.array([1.0]), np.array(query), training)

    def test_invalid_inputs(self, cluster8):
        alpha, x = np.ones(8), np.array([1.0, 2.0])
        with_zero_row = TrainingSet(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0]), 1)
        cases = [
            (alpha, np.ones(3), cluster8, 0),                 # query feature count
            (alpha, np.zeros(2), cluster8, 0),                # zero query
            (alpha, np.array([np.nan, 1.0]), cluster8, 0),    # non-finite query
            (alpha, np.array([np.inf, 0.0]), cluster8, 0),
            (np.ones(7), x, cluster8, 0),                     # alpha length
            (np.zeros(8), x, cluster8, 0),                    # all-zero alpha
            (np.full(8, np.nan), x, cluster8, 0),             # non-finite alpha
            (np.r_[np.inf, np.ones(7)], x, cluster8, 0),
            (np.ones(2), x, with_zero_row, 0),                # zero-norm training row
            (alpha, x, cluster8, -1),                         # negative shots
            # several faults at once: the query is checked first, shots last
            (np.zeros(7), np.zeros(2), cluster8, -1),
            (np.zeros(8), np.ones(3), with_zero_row, -1),
            (np.zeros(8), x, cluster8, -1),
            (np.ones(2), x, with_zero_row, -1),
        ]
        for a, q, training, shots in cases:
            assert isinstance(_outcome(classify, a, q, training, shots=shots), type)
            _assert_classify_matches(a, q, training, shots)


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


    @given(m=st.integers(1, 12), p=st.integers(1, 5), seed=seeds,
           shots=st.just(0) | st.integers(1, 1000), shot_seed=seeds,
           faults=st.lists(st.sampled_from(["query_width", "query_zero", "query_nan",
                                            "alpha_length", "alpha_zero", "alpha_inf",
                                            "zero_row", "shots"]), max_size=2))
    def test_classify(self, m, p, seed, shots, shot_seed, faults):
        """Random training rows, coefficients and query, now and then with
        one or two faulty inputs; both routes raise the same exception type
        or agree."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(m, p))
        alpha = rng.normal(size=m)
        query = rng.normal(size=p)
        if "zero_row" in faults:
            x[rng.integers(m)] = 0.0
        if "query_width" in faults:
            query = rng.normal(size=p + 1)
        if "query_zero" in faults:
            query = np.zeros_like(query)
        if "query_nan" in faults:
            query[0] = np.nan
        if "alpha_length" in faults:
            alpha = rng.normal(size=m + 1)
        if "alpha_zero" in faults:
            alpha = np.zeros_like(alpha)
        if "alpha_inf" in faults:
            alpha[-1] = np.inf
        if "shots" in faults:
            shots = -shots - 1
        labels = np.zeros(m)
        labels[0] = 1.0
        _assert_classify_matches(alpha, query, TrainingSet(x, labels, 1), shots, shot_seed)

    @settings(max_examples=30)
    @given(d=dims, seed=seeds, count=st.integers(1, 3), dt=times, n=st.integers(1, 2000))
    def test_trajectory(self, d, seed, count, dt, n):
        """n closed-form steps against n stepwise ones, over a mixture of
        one to three random program states with drawn weights."""
        rng = np.random.default_rng(seed)
        sources, sigma = _random_sources(rng, d, count), random_density(rng, d)
        cfg = EvolutionConfig(dt * n, steps=n)
        assert _gap(simulate_evolution(sources, sigma, cfg).state.matrix,
                    stepwise_simulate_evolution(sources, sigma, cfg).state.matrix) <= TOL

    @settings(max_examples=10)
    @given(d=st.integers(1, 4), seed=seeds, clock=st.integers(2, 5),
           steps_per_unit=st.integers(1, 50))
    def test_glmr_phase_estimation(self, d, seed, clock, steps_per_unit):
        rng = np.random.default_rng(seed)
        sources = _random_sources(rng, d, int(rng.integers(1, 4)))
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        cfg = QPEConfig(clock)
        closed = glmr_phase_estimation(sources, b, cfg, steps_per_unit)
        stepwise = stepwise_glmr_phase_estimation(sources, b, cfg, steps_per_unit)
        assert _gap(closed, stepwise.clock_probabilities) <= TOL

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
        assert _gap(program_state_matrix(make_program_state_kk(k)),
                    program_state_matrix(dense_program_state_kk(k))) <= TOL
        assert _gap(program_state_matrix(make_program_state_klk(k, l)),
                    program_state_matrix(dense_program_state_klk(k, l))) <= TOL

    @given(m=dims, p=dims, seed=seeds)
    def test_kernel_density(self, m, p, seed):
        ts = random_training_set(np.random.default_rng(seed), m, p)
        assert _gap(kernel_density(ts).matrix, _reduced_data(ts)) <= TOL

    @given(m=st.integers(2, 6), seed=seeds)
    def test_laplacian_density(self, m, seed):
        g = random_connected_graph(np.random.default_rng(seed), m)
        assert _gap(laplacian_density(g).matrix,
                    _reduced_incidence(g)) <= TOL
