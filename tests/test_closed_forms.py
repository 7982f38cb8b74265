"""The production closed forms against the circuit-level dilations in
``dilation.py`` (the encodings against the partial traces of their full
states, the readout against the query and expansion states), at <= 1e-12."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_connected_graph,
    random_density,
    random_hermitian,
    random_training_set,
    term_state,
)
from dilation import (
    data_state,
    dense_classify,
    dense_glmr_phase_estimation,
    dense_glmr_step,
    dense_hhl_solve,
    dense_one_step_errors,
    dense_program_state_kk,
    dense_program_state_klk,
    dense_quantum_multiply,
    dense_simulate_evolution,
    density,
    fft_clock_weights,
    glmr_phase_estimation,
    glmr_step,
    incidence_state,
    lmr_step,
    program_state_matrix,
    reduced,
    stepwise_glmr_phase_estimation,
    stepwise_simulate_evolution,
)
from qsslsvm import hhl
from qsslsvm.channels import (
    EvolutionConfig,
    ProgramState,
    exact_conjugation,
    generator_terms,
    mix_program_states,
    simulate_evolution,
)
from qsslsvm.classical import KernelSpec, assemble_system, train_semi_supervised
from qsslsvm.datasets import (
    TrainingSet,
    combinatorial_laplacian,
    load_points,
    normalized_laplacian,
)
from qsslsvm.encodings import (
    DensityMatrix,
    StateVector,
    kernel_density,
    label_state,
    laplacian_density,
)
from qsslsvm.errors import NumericalError, ParameterError
from qsslsvm.hhl import QPEConfig, _clock_weights, hhl_solve, quantum_multiply
from qsslsvm.linalg import SpectralDecomposition, hermitian_eig
from qsslsvm.pipeline import _DT_SWEEP, _one_step_errors, _system
from qsslsvm.swap_test import classify

TOL = 1e-12

#: The Fejer closed form against the FFT oracle: both are accurate to
#: ~2e-14 at T = 4096, while a float64 (not double-double) eigenphase or
#: the outer-product difference left uncorrected next to the peak is off
#: by ~3e-13 to ~6e-13 there.
WEIGHT_TOL = 2e-13

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


def _edge_density(rng: np.random.Generator, d: int, real: bool, shift: float) -> DensityMatrix:
    """A random density at the edge of the density tolerances: smallest
    eigenvalue -0.9e-10 and trace 1 + shift * 1e-10."""
    w, v = np.linalg.eigh(random_density(rng, d, real=real).matrix)
    w[0] = -0.9e-10
    w[-1] += 1.0 + shift * 1e-10 - w.sum()
    return DensityMatrix((v * w) @ v.conj().T)


def _assert_valid_blocks(blocks: list, psd_tol: float, trace_tol: float) -> None:
    """Each block exactly Hermitian with smallest eigenvalue >= -psd_tol,
    and the traces summing to 1 within trace_tol."""
    for b in blocks:
        assert np.array_equal(b, b.conj().T)
        assert np.linalg.eigvalsh(b)[0] >= -psd_tol
    assert abs(sum(np.trace(b).real for b in blocks) - 1.0) <= trace_tol


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
        assert _gap(program_state_matrix(term_state(k, "kk")),
                    program_state_matrix(dense_program_state_kk(k))) <= TOL
        assert _gap(program_state_matrix(term_state(k, "klk", l)),
                    program_state_matrix(dense_program_state_klk(k, l))) <= TOL
        # the K program state's step is the plain density-exponentiation step
        for dt in (0.3, -0.7):
            assert _gap(glmr_step(term_state(k, "k"), sigma, dt).matrix,
                        lmr_step(k, sigma, dt).matrix) <= TOL

    def test_glmr_step(self, rng):
        k, l, sigma = (random_density(rng, 4) for _ in range(3))
        for ps in (term_state(k, "k"), term_state(k, "kk"),
                   term_state(k, "klk", l)):
            for dt in (0.2, -0.05, 1.0):
                assert _gap(glmr_step(ps, sigma, dt).matrix,
                            dense_glmr_step(ps, sigma, dt).matrix) <= TOL

    def test_fifty_step_evolution(self, rng):
        k, l, sigma = (random_density(rng, 4) for _ in range(3))
        sources = [(0.5, term_state(k, "k")), (1.0, term_state(k, "kk")),
                   (0.5, term_state(k, "klk", l))]
        cfg = EvolutionConfig(1.0, steps=50)
        closed = simulate_evolution(sources, sigma, cfg)
        dense = dense_simulate_evolution(sources, sigma, cfg)
        assert _gap(closed.state.matrix, dense.state.matrix) <= TOL
        sampled = stepwise_simulate_evolution(sources, sigma, cfg, rng=np.random.default_rng(3))
        dense_sampled = dense_simulate_evolution(sources, sigma, cfg, rng=np.random.default_rng(3))
        assert _gap(sampled.state.matrix, dense_sampled.state.matrix) <= TOL

    def test_glmr_phase_estimation(self, rng):
        k, l = random_density(rng, 2), random_density(rng, 2)
        sources = [(1.0, term_state(k, "k")), (1.0, term_state(k, "klk", l))]
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
        exact = exact_conjugation(hermitian_eig(mix_program_states(sources).generator), sigma, 1.0)
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
    """``classify`` on one point or a block against the circuit run on each
    row i at seed ``seed + i``: the block raises the exception type of the
    first row the circuit rejects, or each row has P within 1e-12 (equal
    estimates when sampled), equal labels and ambiguity flags."""
    closed = _outcome(classify, alpha, x, training, shots=shots, seed=seed)
    rows = np.reshape(x, (-1, np.shape(x)[-1]))
    dense = [_outcome(dense_classify, alpha, row, training, shots=shots, seed=seed + i)
             for i, row in enumerate(rows)]
    failed = [d for d in dense if isinstance(d, type)]
    if failed:
        assert closed is failed[0]
        return
    assert np.shape(closed.label) == np.shape(x)[:-1]
    p, labels, flags = (np.reshape(v, -1) for v in
                        (closed.p_estimate, closed.label, closed.ambiguous))
    for i, row in enumerate(dense):
        if shots == 0:
            assert abs(p[i] - row.p_estimate) <= TOL
        else:
            assert p[i] == row.p_estimate
        assert (labels[i], flags[i]) == (row.label, row.ambiguous)


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
            (alpha, x, cluster8, 2.5),                        # fractional shots
            (alpha, x, cluster8, np.nan),
            (alpha, x, cluster8, 0, -1),                      # negative seed
            (alpha, x, cluster8, 10, -1),
            # several faults at once: the query is checked first, shots last
            (np.zeros(7), np.zeros(2), cluster8, -1),
            (np.zeros(8), np.ones(3), with_zero_row, -1),
            (np.zeros(8), x, cluster8, -1),
            (np.ones(2), x, with_zero_row, -1),
            (np.zeros(8), x, cluster8, 2.5),
            (alpha, x, cluster8, -1, -1),
            (alpha, x, cluster8, 2.5, -1),
        ]
        for a, q, training, shots, *seed in cases:
            seed = seed[0] if seed else 0
            assert isinstance(_outcome(classify, a, q, training, shots=shots, seed=seed), type)
            _assert_classify_matches(a, q, training, shots, seed)
        assert _outcome(classify, alpha, x, cluster8, shots=2.5) is ParameterError
        assert _outcome(classify, alpha, x, cluster8, seed=-1) is ParameterError


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

    def test_roundoff_negative_eigenvalue(self, rng):
        # an eigenvalue in [-1e-8, 0) is accepted as PSD and read as 0
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        a = (q * np.array([0.5, 0.25, -1e-10])) @ q.T
        b = rng.normal(size=3)
        _assert_solve_matches(a, b, 0.1, QPEConfig(4))
        _assert_multiply_matches(a, b, QPEConfig(4))

    def test_svm_fixture(self, cluster4, cluster4_graph):
        kd = kernel_density(cluster4)
        ld = laplacian_density(cluster4_graph)
        a_hat = assemble_system(kd.matrix.real, ld.matrix.real, cluster4.labels,
                                1.0).normalized_matrix()
        y = label_state(cluster4.labels)
        _assert_multiply_matches(kd, y, QPEConfig(8))
        _assert_solve_matches(a_hat, quantum_multiply(kd, y, QPEConfig(8)), 0.05, QPEConfig(8))


@st.composite
def _qpe_spectra(draw):
    """(eigenvalues descending, t0 or None for the default, clock qubits):
    random phases, with draws of dyadic and half-bin phases, a phase near 1
    (whose nearest bin T wraps to clock 0) and a roundoff-negative
    eigenvalue in [-1e-8, 0)."""
    clock = draw(st.integers(2, 12))
    t = 2**clock
    rng = np.random.default_rng(draw(seeds))
    phases = rng.uniform(0.0, 1.0 - 1e-9, draw(st.integers(1, 10)))
    if draw(st.booleans()):  # dyadic: on a bin or half a bin off it
        n = int(rng.integers(1, phases.size + 1))
        phases[:n] = rng.integers(0, 2 * t, n) / (2 * t)
    if draw(st.booleans()):
        phases[-1] = 1.0 - rng.uniform(1e-11, 0.5 / t)
    t0 = draw(st.none() | st.just(2 * np.pi) | st.floats(0.1, 10.0))
    lam = phases if t0 is None else phases * 2 * np.pi / t0
    if draw(st.booleans()):
        lam[0] = -rng.uniform(0.0, 1e-8)
    return np.sort(lam)[::-1], t0, clock


def _default_t0(lam: np.ndarray, t0) -> float:
    return hhl.default_evolution_time(float(lam[0])) if t0 is None else t0


class TestClockWeightsAgainstFFT:
    @settings(max_examples=300)
    @given(spectrum=_qpe_spectra())
    def test_weights_and_peaks(self, spectrum):
        """The closed form against the FFT of the controlled-evolution
        phases: weights at <= 2e-13, unit column sums, and the oracle's
        argmax as the peak except at a half-bin tie, which goes to the
        lower bin."""
        lam, t0, clock = spectrum
        t, t0 = 2**clock, _default_t0(lam, t0)
        eig = SpectralDecomposition(lam, np.eye(lam.size))
        lam_hat, weights, peaks = _clock_weights(eig, t0, t)
        fft_hat, fft_weights, argmax = fft_clock_weights(eig, t0, t)
        assert np.array_equal(lam_hat, fft_hat)
        assert _gap(weights, fft_weights) <= WEIGHT_TOL
        assert np.max(np.abs(weights.sum(axis=0) - 1.0)) <= TOL
        cols = np.arange(lam.size)
        tie = np.abs(fft_weights[peaks, cols] - fft_weights[argmax, cols]) <= TOL
        assert np.all((peaks == argmax) | (tie & ((argmax - peaks) % t == 1)))

    @settings(max_examples=100)
    @given(spectrum=_qpe_spectra(), seed=seeds, sigma=st.floats(0.05, 0.9))
    def test_solvers_on_fft_weights(self, spectrum, seed, sigma):
        """``hhl_solve`` and ``quantum_multiply`` give the same states and
        success probability on the closed-form weights as on the FFT
        oracle's, at <= 1e-12, or raise the same exception type."""
        lam, t0, clock = spectrum
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(lam.size, lam.size)))[0]
        eig = SpectralDecomposition(lam, q)
        b = rng.normal(size=lam.size) + 1j * rng.normal(size=lam.size)
        cfg = QPEConfig(clock, t0)
        closed = _outcome(hhl_solve, eig, b, sigma * max(lam[0], 1e-3), cfg)
        multiplied = _outcome(quantum_multiply, eig, b, cfg)
        with mock.patch.object(hhl, "_clock_weights", fft_clock_weights):
            oracle = _outcome(hhl_solve, eig, b, sigma * max(lam[0], 1e-3), cfg)
            oracle_multiplied = _outcome(quantum_multiply, eig, b, cfg)
        if isinstance(oracle, type):
            assert closed is oracle
        else:
            assert _gap(closed.solution_state.amplitudes, oracle.solution_state.amplitudes) <= TOL
            assert abs(closed.success_probability - oracle.success_probability) <= TOL
        if isinstance(oracle_multiplied, type):
            assert multiplied is oracle_multiplied
        else:
            assert _gap(multiplied.amplitudes, oracle_multiplied.amplitudes) <= TOL


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

    @given(m=st.integers(1, 8), p=st.integers(1, 4), n=st.integers(1, 6), seed=seeds,
           shots=st.just(0) | st.integers(1, 1000), shot_seed=seeds,
           fault=st.sampled_from([None, None, "zero_row", "nan_row", "inf_row",
                                  "alpha_zero", "shots"]))
    def test_classify_block(self, m, p, n, seed, shots, shot_seed, fault):
        """A block of n random queries, now and then with one faulty row or
        a fault every row shares: the block raises the error type a
        one-point call raises, or row i agrees with the circuit at
        ``shot_seed + i``."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(m, p))
        alpha = rng.normal(size=m)
        queries = rng.normal(size=(n, p))
        bad_row = {"zero_row": 0.0, "nan_row": np.nan, "inf_row": np.inf}.get(fault)
        if bad_row is not None:
            queries[rng.integers(n)] = bad_row
        if fault == "alpha_zero":
            alpha = np.zeros_like(alpha)
        if fault == "shots":
            shots = -shots - 1
        labels = np.zeros(m)
        labels[0] = 1.0
        _assert_classify_matches(alpha, queries, TrainingSet(x, labels, 1), shots, shot_seed)

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
        assert _gap(glmr_step(term_state(k, "k"), sigma, dt).matrix,
                    lmr_step(k, sigma, dt).matrix) <= TOL
        assert _gap(program_state_matrix(term_state(k, "kk")),
                    program_state_matrix(dense_program_state_kk(k))) <= TOL
        assert _gap(program_state_matrix(term_state(k, "klk", l)),
                    program_state_matrix(dense_program_state_klk(k, l))) <= TOL

    @given(d=st.integers(2, 24), seed=seeds, log_gamma=st.floats(-300.0, 300.0))
    def test_built_system(self, d, seed, log_gamma):
        """What ``AssembledSystem._built`` does not check for the system
        ``simulate`` sums from its generator terms, K/gamma + K K +
        K L K/gamma over package-built densities: it is exactly symmetric."""
        rng = np.random.default_rng(seed)
        k = kernel_density(random_training_set(rng, d, int(rng.integers(1, 5))))
        l = laplacian_density(random_connected_graph(rng, d))
        a = _system(generator_terms(k, l), np.ones(d), 10.0**log_gamma).a_matrix
        assert np.array_equal(a, a.T)

    @given(m=st.integers(2, 64), seed=seeds, kind=st.sampled_from(["real", "complex", "signed"]),
           t=st.floats(0.5, 4.0))
    def test_squared_spectrum(self, m, seed, kind, t):
        """K K's decomposition read from K's (``squared``), for a real or
        complex density K and for a Hermitian K with negative eigenvalues,
        whose squares fall out of order: its eigenvalues descend, and
        exp(-i K K t) from it is within 1e-12 of the one from decomposing
        K K itself."""
        rng = np.random.default_rng(seed)
        if kind == "signed":
            k = random_hermitian(rng, m) / m
        else:
            k = random_density(rng, m, real=kind == "real").matrix
        derived = hermitian_eig(k).squared()
        assert np.all(np.diff(derived.eigenvalues) <= 0)
        assert _gap(derived.apply(lambda w: np.exp(-1j * w * t)),
                    hermitian_eig(k @ k).apply(lambda w: np.exp(-1j * w * t))) <= TOL

    @given(m=st.sampled_from([1, 2]) | st.integers(3, 64), seed=seeds,
           term=st.sampled_from(["k", "kk", "klk"]), real=st.booleans(),
           rank_one=st.booleans(), eigenvector_probe=st.booleans(),
           dts=st.just(_DT_SWEEP) | st.sets(st.integers(1, 100), min_size=3, max_size=5).map(
               lambda hundredths: tuple(sorted(i / 100 for i in hundredths))))
    def test_one_step_errors(self, m, seed, term, real, rank_one, eigenvector_probe, dts):
        """The pipeline's O(m^2) one-step errors against the dense step and
        exact conjugation, for the k, kk and klk program states of a random
        K (rank 1 now and then) at m <= 64, on a random probe or an
        eigenvector of B: within 1e-11 relative.  Where the error is far
        below sin^2 dt, the dense subtraction of two unit-trace densities
        itself keeps fewer digits (a probe near an eigenvector of B with R
        near P; an exact step, as at m = 1), and the bound is 1e-11 sin^2 dt;
        an exact step may also be refused as having no error to fit."""
        rng = np.random.default_rng(seed)
        if rank_one:
            w = rng.normal(size=m) + (0.0 if real else 1j * rng.normal(size=m))
            k = DensityMatrix(np.outer(w, w.conj()) / np.vdot(w, w).real)
        else:
            k = random_density(rng, m, real=real)
        ps = {"k": lambda: term_state(k, "k"),
              "kk": lambda: term_state(k, "kk"),
              "klk": lambda: term_state(k, "klk", random_density(rng, m, real=True))}[term]()
        eig = hermitian_eig(ps.generator)
        if eigenvector_probe:
            phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            probe = StateVector(eig.eigenvectors[:, rng.integers(m)] * phase)
        else:
            probe = StateVector.normalized(rng.normal(size=m) + 1j * rng.normal(size=m))
        dense = dense_one_step_errors(ps, eig, probe, dts)
        bound = [1e-11 * max(e, math.sin(dt) ** 2) for e, dt in zip(dense, dts)]
        closed = _outcome(_one_step_errors, term, ps, eig, probe, dts)
        if closed is NumericalError:
            assert all(e <= b for e, b in zip(dense, bound))
        else:
            assert all(abs(c - e) <= b for c, e, b in zip(closed[0], dense, bound))

    @given(m=dims, p=dims, seed=seeds)
    def test_kernel_density(self, m, p, seed):
        ts = random_training_set(np.random.default_rng(seed), m, p)
        assert _gap(kernel_density(ts).matrix, _reduced_data(ts)) <= TOL

    @given(m=st.integers(2, 64), seed=seeds, extra=st.integers(0, 300))
    def test_built_laplacians(self, m, seed, extra):
        """What the builders no longer check at run time: on a connected
        graph both Laplacians are exactly symmetric and PSD, the
        combinatorial rows sum to zero, and the normalized one has a unit
        diagonal and its spectrum in [0, 2]."""
        g = random_connected_graph(np.random.default_rng(seed), m, extra)
        comb, norm = combinatorial_laplacian(g).matrix, normalized_laplacian(g).matrix
        for lap in (comb, norm):
            assert np.array_equal(lap, lap.T)
            assert np.linalg.eigvalsh(lap)[0] >= -1e-10
        assert not np.any(comb.sum(axis=1))
        assert np.all(np.diag(norm) == 1.0)
        assert np.linalg.eigvalsh(norm)[-1] <= 2.0 + 1e-10

    @given(m=st.integers(2, 40), p=st.integers(1, 6), seed=seeds, extra=st.integers(0, 100),
           scale=st.sampled_from([2.0**-530, 1e-100, 1.0, 1e100, 1e150]))
    def test_built_densities(self, m, p, seed, extra, scale):
        """What ``kernel_density`` and ``laplacian_density`` no longer check
        at run time, on features from ~1e-161 (whose products are
        subnormal) to ~1e151: each density is exactly symmetric, PSD within
        1e-10 and of unit trace within 1e-10, so the public check passes
        and leaves its matrix bit for bit."""
        rng = np.random.default_rng(seed)
        x = rng.choice([-1.0, 1.0], size=(m, p)) * rng.uniform(0.1, 10.0, size=(m, p)) * scale
        labels = np.zeros(m)
        labels[0] = 1.0
        g = random_connected_graph(rng, m, extra)
        for rho in (kernel_density(TrainingSet(x, labels, 1)), laplacian_density(g)):
            _assert_valid_blocks([rho.matrix], 1e-10, 1e-10)
            assert np.array_equal(DensityMatrix(rho.matrix).matrix, rho.matrix)

    @given(d=st.integers(2, 24), seed=seeds, source=st.sampled_from(["built", "random", "edge"]),
           real=st.booleans(), trace_shift=st.sampled_from([-0.9, 0.0, 0.9]),
           log_weights=st.lists(st.floats(-300.0, 300.0), min_size=3, max_size=3))
    def test_built_program_states(self, d, seed, source, real, trace_shift, log_weights):
        """What the program-state builders and ``mix_program_states`` no
        longer check at run time: from densities K and L that the package
        built, that are random, or that sit at the edge of the density
        tolerances (smallest eigenvalue -0.9e-10, trace 1 +- 0.9e-10), the
        K, K K and K L K blocks and a mixture of the three with weights from
        1e-300 to 1e300 are exactly Hermitian, PSD and of unit total trace:
        within 1e-10 from valid densities, within the channel tolerances
        from edge ones.  The public ``ProgramState`` check passes on each and
        leaves its blocks bit for bit."""
        rng = np.random.default_rng(seed)
        if source == "built":
            k = kernel_density(random_training_set(rng, d, int(rng.integers(1, 5))))
            l = laplacian_density(random_connected_graph(rng, d))
        elif source == "random":
            k, l = (random_density(rng, d, real=real) for _ in range(2))
        else:
            k, l = (_edge_density(rng, d, real, trace_shift) for _ in range(2))
        psd_tol, trace_tol = (1e-8, 1e-9) if source == "edge" else (1e-10, 1e-10)
        states = [term_state(k, "k"), term_state(k, "kk"), term_state(k, "klk", l)]
        mixture = mix_program_states([(10.0**w, ps) for w, ps in zip(log_weights, states)])
        for ps in states + [mixture]:
            _assert_valid_blocks([ps.rho0, ps.rho1], psd_tol, trace_tol)
            checked = ProgramState(ps.rho0, ps.rho1)
            assert np.array_equal(checked.rho0, ps.rho0) and np.array_equal(checked.rho1, ps.rho1)

    @given(m=st.integers(2, 6), seed=seeds)
    def test_laplacian_density(self, m, seed):
        g = random_connected_graph(np.random.default_rng(seed), m)
        assert _gap(laplacian_density(g).matrix,
                    _reduced_incidence(g)) <= TOL
