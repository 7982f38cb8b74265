"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with the measured values (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and enforces its
runtime budget.  Tolerances are fixed here, not configurable.

Criteria 3 and 4 certify the circuit-level constructions (the dilations in
``dilation.py``); the production closed forms are checked against those
dilations in ``test_closed_forms.py``.
"""

import math
import time

import numpy as np
import pytest
import sympy

from conftest import (
    DATA,
    random_connected_graph,
    random_density,
    random_training_set,
)
from dilation import (
    dense_glmr_step,
    dense_program_state_kk,
    dense_program_state_klk,
    dense_simulate_evolution,
)
from qsslsvm.channels import EvolutionConfig, exact_conjugation, make_program_state_k
from qsslsvm.classical import KernelSpec, kernel_matrix, solve_classical, assemble_system
from qsslsvm.datasets import TrainingSet, build_knn_graph, load_dataset, normalized_laplacian
from qsslsvm.encodings import kernel_density, label_state, laplacian_density
from qsslsvm.hhl import QPEConfig, hhl_solve, quantum_multiply
from qsslsvm.linalg import hermitian_eig, state_fidelity
from qsslsvm.pipeline import CostModelParams, RunConfig, cost_model, run_pipeline
from qsslsvm.swap_test import classify

DT_SWEEP = (0.2, 0.1, 0.05, 0.025)


class _Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    def done(self) -> float:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.2f}s exceeds {self.limit}s budget"
        return elapsed


def test_criterion_1_classical_oracle():
    budget = _Budget(1.0)
    training = load_dataset(DATA / "two_cluster_8.csv")
    assert (training.sample_count, training.feature_count) == (8, 2)
    graph = build_knn_graph(training, 2)
    lap = normalized_laplacian(graph)
    k = kernel_matrix(training, KernelSpec("linear"))
    sys = assemble_system(k, lap, training.labels, gamma=1.0)
    model = solve_classical(sys, 1e-9, kernel=KernelSpec("linear"),
                            training_features=training.features)
    residual = np.linalg.norm(sys.a_matrix @ model.alpha - sys.rhs) / np.linalg.norm(sys.rhs)
    gradient = np.linalg.norm(sys.a_matrix @ model.alpha - sys.rhs)
    assert residual <= 1e-8
    assert gradient <= 1e-6
    elapsed = budget.done()
    print(f"\nPASS criterion 1: classical oracle "
          f"(residual {residual:.2e}, gradient {gradient:.2e}, {elapsed:.2f}s)")


def test_criterion_2_density_encodings():
    budget = _Budget(5.0)
    rng = np.random.default_rng(2)
    worst_kernel = worst_laplacian = 0.0
    for _ in range(50):
        ts = random_training_set(rng, int(rng.integers(2, 11)), int(rng.integers(1, 7)))
        gram = ts.features @ ts.features.T
        err_k = np.linalg.norm(kernel_density(ts).matrix - gram / np.trace(gram))
        worst_kernel = max(worst_kernel, err_k)

        m = int(rng.integers(2, 11))
        g = random_connected_graph(rng, m)
        err_l = np.linalg.norm(laplacian_density(g).matrix - normalized_laplacian(g).matrix / m)
        worst_laplacian = max(worst_laplacian, err_l)
    assert worst_kernel <= 1e-12
    assert worst_laplacian <= 1e-12
    elapsed = budget.done()
    print(f"\nPASS criterion 2: density encodings "
          f"(kernel err {worst_kernel:.2e}, laplacian err {worst_laplacian:.2e}, {elapsed:.2f}s)")


def test_criterion_3_program_state_identity():
    budget = _Budget(10.0)
    rng = np.random.default_rng(3)
    worst_gen = worst_trace = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        k, l = random_density(rng, d), random_density(rng, d)
        ps = dense_program_state_klk(k, l)
        target = 0.5 * (
            k.matrix.conj().T @ l.matrix @ k.matrix
            + k.matrix @ l.matrix @ k.matrix.conj().T
        )
        worst_gen = max(worst_gen, float(np.max(np.abs(ps.generator - target))))
        worst_trace = max(worst_trace, abs(float(np.trace(ps.rho0 + ps.rho1).real) - 1.0))
    assert worst_gen <= 1e-10
    assert worst_trace <= 1e-10
    elapsed = budget.done()
    print(f"\nPASS criterion 3: program-state identity "
          f"(generator err {worst_gen:.2e}, trace err {worst_trace:.2e}, {elapsed:.2f}s)")


def test_criterion_4_channel_error_order():
    budget = _Budget(30.0)
    rng = np.random.default_rng(4)
    k, l = random_density(rng, 4), random_density(rng, 4)
    sigma = random_density(rng, 4)
    channels = {
        "k": make_program_state_k(k),
        "kk": dense_program_state_kk(k),
        "klk": dense_program_state_klk(k, l),
    }
    slopes, traj_errors = {}, {}
    t_total, delta = 1.0, 1e-3
    for name, ps in channels.items():
        eig = hermitian_eig(ps.generator)
        errs = [
            np.linalg.norm(
                dense_glmr_step(ps, sigma, dt).matrix - exact_conjugation(eig, sigma, dt).matrix
            )
            for dt in DT_SWEEP
        ]
        slope = float(np.polyfit(np.log(np.asarray(DT_SWEEP)), np.log(errs), 1)[0])
        assert 1.8 <= slope <= 2.2, f"{name} slope {slope}"
        slopes[name] = slope

        steps = int(math.ceil(t_total**2 / delta))
        run = dense_simulate_evolution([(1.0, ps)], sigma, EvolutionConfig(t_total, delta, steps))
        err = float(np.linalg.norm(
            run.state.matrix - exact_conjugation(eig, sigma, t_total).matrix
        ))
        assert err <= 10.0 * delta, f"{name} trajectory error {err}"
        traj_errors[name] = err
    elapsed = budget.done()
    slope_text = " ".join(f"{n}={s:.2f}" for n, s in slopes.items())
    err_text = " ".join(f"{n}={e:.1e}" for n, e in traj_errors.items())
    print(f"\nPASS criterion 4: channel error order (slopes {slope_text}; "
          f"trajectory {err_text}; {elapsed:.2f}s)")


def test_criterion_5_hhl_correctness():
    budget = _Budget(30.0)
    # exactly representable spectrum: fidelity 1 at 3 clock qubits
    b = np.array([1.0, 1.0]) / np.sqrt(2)
    res = hhl_solve(np.diag([0.5, 0.25]), b, 0.1, QPEConfig(3))
    fid_dyadic = state_fidelity(res.solution_state.amplitudes, np.array([1.0, 2.0]) / np.sqrt(5))
    assert abs(fid_dyadic - 1.0) <= 1e-9

    # m = 4 training fixture at 8 clock qubits
    training = load_dataset(DATA / "two_cluster_4.csv")
    graph = build_knn_graph(training, 1)
    kd = kernel_density(training)
    ld = laplacian_density(graph)
    sys = assemble_system(kd.matrix.real, ld.matrix.real, training.labels, 1.0)
    model = solve_classical(sys, 0.05)
    ky = quantum_multiply(kd, label_state(training.labels), QPEConfig(8))
    ky_target = kd.matrix.real @ training.labels
    fid_multiply = state_fidelity(ky.amplitudes, ky_target / np.linalg.norm(ky_target))
    assert fid_multiply >= 0.999

    res4 = hhl_solve(sys.normalized_matrix(), ky, 0.05, QPEConfig(8))
    alpha_unit = model.alpha / np.linalg.norm(model.alpha)
    fid_solve = state_fidelity(res4.solution_state.amplitudes, alpha_unit)
    assert fid_solve >= 0.99
    elapsed = budget.done()
    print(f"\nPASS criterion 5: eigenvalue inversion (dyadic fid {fid_dyadic:.12f}, "
          f"fixture fid {fid_solve:.6f}, multiply fid {fid_multiply:.6f}, {elapsed:.2f}s)")


def test_criterion_6_end_to_end_agreement():
    budget = _Budget(60.0)
    report = run_pipeline(
        RunConfig(knn_k=2), DATA / "two_cluster_8.csv", DATA / "grid_20.csv"
    )
    assert report["quantum"]["solution_fidelity"] >= 0.99
    assert report["classification"]["agreement"] == 1.0
    assert report["classification"]["test_point_count"] == 20
    elapsed = budget.done()
    print(f"\nPASS criterion 6: end-to-end agreement "
          f"(fidelity {report['quantum']['solution_fidelity']:.6f}, "
          f"agreement {report['classification']['agreement']:.2f}, {elapsed:.2f}s)")


def test_criterion_7_swap_test_statistics():
    budget = _Budget(30.0)
    shots = 10_000
    # one training row x_1 and alpha = (1): P = (1 - cos(x_1, query)) / 2
    cases = {
        0.0: (np.array([1.0, 0.0]), np.array([1.0, 0.0])),
        0.25: (np.array([1.0, 0.0]), np.array([0.5, math.sqrt(3) / 2])),
        0.5: (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    }
    alpha = np.array([1.0])
    hit_counts = {}
    for p_true, (row, query) in cases.items():
        training = TrainingSet(row[None, :], np.array([1.0]), 1)
        assert classify(alpha, query, training).p_estimate == pytest.approx(p_true, abs=1e-15)
        bound = 4.0 * math.sqrt(p_true * (1.0 - p_true) / shots)
        hits = sum(
            abs(classify(alpha, query, training, shots=shots, seed=seed).p_estimate - p_true)
            <= bound
            for seed in range(100)
        )
        assert hits >= 99, f"P={p_true}: only {hits}/100 trials within 4 sigma"
    hit_counts[p_true] = hits
    elapsed = budget.done()
    text = " ".join(f"P={p}:{h}/100" for p, h in hit_counts.items())
    print(f"\nPASS criterion 7: swap-test statistics ({text}, {elapsed:.2f}s)")


def test_criterion_8_cost_model_reproduction():
    budget = _Budget(1.0)
    m, p, q, eps, eta = sympy.symbols("m p q epsilon eta", positive=True)
    quantum = q**3 * eps**-3 * sympy.log(m * p)
    dequantized = q**9 * eps**-6 * eta**6

    # full rank: m^3 versus m^9
    assert sympy.simplify(quantum.subs(q, m) / sympy.log(m * p) - m**3 * eps**-3) == 0
    assert sympy.simplify(dequantized.subs(q, m) - m**9 * eps**-6 * eta**6) == 0
    # constant rank: eps^-3 log(mp) versus eps^-6
    assert sympy.simplify(quantum.subs(q, 1) - eps**-3 * sympy.log(m * p)) == 0
    assert sympy.simplify(dequantized.subs(q, 1) - eps**-6 * eta**6) == 0
    # slow growth q = m^(1/6): sqrt(m) versus m^(3/2)
    sixth = m ** sympy.Rational(1, 6)
    assert sympy.simplify(quantum.subs(q, sixth) / sympy.log(m * p) - sympy.sqrt(m) * eps**-3) == 0
    assert sympy.simplify(
        dequantized.subs(q, sixth) - m ** sympy.Rational(3, 2) * eps**-6 * eta**6
    ) == 0

    # implementation matches the symbolic formulas at m in {64, 4096}
    for m_val in (64, 4096):
        q_sixth = round(m_val ** (1 / 6))
        for q_val, regime in ((m_val, "full_rank"), (1, "constant_rank"),
                              (q_sixth, "slow_growth")):
            out = cost_model(CostModelParams(m=m_val, p=8, q=q_val, epsilon=0.5))
            expected_q = float(quantum.subs({m: m_val, p: 8, q: q_val, eps: 0.5}))
            expected_d = float(dequantized.subs({q: q_val, eps: 0.5, eta: 1.0}))
            assert out["quantum_cost"] == expected_q
            assert out["dequantized_cost"] == expected_d
            assert out["regime"] == regime
    elapsed = budget.done()
    print(f"\nPASS criterion 8: cost-model reproduction "
          f"(three regimes verified symbolically at m=64 and m=4096, {elapsed:.2f}s)")
