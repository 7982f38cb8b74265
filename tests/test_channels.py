"""Tests for the sample-based Hamiltonian simulation channels and for the
circuit-level oracle in ``dilation.py`` they are checked against."""

import numpy as np
import pytest

from conftest import (
    density_fidelity,
    maximally_mixed,
    random_density,
    random_hermitian,
    random_pure_density,
    term_state,
)
from dilation import (
    controlled_partial_swap_evolution,
    cyclic_permutation,
    glmr_step,
    lmr_step,
    stepwise_simulate_evolution,
    swap_operator,
)
from qsslsvm.channels import (
    EvolutionConfig,
    ProgramState,
    exact_conjugation,
    generator_terms,
    mix_program_states,
    simulate_evolution,
)
from qsslsvm.encodings import DensityMatrix
from qsslsvm.errors import EncodingError, LayoutError, ParameterError
from qsslsvm.linalg import SpectralDecomposition, hermitian_eig

DT_SWEEP = (0.2, 0.1, 0.05, 0.025)


def _slope(errs):
    return float(np.polyfit(np.log(np.asarray(DT_SWEEP)), np.log(errs), 1)[0])


class TestSwapOperator:
    def test_scalar(self):
        assert np.array_equal(swap_operator(1), [[1.0]])

    def test_qubit_permutation(self):
        s = swap_operator(2)
        expected = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(s.real, expected)

    def test_involution_and_hermitian(self):
        s = swap_operator(3)
        assert np.allclose(s @ s, np.eye(9))
        assert np.allclose(s, s.conj().T)

    def test_conjugation_swaps_factors(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s = swap_operator(3)
        assert np.allclose(s @ np.kron(a, b) @ s, np.kron(b, a))


def _loop_contract_23(op: np.ndarray, d: int) -> np.ndarray:
    """Brute-force partial trace over factors 2 and 3 of a 3-register op."""
    out = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for c in range(d):
            acc = 0.0 + 0.0j
            for s in range(d):
                for t in range(d):
                    acc += op[(r * d + s) * d + t, (c * d + s) * d + t]
            out[r, c] = acc
    return out


class TestCyclicPermutation:
    def test_basis_action(self):
        p = cyclic_permutation(2)
        # |0,1,1> -> |1,0,1>
        vec = np.zeros(8)
        vec[0b011] = 1.0
        assert np.argmax(np.abs(p @ vec)) == 0b101

    @pytest.mark.parametrize("d", [2, 3])
    def test_cycle_order_three(self, d):
        p = cyclic_permutation(d)
        assert np.allclose(np.linalg.matrix_power(p, 3), np.eye(d**3))
        assert np.allclose(p @ p.conj().T, np.eye(d**3))

    def test_contraction_identities(self, rng):
        # verified against a brute-force index contraction: right-multiplying
        # by P^dag contracts to the ordered product ABC, left-multiplying by
        # P to CBA (these are the two orientations the circuit uses)
        d = 2
        p = cyclic_permutation(d)
        a, b, c = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3))
        t = np.kron(np.kron(a, b), c)
        right = _loop_contract_23(t @ p.conj().T, d)
        assert np.allclose(right, a @ b @ c)
        left = _loop_contract_23(p @ t, d)
        assert np.allclose(left, c @ b @ a)


class TestLmrStep:
    def test_zero_time(self, rng):
        k, sigma = random_density(rng, 3), random_density(rng, 3)
        out = lmr_step(k, sigma, 0.0)
        assert np.allclose(out.matrix, sigma.matrix, atol=1e-14)

    def test_commuting_second_order_bound(self):
        k = DensityMatrix(np.diag([0.7, 0.3]))
        sigma = DensityMatrix(np.diag([0.2, 0.8]))
        for dt in DT_SWEEP:
            out = lmr_step(k, sigma, dt)
            bound = dt**2 * np.linalg.norm(k.matrix - sigma.matrix) * 1.01
            assert np.linalg.norm(out.matrix - sigma.matrix) <= bound

    def test_first_order_commutator(self, rng):
        k, sigma = random_density(rng, 3), random_density(rng, 3)
        dt = 0.05
        out = lmr_step(k, sigma, dt)
        comm = k.matrix @ sigma.matrix - sigma.matrix @ k.matrix
        assert np.linalg.norm(out.matrix - (sigma.matrix - 1j * dt * comm)) < 4 * dt**2

    def test_second_order_slope(self, rng):
        k, sigma = random_density(rng, 2), random_density(rng, 2)
        eig = hermitian_eig(k.matrix)
        errs = [
            np.linalg.norm(lmr_step(k, sigma, dt).matrix - exact_conjugation(eig, sigma, dt).matrix)
            for dt in DT_SWEEP
        ]
        assert 1.8 <= _slope(errs) <= 2.2

    def test_dimension_mismatch(self, rng):
        with pytest.raises(LayoutError):
            lmr_step(random_density(rng, 2), random_density(rng, 3), 0.1)


class TestProgramStateValidation:
    def test_valid_blocks_kept(self):
        ps = ProgramState(np.diag([0.5, 0.25]), np.diag([0.0, 0.25]))
        assert ps.system_dim == 2
        assert np.array_equal(ps.generator, np.diag([0.5, 0.0]))

    def test_non_psd_block(self):
        with pytest.raises(EncodingError, match="PSD"):
            ProgramState(np.diag([0.6, -0.1]), np.diag([0.25, 0.25]))

    def test_non_hermitian_block(self):
        with pytest.raises(EncodingError, match="Hermitian"):
            ProgramState(np.array([[0.25, 0.1], [0.0, 0.25]]), np.diag([0.25, 0.25]))

    def test_block_traces_must_sum_to_one(self):
        with pytest.raises(EncodingError, match="trace"):
            ProgramState(np.diag([0.5, 0.25]), np.diag([0.5, 0.25]))

    def test_block_shapes_must_match(self):
        with pytest.raises(LayoutError):
            ProgramState(np.diag([0.5, 0.25]), np.array([[0.25]]))

    def test_real_densities_give_float64_blocks(self, rng):
        k = random_density(rng, 3, real=True)
        l = random_density(rng, 3, real=True)
        states = [term_state(k, "k"), term_state(k, "kk"), term_state(k, "klk", l)]
        for ps in states + [mix_program_states([(1.0, ps) for ps in states])]:
            assert ps.rho0.dtype == np.float64 and ps.rho1.dtype == np.float64


class TestProgramStates:
    def test_klk_identity_kernel(self, rng):
        m = 3
        k = maximally_mixed(m)
        l = random_density(rng, m, real=True)
        ps = term_state(k, "klk", l)
        assert np.max(np.abs(ps.generator - l.matrix / m**2)) < 1e-12

    def test_klk_diagonal(self):
        k = DensityMatrix(np.diag([0.75, 0.25]))
        l = DensityMatrix(np.diag([0.4, 0.6]))
        ps = term_state(k, "klk", l)
        expected = k.matrix @ l.matrix @ k.matrix
        assert np.max(np.abs(ps.generator - expected)) < 1e-12

    def test_klk_random_hermitian_pairs(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            k, l = random_density(rng, d), random_density(rng, d)
            ps = term_state(k, "klk", l)
            target = 0.5 * (
                k.matrix.conj().T @ l.matrix @ k.matrix
                + k.matrix @ l.matrix @ k.matrix.conj().T
            )
            assert np.max(np.abs(ps.generator - target)) < 1e-10
            assert np.trace(ps.rho0 + ps.rho1).real == pytest.approx(1.0, abs=1e-10)

    def test_kk_identity_kernel(self):
        m = 4
        ps = term_state(maximally_mixed(m), "kk")
        assert np.max(np.abs(ps.generator - np.eye(m) / m**2)) < 1e-12

    def test_kk_diagonal(self):
        k = DensityMatrix(np.diag([0.75, 0.25]))
        ps = term_state(k, "kk")
        assert np.allclose(ps.generator, np.diag([0.75**2, 0.25**2]), atol=1e-12)

    def test_kk_random(self, rng):
        k = random_density(rng, 3)
        ps = term_state(k, "kk")
        assert np.max(np.abs(ps.generator - k.matrix @ k.matrix)) < 1e-10

    def test_k_embedding_blocks(self, rng):
        k = random_density(rng, 3)
        ps = term_state(k, "k")
        assert np.array_equal(ps.rho0, k.matrix)
        assert not ps.rho1.any()
        assert np.trace(ps.rho0 + ps.rho1).real == pytest.approx(1.0, abs=1e-12)

    def test_k_channel_equals_lmr(self, rng):
        k, sigma = random_density(rng, 3), random_density(rng, 3)
        ps = term_state(k, "k")
        for dt in (0.0, 0.1, -0.2):
            assert np.max(np.abs(
                glmr_step(ps, sigma, dt).matrix - lmr_step(k, sigma, dt).matrix
            )) < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(LayoutError, match="K is 2, L is 3"):
            generator_terms(random_density(rng, 2), random_density(rng, 3))


class TestControlledPartialSwap:
    def test_zero_time_identity(self):
        assert np.allclose(controlled_partial_swap_evolution(0.0, 3), np.eye(18))

    def test_backward_branch_is_adjoint(self):
        u = controlled_partial_swap_evolution(0.37, 2)
        fwd = u[:4, :4]
        bwd = u[4:, 4:]
        assert np.allclose(bwd, fwd.conj().T)

    def test_unitarity(self, rng):
        dt = float(rng.uniform(-2, 2))
        u = controlled_partial_swap_evolution(dt, 3)
        assert np.max(np.abs(u @ u.conj().T - np.eye(18))) < 1e-12


class TestGlmrStep:
    def test_zero_time(self, rng):
        ps = term_state(random_density(rng, 2), "klk", random_density(rng, 2))
        sigma = random_density(rng, 2)
        assert np.allclose(glmr_step(ps, sigma, 0.0).matrix, sigma.matrix, atol=1e-14)

    def test_commuting_second_order(self):
        k = DensityMatrix(np.diag([0.6, 0.4]))
        l = DensityMatrix(np.diag([0.3, 0.7]))
        sigma = DensityMatrix(np.diag([0.9, 0.1]))
        ps = term_state(k, "klk", l)
        for dt in DT_SWEEP:
            err = np.linalg.norm(glmr_step(ps, sigma, dt).matrix - sigma.matrix)
            assert err <= 2.1 * dt**2

    def test_klk_second_order_slope(self, rng):
        ps = term_state(random_density(rng, 2), "klk", random_density(rng, 2))
        sigma = random_density(rng, 2)
        eig = hermitian_eig(ps.generator)
        errs = [
            np.linalg.norm(
                glmr_step(ps, sigma, dt).matrix - exact_conjugation(eig, sigma, dt).matrix
            )
            for dt in DT_SWEEP
        ]
        assert 1.8 <= _slope(errs) <= 2.2

    def test_outputs_are_densities(self, rng):
        # DensityMatrix construction re-validates trace/PSD on every step
        for term in ("k", "kk"):
            ps = term_state(random_density(rng, 3), term)
            sigma = random_pure_density(rng, 3)
            out = glmr_step(ps, sigma, 0.3)
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-8

    def test_dimension_mismatch(self, rng):
        ps = term_state(random_density(rng, 2), "k")
        with pytest.raises(LayoutError):
            glmr_step(ps, random_density(rng, 3), 0.1)


class TestMixtures:
    def test_weighted_generator(self, rng):
        k = random_density(rng, 3)
        l = random_density(rng, 3)
        sources = [
            (0.5, term_state(k, "k")),
            (1.0, term_state(k, "kk")),
            (0.5, term_state(k, "klk", l)),
        ]
        mix = mix_program_states(sources)
        expected = (
            0.5 * k.matrix
            + 1.0 * (k.matrix @ k.matrix)
            + 0.5 * (k.matrix @ l.matrix @ k.matrix)
        ) / 2.0
        assert np.max(np.abs(mix.generator - expected)) < 1e-10

    def test_weight_validation(self, rng):
        ps = term_state(random_density(rng, 2), "k")
        with pytest.raises(ParameterError):
            mix_program_states([])
        with pytest.raises(ParameterError):
            mix_program_states([(-1.0, ps)])

    @pytest.mark.parametrize("weights", [
        (0.0,), (float("nan"),), (float("inf"),), (1.0, float("-inf")), (1e308, 1e308),
    ], ids=["zero", "nan", "inf", "neg_inf", "overflowing_sum"])
    def test_weights_checked_before_arithmetic(self, rng, weights):
        # refused before any arithmetic: the suite's warning filter turns a
        # numpy RuntimeWarning into a failure
        ps = term_state(random_density(rng, 2), "k")
        with pytest.raises(ParameterError, match="weights"):
            mix_program_states([(w, ps) for w in weights])

    def test_mixture_invariant_under_weight_scale(self, rng):
        # the mixture depends on the weights only through w_i / sum_j w_j
        k = random_density(rng, 3)
        states = [term_state(k, "k"), term_state(k, "kk")]
        for scale in (5e-324, 1e-300, 1e300):
            mix = mix_program_states([(scale, ps) for ps in states])
            even = mix_program_states([(1.0, ps) for ps in states])
            assert np.max(np.abs(mix.rho0 - even.rho0)) < 1e-15
            assert np.max(np.abs(mix.rho1 - even.rho1)) < 1e-15


class TestSimulateEvolution:
    def test_zero_time_returns_input(self, rng):
        ps = term_state(random_density(rng, 2), "k")
        sigma = random_density(rng, 2)
        res = simulate_evolution([(1.0, ps)], sigma, EvolutionConfig(0.0))
        assert np.allclose(res.state.matrix, sigma.matrix)
        assert res.steps == 0

    def test_single_source_matches_repeated_lmr(self, rng):
        k = random_density(rng, 2)
        sigma = random_density(rng, 2)
        cfg = EvolutionConfig(total_time=0.2, steps=8)
        res = simulate_evolution([(1.0, term_state(k, "k"))], sigma, cfg)
        manual = sigma
        for _ in range(8):
            manual = lmr_step(k, manual, 0.2 / 8)
        assert np.max(np.abs(res.state.matrix - manual.matrix)) < 1e-10

    @pytest.mark.parametrize("kwargs", [
        dict(total_time=float("inf")),
        dict(total_time=float("-inf")),
        dict(total_time=float("nan")),
        dict(total_time=float("nan"), steps=3),
        dict(total_time=1.0, error_budget=float("inf")),
        dict(total_time=1.0, error_budget=float("nan")),
        dict(total_time=1e200, error_budget=1e-3),
        dict(total_time=1.0, error_budget=5e-324),
    ], ids=["inf_time", "neg_inf_time", "nan_time", "nan_time_with_steps", "inf_budget",
            "nan_budget", "overflowing_step_count", "subnormal_budget"])
    def test_non_finite_config_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            EvolutionConfig(**kwargs)

    @pytest.mark.parametrize("steps", [2.5, True, False, float("inf"), float("nan")])
    def test_non_integer_step_count_rejected(self, steps):
        with pytest.raises(ParameterError):
            EvolutionConfig(1.0, 1e-3, steps=steps)

    def test_integral_float_step_count_stored_as_int(self):
        cfg = EvolutionConfig(1.0, 1e-3, steps=3.0)
        assert cfg.steps == 3 and type(cfg.steps) is int
        assert type(cfg.resolved_steps()) is int

    def test_auto_step_count(self):
        cfg = EvolutionConfig(total_time=1.0, error_budget=1e-3)
        assert cfg.resolved_steps() == 1000
        assert EvolutionConfig(2.0, 0.01).resolved_steps() == 400

    def test_joint_evolution_fidelity(self, rng):
        m = 4
        k = random_density(rng, m, real=True)
        l = random_density(rng, m, real=True)
        sigma0 = random_density(rng, m, real=True)
        gamma = 1.0
        sources = [
            (1 / gamma, term_state(k, "k")),
            (1.0, term_state(k, "kk")),
            (1 / gamma, term_state(k, "klk", l)),
        ]
        res = simulate_evolution(sources, sigma0, EvolutionConfig(1.0, 1e-3))
        generator = mix_program_states(sources).generator
        expected_gen = (
            k.matrix / gamma + k.matrix @ k.matrix + k.matrix @ l.matrix @ k.matrix / gamma
        ) / (1 / gamma + 1.0 + 1 / gamma)
        assert np.max(np.abs(generator - expected_gen)) < 1e-10
        exact = exact_conjugation(hermitian_eig(generator), sigma0, 1.0)
        assert density_fidelity(res.state.matrix, exact.matrix) >= 0.999

    def test_doubling_steps_halves_error(self, rng):
        ps = term_state(random_density(rng, 3), "kk")
        sigma0 = random_pure_density(rng, 3)
        exact = exact_conjugation(hermitian_eig(ps.generator), sigma0, 1.0)
        errs = {}
        for n in (200, 400):
            res = simulate_evolution([(1.0, ps)], sigma0, EvolutionConfig(1.0, steps=n))
            errs[n] = np.linalg.norm(res.state.matrix - exact.matrix)
        assert 1.6 <= errs[200] / errs[400] <= 2.4

    def test_stochastic_mode_seeded(self, rng):
        k = random_density(rng, 2)
        l = random_density(rng, 2)
        sources = [(1.0, term_state(k, "k")), (1.0, term_state(k, "klk", l))]
        sigma0 = random_density(rng, 2)
        cfg = EvolutionConfig(0.5, steps=50)
        out1 = stepwise_simulate_evolution(sources, sigma0, cfg, rng=np.random.default_rng(5))
        out2 = stepwise_simulate_evolution(sources, sigma0, cfg, rng=np.random.default_rng(5))
        assert np.array_equal(out1.state.matrix, out2.state.matrix)
        # sampled trajectory still lands near the mixture target
        exact = exact_conjugation(hermitian_eig(mix_program_states(sources).generator), sigma0, 0.5)
        assert np.linalg.norm(out1.state.matrix - exact.matrix) < 0.2

    def test_supplied_decomposition(self, rng, eig_calls):
        # the mixture's step generator, decomposed by the caller, serves the
        # trajectory: the same state, and no decomposition inside
        k = random_density(rng, 4, real=True)
        sources = [(0.5, term_state(k, "k")), (1.5, term_state(k, "kk"))]
        eig = hermitian_eig(mix_program_states(sources).step_operators()[0])
        sigma0 = random_density(rng, 4)
        cfg = EvolutionConfig(1.0, steps=100)
        own = simulate_evolution(sources, sigma0, cfg)
        del eig_calls[:]
        supplied = simulate_evolution(sources, sigma0, cfg, eig)
        assert not [name for name, _ in eig_calls if name == "eigh"]
        assert np.array_equal(supplied.state.matrix, own.state.matrix)

    @pytest.mark.parametrize("wrong", ["other_matrix", "one_source", "shape", "not_orthonormal"])
    def test_wrong_decomposition_rejected(self, rng, wrong):
        k = random_density(rng, 4, real=True)
        sources = [(0.5, term_state(k, "k")), (1.5, term_state(k, "kk"))]
        eig = {
            "other_matrix": lambda: hermitian_eig(random_hermitian(rng, 4)),
            "one_source": lambda: hermitian_eig(sources[1][1].generator),
            "shape": lambda: hermitian_eig(random_hermitian(rng, 5)),
            "not_orthonormal": lambda: SpectralDecomposition(np.zeros(4), np.zeros((4, 4))),
        }[wrong]()
        with pytest.raises(ParameterError, match="decomposition"):
            simulate_evolution(sources, random_density(rng, 4), EvolutionConfig(1.0, steps=10), eig)

    def test_empty_sources(self, rng):
        with pytest.raises(ParameterError):
            simulate_evolution([], random_density(rng, 2), EvolutionConfig(1.0))
