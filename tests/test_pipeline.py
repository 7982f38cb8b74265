"""Tests for the orchestration layer: pipeline runs, benchmarks, the cost
model, and report emission."""

import json
import math
import tracemalloc

import jsonschema
import numpy as np
import pytest

from conftest import DATA, load_report, term_state
from qsslsvm import cli, pipeline
from qsslsvm.classical import KernelSpec, assemble_system
from qsslsvm.datasets import build_knn_graph, load_dataset
from qsslsvm.encodings import DensityMatrix, StateVector, kernel_density, laplacian_density
from qsslsvm.errors import (
    ConfigurationError,
    DegreeError,
    NumericalError,
    ParameterError,
    ParseError,
)
from qsslsvm.linalg import SpectralDecomposition
from qsslsvm.pipeline import (
    REPORT_SCHEMA,
    CostModelParams,
    RunConfig,
    bench_lmr,
    cost_model,
    emit_report,
    run_classical,
    run_pipeline,
)


@pytest.fixture(scope="module")
def cluster8_report():
    cfg = RunConfig(knn_k=2)
    return run_pipeline(cfg, DATA / "two_cluster_8.csv", DATA / "grid_20.csv")


@pytest.fixture
def readout_calls(monkeypatch) -> list[str]:
    """Name of every ``classify`` and ``predict`` call the pipeline makes
    while the test runs."""
    calls = []
    for name in ("classify", "predict"):
        original = getattr(pipeline, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.gamma == 1.0
        assert cfg.kernel.kind == "linear"
        assert cfg.sigma_thresh == 0.05
        assert cfg.clock_qubits == 8
        assert cfg.laplacian_kind == "normalized"

    def test_validation(self):
        with pytest.raises(ParameterError):
            RunConfig(gamma=0.0)
        with pytest.raises(ParameterError):
            RunConfig(sigma_thresh=-0.1)
        with pytest.raises(ParameterError):
            RunConfig(shots=-1)
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            RunConfig(seed=-1)
        with pytest.raises(ConfigurationError):
            RunConfig(clock_qubits=1)

    @pytest.mark.parametrize("shots", [2.5, float("nan"), float("inf")])
    def test_non_integral_shots_rejected(self, shots):
        with pytest.raises(ParameterError, match=f"shots must be an integer, got {shots}"):
            RunConfig(shots=shots)

    @pytest.mark.parametrize("name, value", [
        ("shots", True), ("shots", np.True_), ("seed", 1.5), ("seed", float("nan")),
        ("seed", True), ("seed", False),
    ])
    def test_bool_and_fractional_counts_rejected(self, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be an integer, got {value}$"):
            RunConfig(**{name: value})

    def test_integral_floats_are_stored_as_int(self):
        cfg = RunConfig(knn_k=2, shots=3.0, seed=5.0, clock_qubits=4.0)
        assert (cfg.shots, cfg.seed, cfg.clock_qubits) == (3, 5, 4)
        assert all(type(v) is int for v in (cfg.shots, cfg.seed, cfg.clock_qubits))
        report = run_pipeline(cfg, DATA / "two_cluster_8.csv")
        assert json.dumps(report["config"]["clock_qubits"]) == "4"


class TestRunPipeline:
    def test_fixture_fidelity_and_agreement(self, cluster8_report):
        report = cluster8_report
        assert report["quantum"]["solution_fidelity"] >= 0.99
        assert report["classification"]["agreement"] == 1.0
        assert report["quantum"]["multiply_fidelity"] >= 0.999
        assert 0.0 <= report["quantum"]["hhl_success_probability"] <= 1.0
        assert report["classification"]["test_point_count"] == 20

    def test_channel_slopes_in_range(self, cluster8_report):
        for slope in cluster8_report["lmr_slopes"].values():
            assert 1.8 <= slope <= 2.2

    def test_identical_matrix_checksums(self, cluster8_report):
        # the program-state mixture simulates the classical A/tr(A)
        assert 0.0 <= cluster8_report["quantum"]["a_hat_deviation"] <= 1e-12

    @pytest.mark.parametrize("clock_qubits", [4, 8, 10])
    def test_retained_eigenvalues_one_per_retained_eigenvalue(self, clock_qubits):
        # A/tr(A) of this fixture has eigenvalues 0.984 and 0.016, so q = 1 at
        # sigma = 0.05; the field once listed every clock bin above sigma
        cfg = RunConfig(knn_k=2, clock_qubits=clock_qubits)
        report = run_pipeline(cfg, DATA / "two_cluster_8.csv")
        training = load_dataset(DATA / "two_cluster_8.csv")
        a_hat = assemble_system(
            kernel_density(training).matrix,
            laplacian_density(build_knn_graph(training, 2)).matrix,
            training.labels, cfg.gamma,
        ).normalized_matrix()
        lam = np.sort(np.linalg.eigvalsh(a_hat))[::-1]
        kept = lam[lam >= cfg.sigma_thresh]
        retained = report["quantum"]["retained_eigenvalues"]
        assert len(retained) == len(kept) == 1
        assert all(v <= 1.0 for v in retained)
        # each estimate is within one clock bin (2 lam_max / T at t0 = pi / lam_max)
        assert np.max(np.abs(np.asarray(retained) - kept)) <= 2 * lam[0] / 2**clock_qubits

    def test_no_complex_eigh(self, eig_calls):
        # K, L, A/tr(A), the program-state blocks and the generators are real
        run_pipeline(RunConfig(knn_k=2), DATA / "two_cluster_8.csv", DATA / "grid_20.csv")
        run_classical(RunConfig(knn_k=2), DATA / "two_cluster_8.csv", DATA / "grid_20.csv")
        complex_calls = [np.iscomplexobj(a) for name, a in eig_calls if name == "eigh"]
        assert complex_calls and not any(complex_calls)

    def test_only_real_validations(self, eig_calls):
        # the slope diagnostic builds no complex density to validate, and K,
        # L, the program states and their mixture are PSD by construction:
        # no validation is left
        run_pipeline(RunConfig(knn_k=2), DATA / "two_cluster_8.csv", DATA / "grid_20.csv")
        assert not [name for name, a in eig_calls if np.iscomplexobj(a)]
        assert sum(name == "eigvalsh" for name, _ in eig_calls) == 0

    def test_non_finite_one_step_error_is_numerical_error(self):
        ps = term_state(DensityMatrix(np.eye(3) / 3), "k")
        broken = SpectralDecomposition(np.full(3, np.nan), np.eye(3))
        probe = StateVector.normalized(np.ones(3))
        with pytest.raises(NumericalError, match=r"of the k channel at dt=0\.2 "):
            pipeline._one_step_errors("k", ps, broken, probe, (0.2, 0.1, 0.05))

    def test_one_decomposition_per_matrix(self, eig_calls):
        # A/tr(A) serves the classical solve, the inversion and the residual
        # projection; the generators K (also the multiply's matrix) and K L K
        # each serve every dt of the slope diagnostic, and K's decomposition
        # squared serves K K's
        run_pipeline(RunConfig(knn_k=2), DATA / "two_cluster_8.csv", DATA / "grid_20.csv")
        inputs = [a for name, a in eig_calls if name == "eigh"]
        assert len(inputs) == 3
        for i, a in enumerate(inputs):
            assert not any(a.shape == b.shape and np.array_equal(a, b) for b in inputs[:i])

    @pytest.mark.parametrize("runner, eigh, eigvalsh", [
        # the linear kernel's r x r core only: the built Laplacian is not re-checked
        (run_classical, 1, 0),
        # A/tr(A) and the K and K L K generators (K K's spectrum is K's,
        # squared); nothing built is re-checked
        (run_pipeline, 3, 0),
        # the K and K L K generators; the checks left are of the probe state,
        # the 6 trajectory outputs and the 3 exact conjugations
        (bench_lmr, 2, 10),
    ])
    def test_decomposition_counts(self, eig_calls, runner, eigh, eigvalsh):
        testset = () if runner is bench_lmr else (DATA / "grid_20.csv",)
        runner(RunConfig(knn_k=2), DATA / "two_cluster_8.csv", *testset)
        names = [name for name, _ in eig_calls]
        assert (names.count("eigh"), names.count("eigvalsh")) == (eigh, eigvalsh)

    @pytest.mark.parametrize("dataset, kernel, size", [
        ("mixed_20.csv", "linear", 3),  # the r x r core, r = p = 3
        ("mixed_20.csv", "poly:2,1", 10),  # r = C(p + 2, 2) = 10 = m/2
        ("two_cluster_8.csv", "poly:2,1", 8),  # r = C(4, 2) = 6 > m/2: A/tr(A), m x m
        ("mixed_20.csv", "rbf:1", 20),  # no feature map: A/tr(A), m x m
    ])
    def test_train_decomposition_sizes(self, eig_calls, dataset, kernel, size):
        cfg = RunConfig(knn_k=2, kernel=KernelSpec.parse(kernel))
        run_classical(cfg, DATA / dataset)
        assert [(name, a.shape) for name, a in eig_calls] == [("eigh", (size, size))]

    def test_perturbed_classical_system_is_numerical_error(self, monkeypatch):
        # the system's 1/gamma weight off by 1e-6 relative to the mixture's
        system = pipeline._system

        def perturbed(terms, y, gamma):
            return system(terms, y, gamma * (1.0 + 1e-6))

        monkeypatch.setattr(pipeline, "_system", perturbed)
        with pytest.raises(NumericalError, match=r"^\[program_states\]"):
            run_pipeline(RunConfig(knn_k=2), DATA / "two_cluster_8.csv")

    def test_edgeless_graph_rejected(self, tmp_path):
        graph = tmp_path / "empty.json"
        graph.write_text(json.dumps({"m": 8, "edges": []}))
        cfg = RunConfig(graph_path=str(graph))
        with pytest.raises(DegreeError):
            run_pipeline(cfg, DATA / "two_cluster_8.csv")

    def test_determinism_excluding_timings(self):
        cfg = RunConfig(knn_k=2, shots=64)
        docs = []
        for _ in range(2):
            report = run_pipeline(cfg, DATA / "two_cluster_8.csv", DATA / "grid_20.csv")
            report.pop("timings")
            docs.append(json.dumps(report, sort_keys=True))
        assert docs[0] == docs[1]

    def test_nonlinear_kernel_rejected(self):
        cfg = RunConfig(kernel=KernelSpec("rbf", width=0.5))
        with pytest.raises(ConfigurationError):
            run_pipeline(cfg, DATA / "two_cluster_8.csv")

    def test_combinatorial_kind_rejected(self):
        cfg = RunConfig(laplacian_kind="combinatorial")
        with pytest.raises(ConfigurationError):
            run_pipeline(cfg, DATA / "two_cluster_8.csv")

    def test_one_readout_call_for_all_points(self, readout_calls):
        run_pipeline(RunConfig(knn_k=2, shots=100), DATA / "two_cluster_8.csv",
                     DATA / "grid_20.csv")
        assert sorted(readout_calls) == ["classify", "predict"]

    def test_without_testset_uses_training_points(self):
        report = run_pipeline(RunConfig(knn_k=2), DATA / "two_cluster_8.csv")
        assert report["classification"]["test_point_count"] == 8
        assert report["classification"]["agreement"] == 1.0


class TestRunClassical:
    def test_train_report(self):
        cfg = RunConfig(knn_k=2, sigma_thresh=1e-9)
        report = run_classical(cfg, DATA / "two_cluster_8.csv", DATA / "grid_20.csv")
        assert report["kind"] == "train"
        assert report["residual"] <= 1e-8
        assert report["gradient_norm"] <= 1e-6
        labels = report["predictions"]["labels"]
        assert labels == [-1] * 10 + [1] * 10

    def test_one_predict_call_for_all_points(self, readout_calls):
        run_classical(RunConfig(knn_k=2), DATA / "two_cluster_8.csv", DATA / "grid_20.csv")
        assert readout_calls == ["predict"]

    def test_combinatorial_laplacian_allowed(self):
        cfg = RunConfig(knn_k=2, sigma_thresh=1e-9, laplacian_kind="combinatorial")
        report = run_classical(cfg, DATA / "two_cluster_8.csv")
        assert report["residual"] <= 1e-8

    def test_stage_error_keeps_type_and_line(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("f1,label\n1.0,1\n2.0,2\n")
        with pytest.raises(ParseError, match=r"^\[ingest\] line 3: ") as info:
            run_classical(RunConfig(), data)
        assert info.value.line == 3
        assert info.value.stage == "ingest"

    def test_rbf_kernel_allowed(self):
        cfg = RunConfig(knn_k=2, kernel=KernelSpec("rbf", width=1.0), sigma_thresh=1e-9)
        report = run_classical(cfg, DATA / "two_cluster_8.csv")
        assert report["residual"] <= 1e-6

    def test_factored_route_holds_no_m_by_m_array(self, tmp_path):
        """A linear ``train`` with 1024 test points forms neither the dense
        Laplacian nor the m x n kernel block: its traced peak stays below
        half of one m x m float64 array."""
        m, p = 1024, 8
        rng = np.random.default_rng(5)
        x = np.vstack([rng.normal(1.0, 1.0, (m // 2, p)), rng.normal(-1.0, 1.0, (m // 2, p))])
        y = np.zeros(m)
        y[::10] = np.where(x[::10, 0] >= 0, 1.0, -1.0)
        header = ",".join(f"f{i}" for i in range(p))
        data, points = tmp_path / "data.csv", tmp_path / "points.csv"
        np.savetxt(data, np.c_[x, y], delimiter=",", header=header + ",label", comments="")
        np.savetxt(points, rng.normal(size=(m, p)), delimiter=",", header=header, comments="")
        cfg = RunConfig(knn_k=5, kernel=KernelSpec("linear"))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = run_classical(cfg, data, points)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(report["predictions"]["labels"]) == m
        assert peak < m * m * 8 / 2


class TestBenchLmr:
    def test_slopes_and_halving(self):
        cfg = RunConfig(knn_k=1, delta=1e-2)
        report = bench_lmr(cfg, DATA / "two_cluster_4.csv")
        for name in ("k", "kk", "klk"):
            assert 1.8 <= report["slopes"][name] <= 2.2
            assert 1.6 <= report["trajectory"][name]["halving_ratio"] <= 2.4

    def test_short_dt_sweep_rejected(self):
        cfg = RunConfig(knn_k=1)
        with pytest.raises(ParameterError):
            bench_lmr(cfg, DATA / "two_cluster_4.csv", dts=(0.2, 0.1))

    def test_one_decomposition_per_generator(self, eig_calls):
        # 3 generators, each decomposition serving its dt sweep, its exact
        # final state and both trajectories (n and 2n steps), which are
        # handed it; K K's is K's, squared
        bench_lmr(RunConfig(knn_k=2), DATA / "two_cluster_8.csv")
        inputs = [a for name, a in eig_calls if name == "eigh"]
        assert len(inputs) == 2
        assert not np.array_equal(inputs[0], inputs[1])


class TestCostModel:
    def test_full_rank_regime(self):
        out = cost_model(CostModelParams(m=64, p=8, q=64, epsilon=0.5))
        assert out["regime"] == "full_rank"
        assert out["quantum_cost"] == pytest.approx(64**3 * 0.5**-3 * math.log(64 * 8))
        assert out["dequantized_cost"] == pytest.approx(64**9 * 0.5**-6)

    def test_constant_rank_regime(self):
        out = cost_model(CostModelParams(m=4096, p=8, q=1, epsilon=0.25))
        assert out["regime"] == "constant_rank"
        assert out["quantum_cost"] == pytest.approx(0.25**-3 * math.log(4096 * 8))
        assert out["dequantized_cost"] == pytest.approx(0.25**-6)

    def test_slow_growth_regime(self):
        out = cost_model(CostModelParams(m=4096, p=8, q=4, epsilon=0.5))
        assert out["regime"] == "slow_growth"
        # q = m^(1/6): quantum scales as sqrt(m), dequantized as m^(3/2)
        assert out["quantum_cost"] == pytest.approx(
            math.sqrt(4096) * 0.5**-3 * math.log(4096 * 8)
        )
        assert out["dequantized_cost"] == pytest.approx(4096**1.5 * 0.5**-6)

    def test_exponent_ratios(self):
        # log factors cancel in the dequantized ratio, leaving the pure power
        hi = cost_model(CostModelParams(m=4096, p=8, q=4096, epsilon=0.5))
        lo = cost_model(CostModelParams(m=64, p=8, q=64, epsilon=0.5))
        assert hi["dequantized_cost"] / lo["dequantized_cost"] == pytest.approx(64.0**9)

    def test_eta_and_delta_factors(self):
        base = cost_model(CostModelParams(m=64, p=4, q=2, epsilon=0.5))
        scaled = cost_model(CostModelParams(m=64, p=4, q=2, epsilon=0.5, eta=2.0))
        assert scaled["dequantized_cost"] / base["dequantized_cost"] == pytest.approx(2.0**6)
        small_fail = cost_model(
            CostModelParams(m=64, p=4, q=2, epsilon=0.5, delta_fail=math.exp(-2))
        )
        assert small_fail["dequantized_cost"] / base["dequantized_cost"] == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            CostModelParams(m=4, p=2, q=5, epsilon=0.5)
        with pytest.raises(ParameterError):
            CostModelParams(m=4, p=2, q=2, epsilon=1.5)


class TestEmitReport:
    def test_round_trip(self, cluster8_report, tmp_path):
        path = emit_report(cluster8_report, tmp_path / "report.json")
        doc = load_report(path)
        assert doc == cluster8_report

    def test_missing_directory_is_io_error(self, cluster8_report, tmp_path):
        with pytest.raises(OSError):
            emit_report(cluster8_report, tmp_path / "no_such_dir" / "report.json")

    def test_schema_validation(self, cluster8_report):
        jsonschema.validate(cluster8_report, REPORT_SCHEMA)

    def test_schema_is_valid_draft7(self):
        jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)

    def test_invalid_report_rejected(self):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"kind": "simulate"}, REPORT_SCHEMA)

    def test_every_simulate_report_is_validated(self, monkeypatch):
        # the suite's run_pipeline, also behind the CLI, checks each report
        # against the schema that emit_report no longer checks at run time
        assert cli.run_pipeline is run_pipeline is not run_pipeline.__wrapped__
        schema = {**REPORT_SCHEMA, "required": [*REPORT_SCHEMA["required"], "absent"]}
        monkeypatch.setattr(pipeline, "REPORT_SCHEMA", schema)
        with pytest.raises(jsonschema.ValidationError, match="'absent' is a required"):
            run_pipeline(RunConfig(knn_k=1), DATA / "two_cluster_4.csv")

    def test_file_is_one_serialization(self, cluster8_report, tmp_path):
        path = emit_report(cluster8_report, tmp_path / "report.json")
        assert path.read_bytes() == (json.dumps(cluster8_report, indent=2) + "\n").encode()

    def test_stable_key_order(self, cluster8_report, tmp_path):
        p1 = emit_report(cluster8_report, tmp_path / "a.json")
        p2 = emit_report(cluster8_report, tmp_path / "b.json")
        assert p1.read_text() == p2.read_text()
