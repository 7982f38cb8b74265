"""Command-line interface tests (exit codes and report output)."""

import gc
import json
import math
import warnings

import numpy as np
import pytest

from conftest import DATA
from qsslsvm import pipeline
from qsslsvm.cli import main
from qsslsvm.errors import NumericalError

DATASET8 = str(DATA / "two_cluster_8.csv")
DATASET4 = str(DATA / "two_cluster_4.csv")
GRID = str(DATA / "grid_20.csv")


def _two_cluster_csv(path, m: int, seed: int) -> str:
    """m points around (+-1, +-1), a quarter of them labeled."""
    rng = np.random.default_rng(seed)
    side = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    x = side[:, None] + 0.3 * rng.normal(size=(m, 2))
    labels = np.where(np.arange(m) < max(2, m // 4), side, 0.0)
    rows = ["f1,f2,label"] + [f"{a:.6f},{b:.6f},{int(l)}" for (a, b), l in zip(x, labels)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["train", "simulate"])
def test_binary_dataset_is_input_error(tmp_path, capsys, command):
    data = tmp_path / "binary.csv"
    data.write_bytes(b"f1,label\n\xff\xfe\x00\x81,1\n")
    assert main([command, str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [ingest] ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "simulate"])
def test_feature_squares_overflow_is_input_error(tmp_path, capsys, command):
    # 1e200 is finite, its square is not: rejected at ingest before any
    # distance, kernel or density computation can warn
    data = tmp_path / "big.csv"
    data.write_text("f1,f2,label\n1e200,1,1\n0,1,-1\n1,0,0\n2,1,0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(data), "--knn", "1"]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == "error: [ingest] line 2: sum of squared features overflows float64\n"


@pytest.mark.parametrize("big, argv, message", [
    # every row's squared norm is finite, so ingest accepts the file; the
    # pairwise distances, the kernel entries' sums and the density's
    # normalization are not
    ("1e154", ["train", "--knn", "1"], "[train] float64 overflow in the kernel matrix"),
    ("1e154", ["train", "--graph"], "[train] float64 overflow in the kernel matrix"),
    ("1e154", ["simulate", "--graph"], "[encode_kernel] float64 overflow in the kernel density"),
    ("1e154", ["simulate", "--knn", "1"], "[encode_kernel] float64 overflow in the kernel density"),
    # the kernel entries are finite, the products K K and K L K are not
    ("1e100", ["train", "--knn", "1"], "[train] float64 overflow in the system matrix"),
], ids=["train-knn", "train-graph", "simulate-graph", "simulate-knn", "train-system"])
def test_overflow_is_one_numerical_error_line(tmp_path, capsys, big, argv, message):
    data = tmp_path / "wide.csv"
    data.write_text(f"f1,f2,label\n{big},0,1\n-{big},0,-1\n1,0,0\n2,1,0\n")
    graph = tmp_path / "path.json"
    graph.write_text('{"m": 4, "edges": [[0, 1], [1, 2], [2, 3]]}')
    flags = argv[1:] + ([str(graph)] if argv[-1] == "--graph" else [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([argv[0], str(data), *flags]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"numerical error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["bench", DATASET4, "--knn", "1", "--delta", "1e-2"],
    ["simulate", DATASET8, "--knn", "2"],
], ids=lambda argv: argv[0])
def test_run_leaves_no_cyclic_garbage(capsys, argv):
    # cyclic garbage waits for the collector, so a run that leaves some has
    # a memory peak that depends on when the collector happens to run
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("m", ["1e400", "1e300"])
def test_huge_graph_vertex_count_is_input_error(tmp_path, capsys, m):
    graph = tmp_path / "g.json"
    graph.write_text(f'{{"m": {m}, "edges": []}}')
    assert main(["simulate", DATASET4, "--graph", str(graph)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [graph] ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "simulate"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_test_point_is_input_error(tmp_path, capsys, command, value):
    points = tmp_path / "pts.csv"
    points.write_text(f"f1,f2\n1.0,2.0\n{value},0.5\n")
    out_path = tmp_path / "report.json"
    assert main([command, DATASET8, "--knn", "2", "--testset", str(points),
                 "--report", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"line 3: non-finite field: '{value}'" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["train", "simulate"])
@pytest.mark.parametrize("content, code, message", [
    ("f1,f2\n1.0,2.0\ninf,0.5\n", 2, "line 3: non-finite field: 'inf'"),
    ("f1,f2,f3\n1.0,2.0,3.0\n", 2, "test points have 3 features, dataset has 2"),
    (None, 4, "No such file"),
], ids=["non_finite", "wrong_width", "missing"])
def test_bad_testset_fails_before_training(tmp_path, capsys, monkeypatch, command,
                                           content, code, message):
    def no_training(*args, **kwargs):
        raise AssertionError("a training stage ran")

    monkeypatch.setattr(pipeline, "solve_classical", no_training)
    monkeypatch.setattr(pipeline, "build_knn_graph", no_training)
    points = tmp_path / "pts.csv"
    if content is not None:
        points.write_text(content)
    assert main([command, DATASET8, "--knn", "2", "--testset", str(points)]) == code
    err = capsys.readouterr().err
    assert "[testset] " in err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("row", ["0,0", "-0.0,0", "1e-200,0"])
def test_zero_test_point_fails_simulate_before_training(tmp_path, capsys, monkeypatch, row):
    # the readout cannot encode a point whose squared norm is 0 in float64;
    # the classical predictor scores it like any other point
    points = tmp_path / "pts.csv"
    points.write_text(f"f1,f2\n1,2\n{row}\n")
    assert main(["train", DATASET8, "--knn", "2", "--testset", str(points)]) == 0

    def no_training(*args, **kwargs):
        raise AssertionError("a training stage ran")

    monkeypatch.setattr(pipeline, "solve_classical", no_training)
    monkeypatch.setattr(pipeline, "build_knn_graph", no_training)
    capsys.readouterr()
    assert main(["simulate", DATASET8, "--knn", "2", "--testset", str(points)]) == 2
    assert capsys.readouterr().err == (
        "error: [testset] line 3: point has zero norm and cannot be encoded as a state\n")


def test_prediction_overflow_names_its_stage(tmp_path, capsys):
    points = tmp_path / "pts.csv"
    points.write_text("f1,f2\n1,2\n1e100,0\n")
    assert main(["train", DATASET8, "--knn", "2", "--kernel", "poly:4,1",
                 "--testset", str(points)]) == 3
    assert capsys.readouterr().err == (
        "numerical error: [predict] float64 overflow in the kernel scores\n")


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_negative_seed_is_input_error_before_ingest(capsys, command):
    # the dataset does not exist: an ingest attempt would exit 4
    assert main([command, "/no/such/file.csv", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


class TestTrain:
    def test_success(self, capsys):
        code = main(["train", DATASET8, "--knn", "2", "--sigma-thresh", "1e-9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "residual" in out

    def test_testset_and_report(self, tmp_path, capsys):
        out_path = tmp_path / "train.json"
        code = main([
            "train", DATASET8, "--knn", "2", "--sigma-thresh", "1e-9",
            "--testset", GRID, "--report", str(out_path),
        ])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "train"
        assert len(doc["predictions"]["labels"]) == 20
        assert list(doc["timings"]) == ["ingest", "testset", "graph", "laplacian", "train",
                                        "predict"]

    def test_empty_dataset_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert main(["train", str(data)]) == 2
        assert capsys.readouterr().err.startswith("error: [ingest] ")

    # at width 1e-300, 2 width^2 underflows to 0 and K is the identity
    @pytest.mark.parametrize("kernel", ["rbf:1.0", "rbf:1e-300"])
    def test_rbf_kernel(self, kernel):
        assert main(["train", DATASET8, "--knn", "2", "--kernel", kernel,
                     "--sigma-thresh", "1e-9"]) == 0

    @pytest.mark.parametrize("kernel, message", [
        ("poly:2,nan", "polynomial offset must be finite, got nan"),
        ("poly:2,inf", "polynomial offset must be finite, got inf"),
        ("rbf:nan", "rbf width must be finite and positive, got nan"),
        ("rbf:inf", "rbf width must be finite and positive, got inf"),
        ("poly:0,1", "polynomial degree must be an integer >= 1, got 0"),
        ("rbf:-1", "rbf width must be finite and positive, got -1.0"),
        ("poly:two,1", "bad kernel arguments in 'poly:two,1'"),
    ])
    def test_kernel_parameter_is_input_error(self, capsys, kernel, message):
        assert main(["train", DATASET8, "--knn", "2", "--kernel", kernel]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSimulate:
    def test_success_with_report(self, tmp_path, capsys):
        out_path = tmp_path / "sim.json"
        code = main([
            "simulate", DATASET8, "--knn", "2", "--testset", GRID,
            "--report", str(out_path),
        ])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "simulate"
        assert doc["classification"]["agreement"] == 1.0
        assert doc["quantum"]["solution_fidelity"] >= 0.99

    @pytest.mark.parametrize("m", [13, 16])
    def test_above_twelve_samples(self, tmp_path, m):
        out_path = tmp_path / "sim.json"
        data = _two_cluster_csv(tmp_path / "data.csv", m, seed=m)
        assert main(["simulate", data, "--report", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["dataset"]["m"] == m
        for slope in doc["lmr_slopes"].values():
            assert 1.8 <= slope <= 2.2

    def test_graph_file_flag(self, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({
            "m": 4, "edges": [[0, 2], [1, 3]],
        }))
        code = main(["simulate", DATASET4, "--graph", str(graph)])
        assert code == 0

    def test_oversize_clock_is_input_error(self, capsys):
        assert main(["simulate", DATASET8, "--clock-qubits", "13"]) == 2
        assert "clock_qubits must be in [2, 12]" in capsys.readouterr().err

    def test_nonlinear_kernel_is_input_error(self):
        assert main(["simulate", DATASET8, "--kernel", "rbf:0.5"]) == 2

    def test_unknown_kernel_is_input_error(self):
        assert main(["train", DATASET8, "--kernel", "cubic"]) == 2

    def test_all_filtered_is_numerical_error(self):
        assert main(["simulate", DATASET8, "--knn", "2", "--sigma-thresh", "0.999"]) == 3

    @pytest.mark.parametrize("gamma", ["1e-200", "1e-300"])
    def test_tiny_gamma(self, tmp_path, capsys, gamma):
        # alpha is ~gamma, finite and nonzero, but its squares underflow: its
        # unit vector is taken from alpha / max|alpha_i|
        out_path = tmp_path / "sim.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", DATASET8, "--knn", "2", "--gamma", gamma,
                         "--report", str(out_path)]) == 0
        assert [str(w.message) for w in caught] == []
        doc = json.loads(out_path.read_text())
        assert doc["quantum"]["solution_fidelity"] >= 0.99
        assert doc["classification"]["agreement"] == 1.0

    def test_subnormal_gamma_overflows_the_system_matrix(self, capsys):
        # K/gamma overflows: one error line from the guard, no NaN or Inf
        # reaching a later check
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", DATASET8, "--knn", "2", "--gamma", "1e-310"]) == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "numerical error: [classical] float64 overflow in the system matrix\n")

    def test_missing_file_is_io_error(self, capsys):
        assert main(["simulate", "/no/such/file.csv"]) == 4
        assert capsys.readouterr().err.startswith("i/o error: [ingest] ")

    def test_report_to_missing_dir_is_io_error(self, tmp_path):
        assert main([
            "simulate", DATASET8, "--knn", "2",
            "--report", str(tmp_path / "missing" / "x.json"),
        ]) == 4


class TestBench:
    def test_success(self, capsys):
        code = main(["bench", DATASET4, "--knn", "1", "--delta", "1e-2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slope" in out

    def test_report_times_every_stage(self, tmp_path):
        out_path = tmp_path / "bench.json"
        assert main(["bench", DATASET8, "--knn", "2", "--delta", "1e-2",
                     "--report", str(out_path)]) == 0
        assert list(json.loads(out_path.read_text())["timings"]) == [
            "ingest", "graph", "encode_kernel", "encode_laplacian", "program_states",
            "bench", "trajectory"]

    def test_trajectory_error_names_its_stage(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise NumericalError("injected")

        monkeypatch.setattr(pipeline, "simulate_evolution", failing)
        assert main(["bench", DATASET8, "--knn", "2", "--delta", "1e-2"]) == 3
        assert capsys.readouterr().err == "numerical error: [trajectory] injected\n"

    def test_short_dt_list_is_input_error(self):
        assert main(["bench", DATASET4, "--knn", "1", "--dt", "0.2,0.1"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--dt", "abc"],
        ["--dt", "0.2,0.1,-0.05"],
        ["--dt", "0.2,nan,0.05"],
        ["--dt", "0.1,0.1,0.1"],
        ["--time", "nan"],
        ["--time", "inf"],
        ["--time", "0"],
        ["--delta", "inf"],
        ["--gamma", "inf"],
        ["--sigma-thresh", "inf"],
    ], ids=lambda flags: "=".join(flags))
    def test_bad_sweep_or_time_is_input_error_before_ingest(self, capsys, flags):
        # the dataset does not exist: an ingest attempt would exit 4
        assert main(["bench", "/no/such/file.csv", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "[ingest]" not in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("flags", [
        ["--time", "1e200"],
        ["--time", "1e5", "--delta", "1e-300"],
    ], ids=lambda flags: "=".join(flags))
    def test_step_count_overflow_is_input_error(self, capsys, flags):
        # t^2 / delta is not finite in float64, so no step count exists
        assert main(["bench", DATASET8, "--knn", "2", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t^2 / delta overflows")
        assert "Traceback" not in err


class TestCostModel:
    def test_success(self, capsys):
        code = main(["costmodel", "--m", "4096", "--p", "8", "--q", "4",
                     "--epsilon", "0.5"])
        assert code == 0
        assert "slow_growth" in capsys.readouterr().out

    def test_bad_rank_is_input_error(self):
        assert main(["costmodel", "--m", "4", "--p", "2", "--q", "9",
                     "--epsilon", "0.5"]) == 2

    @pytest.mark.parametrize("flags, code, message", [
        (["--epsilon", "1e-300"], 3, "numerical error: cost exceeds the float64 range"),
        (["--eta", "1e60"], 3, "numerical error: cost exceeds the float64 range"),
        (["--m", str(10**41), "--q", str(10**41)], 3,
         "numerical error: cost exceeds the float64 range"),
        (["--eta", "inf"], 2, "error: eta must be finite and positive"),
    ])
    def test_cost_past_float64_is_an_error(self, tmp_path, capsys, flags, code, message):
        # each once ended in an OverflowError traceback or an Infinity report
        out = tmp_path / "cost.json"
        argv = ["costmodel", "--m", "100", "--p", "4", "--q", "10", "--epsilon", "0.1"]
        assert main(argv + flags + ["--report", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err
        assert not out.exists()

    def test_subnormal_failure_probability_is_finite(self, tmp_path):
        # log(1/delta) overflowed to inf at delta = 1e-320; -log(delta) does not
        out = tmp_path / "cost.json"
        assert main(["costmodel", "--m", "100", "--p", "4", "--q", "10", "--epsilon", "0.1",
                     "--delta-fail", "1e-320", "--report", str(out)]) == 0
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text
        expected = 10.0**9 * 0.1**-6 * (-math.log(1e-320)) ** 3
        assert json.loads(text)["dequantized_cost"] == pytest.approx(expected, rel=1e-12)
