"""Tests for dataset loading, graph construction, and Laplacians."""

import io
import json

import numpy as np
import pytest

from conftest import DATA, knn_edges_by_sort, random_connected_graph
from dilation import incidence_matrix
from qsslsvm.datasets import (
    LaplacianMatrix,
    SampleGraph,
    TrainingSet,
    build_knn_graph,
    combinatorial_laplacian,
    load_dataset,
    load_graph,
    load_points,
    normalized_laplacian,
)
from qsslsvm.errors import DegreeError, ParameterError, ParseError


class TestLoadDataset:
    def test_three_rows(self):
        ts = load_dataset(io.StringIO("f1,label\n1.0,1\n2.0,-1\n3.0,0\n"))
        assert ts.sample_count == 3
        assert ts.labeled_count == 2
        assert np.array_equal(ts.labels, [1.0, -1.0, 0.0])

    def test_unlabeled_rows_moved_after_labeled(self):
        text = "f1,label\n1.0,0\n2.0,1\n3.0,0\n4.0,-1\n"
        ts = load_dataset(io.StringIO(text))
        assert np.array_equal(ts.labels, [1.0, -1.0, 0.0, 0.0])
        # stable order inside each block
        assert np.array_equal(ts.features.reshape(-1), [2.0, 4.0, 1.0, 3.0])

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_dataset(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(ParseError):
            load_dataset(io.StringIO("f1,f2,label\n"))

    def test_bad_label_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(io.StringIO("f1,label\n1.0,1\n2.0,2\n"))

    def test_non_numeric_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(io.StringIO("f1,label\nxyz,1\n"))

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(io.StringIO("f1,f2,label\n1.0,1\n"))

    def test_no_labeled_rows(self):
        with pytest.raises(ParseError):
            load_dataset(io.StringIO("f1,label\n1.0,0\n2.0,0\n"))

    def test_missing_label_header(self):
        with pytest.raises(ParseError):
            load_dataset(io.StringIO("f1,f2\n1.0,2.0\n"))

    def test_twenty_row_fixture(self):
        # independent label count straight from the file text
        text = (DATA / "mixed_20.csv").read_text()
        labels = [line.rsplit(",", 1)[1] for line in text.strip().splitlines()[1:]]
        expected_labeled = sum(1 for l in labels if l != "0")
        ts = load_dataset(DATA / "mixed_20.csv")
        assert ts.sample_count == 20
        assert ts.feature_count == 3
        assert ts.labeled_count == expected_labeled

    @pytest.mark.parametrize("value", ["inf", "-Infinity", "nan"])
    def test_non_finite_feature_reports_line(self, value):
        with pytest.raises(ParseError, match="line 3: non-finite field"):
            load_dataset(io.StringIO(f"f1,f2,label\n1.0,2.0,1\n{value},2.0,0\n"))

    @pytest.mark.parametrize("row", ["1e200,1.0,0", "1e154,1e154,0"])
    def test_overflowing_squared_norm_reports_line(self, row):
        with pytest.raises(ParseError, match="line 3: sum of squared features overflows"):
            load_dataset(io.StringIO(f"f1,f2,label\n1.0,2.0,1\n{row}\n"))

    def test_largest_finite_squared_norm_accepted(self):
        ts = load_dataset(io.StringIO("f1,f2,label\n1e154,1e153,1\n"))
        assert ts.features[0, 0] == 1e154

    @pytest.mark.parametrize("delim", [";", "\t", " "])
    def test_other_delimiters(self, delim):
        text = delim.join(["f1", "f2", "label"]) + "\n" + delim.join(["1.0", "2.0", "1"]) + "\n"
        ts = load_dataset(io.StringIO(text))
        assert ts.sample_count == 1
        assert np.array_equal(ts.features, [[1.0, 2.0]])


class TestLoadPoints:
    def test_grid_fixture(self):
        pts = load_points(DATA / "grid_20.csv")
        assert pts.shape == (20, 2)

    def test_label_column_optional(self):
        pts = load_points(io.StringIO("f1,f2\n1.0,2.0\n3.0,4.0\n"))
        assert pts.shape == (2, 2)
        assert np.array_equal(pts, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_feature_reports_line(self, value):
        with pytest.raises(ParseError, match="line 2: non-finite field"):
            load_points(io.StringIO(f"f1,f2,label\n{value},2.0,1\n"))

    def test_overflowing_squared_norm_reports_line(self):
        with pytest.raises(ParseError, match="line 3: sum of squared features overflows"):
            load_points(io.StringIO("f1,f2\n1.0,2.0\n-1e200,2.0\n"))

    def test_label_column_ignored(self):
        pts = load_points(io.StringIO("f1,label\n1.0,nan\n"))
        assert np.array_equal(pts, [[1.0]])


class TestTrainingSet:
    def test_invariants(self):
        with pytest.raises(ParameterError):
            TrainingSet(np.ones((2, 1)), np.array([0.0, 1.0]), 1)  # zero in labeled block
        with pytest.raises(ParameterError):
            TrainingSet(np.ones((2, 1)), np.array([1.0, 1.0]), 1)  # nonzero in unlabeled
        with pytest.raises(ParameterError):
            TrainingSet(np.ones((2, 1)), np.array([0.0, 0.0]), 0)  # l < 1
        with pytest.raises(ParseError):
            TrainingSet(np.ones((2, 1)), np.array([1.0, 0.5]), 2)  # label outside set


class TestSampleGraph:
    def test_dedup_and_ordering(self):
        g = SampleGraph(3, ((2, 1), (0, 1), (1, 2)))
        assert g.edges == ((0, 1), (1, 2))
        assert np.array_equal(g.degrees, [1, 2, 1])

    def test_rejects_self_loop(self):
        with pytest.raises(ParameterError):
            SampleGraph(2, ((0, 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            SampleGraph(2, ((0, 2),))

    def test_rejects_isolated_vertex(self):
        with pytest.raises(DegreeError):
            SampleGraph(3, ((0, 1),))
        with pytest.raises(DegreeError):
            SampleGraph(4, ())
        # rejected before a degree array of that length is allocated
        with pytest.raises(DegreeError):
            SampleGraph(10**300, ((0, 1),))


class TestLoadGraph:
    def test_round_trip(self, tmp_path):
        doc = {"m": 3, "edges": [[0, 1], [1, 2]]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        g = load_graph(path)
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            load_graph(io.StringIO("{not json"))

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            load_graph(io.StringIO('{"edges": []}'))

    def test_bad_edge_entries(self):
        with pytest.raises(ParseError):
            load_graph(io.StringIO('{"m": 2, "edges": [[0]]}'))

    @pytest.mark.parametrize("doc", ['{"m": 2.7, "edges": [[0, 1]]}',
                                     '{"m": 2, "edges": [[0.9, 1.2]]}'])
    def test_fractional_values(self, doc):
        with pytest.raises(ParseError):
            load_graph(io.StringIO(doc))

    @pytest.mark.parametrize("m", ["1e400", "Infinity", "NaN"])
    def test_non_finite_vertex_count(self, m):
        with pytest.raises(ParseError):
            load_graph(io.StringIO(f'{{"m": {m}, "edges": []}}'))


class TestKnnGraph:
    def test_collinear_points(self):
        ts = TrainingSet(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 0.0, 0.0]), 1)
        g = build_knn_graph(ts, 1)
        assert g.edges == ((0, 1), (1, 2))

    def test_complete_graph(self, rng):
        x = rng.normal(size=(5, 2))
        ts = TrainingSet(x, np.array([1.0, -1.0, 0.0, 0.0, 0.0]), 2)
        g = build_knn_graph(ts, 4)
        assert g.edge_count == 10

    def test_two_cluster_matches_bruteforce(self, cluster8):
        g = build_knn_graph(cluster8, 2)
        # exhaustive distance ranking with index tie-break
        x = cluster8.features
        expected = set()
        for i in range(8):
            ranked = sorted(
                (float(np.linalg.norm(x[i] - x[j])), j) for j in range(8) if j != i
            )
            for _, j in ranked[:2]:
                expected.add((min(i, j), max(i, j)))
        assert set(g.edges) == expected
        assert np.all(g.degrees >= 2)

    def test_matches_sort_oracle_on_ties(self):
        # small integer coordinates give many equal distances and duplicate
        # points; huge coordinates make distances overflow to inf
        rng = np.random.default_rng(7)
        for trial in range(300):
            m = int(rng.integers(2, 13))
            x = rng.integers(0, 3, size=(m, int(rng.integers(1, 4)))).astype(np.float64)
            if trial % 10 == 0:
                x[rng.integers(0, m)] = 1e200 * rng.choice([-1.0, 1.0], size=x.shape[1])
            k = int(rng.integers(1, m))
            ts = TrainingSet(x, np.r_[1.0, np.zeros(m - 1)], 1)
            with np.errstate(over="ignore"):
                assert build_knn_graph(ts, k).edges == knn_edges_by_sort(x, k)

    def test_matches_sort_oracle_on_grid(self):
        x = load_points(DATA / "grid_20.csv")
        ts = TrainingSet(x, np.r_[1.0, np.zeros(len(x) - 1)], 1)
        for k in (1, 2, 3, 5, 19):
            assert build_knn_graph(ts, k).edges == knn_edges_by_sort(x, k)

    def test_deterministic(self, cluster8):
        assert build_knn_graph(cluster8, 2) == build_knn_graph(cluster8, 2)

    def test_k_out_of_range(self, cluster8):
        with pytest.raises(ParameterError):
            build_knn_graph(cluster8, 8)
        with pytest.raises(ParameterError):
            build_knn_graph(cluster8, 0)


class TestIncidenceMatrix:
    """The oracle's G_I, whose Gram matrix ``laplacian_density`` replaces by
    the normalized Laplacian."""

    def test_single_edge(self):
        g = SampleGraph(2, ((0, 1),))
        gi = incidence_matrix(g)
        assert np.allclose(gi, [[-1.0], [1.0]])

    def test_path_middle_row(self):
        g = SampleGraph(3, ((0, 1), (1, 2)))
        gi = incidence_matrix(g)
        assert np.allclose(gi[1], [1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_rows_unit_norm(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            gi = incidence_matrix(g)
            assert np.allclose(np.linalg.norm(gi, axis=1), 1.0, atol=1e-12)

    def test_triangle_gram_is_normalized_laplacian(self):
        g = SampleGraph(3, ((0, 1), (0, 2), (1, 2)))
        gi = incidence_matrix(g)
        assert np.max(np.abs(gi @ gi.T - normalized_laplacian(g).matrix)) < 1e-12


class TestLaplacians:
    def test_single_edge_both_kinds(self):
        g = SampleGraph(2, ((0, 1),))
        expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(combinatorial_laplacian(g).matrix, expected)
        assert np.array_equal(normalized_laplacian(g).matrix, expected)

    def test_path_matrices(self):
        g = SampleGraph(3, ((0, 1), (1, 2)))
        comb = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(combinatorial_laplacian(g).matrix, comb)
        s = 1 / np.sqrt(2)
        norm = np.array([[1.0, -s, 0.0], [-s, 1.0, -s], [0.0, -s, 1.0]])
        assert np.allclose(normalized_laplacian(g).matrix, norm)

    def test_edge_sum_oracle(self, rng):
        g = random_connected_graph(rng, 6)
        lap = combinatorial_laplacian(g).matrix
        f = rng.normal(size=6)
        edge_sum = sum((f[u] - f[v]) ** 2 for u, v in g.edges)
        assert abs(f @ lap @ f - edge_sum) < 1e-12

    def test_star_eigenvalues_in_range(self):
        g = SampleGraph(4, ((0, 1), (0, 2), (0, 3)))
        w = np.linalg.eigvalsh(normalized_laplacian(g).matrix)
        assert w[0] >= -1e-10
        assert w[-1] <= 2.0 + 1e-10

    def test_gram_identity_random_graphs(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            gi = incidence_matrix(g)
            assert np.max(np.abs(gi @ gi.T - normalized_laplacian(g).matrix)) < 1e-12

    def test_psd_fuzzing(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            for lap in (combinatorial_laplacian(g), normalized_laplacian(g)):
                assert np.linalg.eigvalsh(lap.matrix)[0] >= -1e-10

    def test_kind_validation(self):
        with pytest.raises(ParameterError):
            LaplacianMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), "combinatorial")
