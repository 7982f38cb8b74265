"""Tests for dataset loading, graph construction, and Laplacians."""

import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA,
    knn_edges_by_sort,
    random_connected_graph,
    read_table_by_loop,
    sample_graph_by_loop,
)
from dilation import incidence_matrix
from qsslsvm import datasets
from qsslsvm.datasets import (
    LaplacianMatrix,
    SampleGraph,
    TrainingSet,
    _pair_distances,
    _read_table,
    build_knn_graph,
    combinatorial_laplacian,
    laplacian,
    load_dataset,
    load_graph,
    load_points,
    normalized_laplacian,
)
from qsslsvm.errors import DegreeError, InputError, LayoutError, ParameterError, ParseError


@st.composite
def _vertex_counts_and_pairs(draw):
    """A vertex count and a list of index pairs: distinct in-range pairs
    with duplicates and reversed copies, and now and then self-loops,
    negative or out-of-range indices, or indices past int64."""
    m = draw(st.integers(1, 9) | st.sampled_from([10**30, 10**300]))
    vertex = st.integers(0, min(m, 9) - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          max_size=16))
    if m <= 9 and draw(st.booleans()):
        # a path through every vertex, so the graph can be valid
        path = draw(st.permutations(range(m)))
        pairs = draw(st.permutations(pairs + list(zip(path, path[1:]))))
    bad = st.sampled_from([-1, m, m + 1, 2**63 - 1, 2**63, 10**30, -(2**63), -(10**30)])
    inserts = draw(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(
        ["repeat", "reverse"] * 3 + ["self_loop", "bad_index"]), bad, vertex), max_size=6))
    for pick, kind, index, other in inserts:
        at = pick % (len(pairs) + 1)
        if kind == "self_loop":
            pairs.insert(at, (index, index))
        elif kind == "bad_index":
            pairs.insert(at, (index, other) if pick % 2 else (other, index))
        elif pairs:
            i, j = pairs[pick % len(pairs)]
            pairs.insert(at, (j, i) if kind == "reverse" else (i, j))
    return m, tuple(pairs)


_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-3, 3).map(str))
_ODD_FIELD = st.sampled_from(["inf", "-Infinity", "nan", "1e200", "-1e154", "1e-200", "-0.0",
                              "1_000", "0x10", "", "abc", " 2.5 ", "\u0661\u0662"])
_LABEL = st.sampled_from(["1", "-1", "0", "1.0", "-0"] * 3 + ["2", "0.5", "nan", "inf", "x"])


@st.composite
def _knn_samples(draw):
    """A feature matrix and a k for ``build_knn_graph``: m up to 300 (several
    row blocks), p up to 40, k up to 8; now and then rounded coordinates
    (tied distances), duplicated rows, a scale where squares underflow
    (1e-300, 1e-160) or near overflow (1e150), clusters shifted 1e6 or
    1e12 from the origin (where n_i + n_j - 2 x_i . x_j cancels), and
    rows of +-1e200 (squared norms past float64)."""
    m = draw(st.integers(2, 300))
    p = draw(st.integers(1, 40))
    k = draw(st.integers(1, min(8, m - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(m, p))
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        x = np.round(x, decimals)
    x[rng.integers(0, m, size=draw(st.integers(0, m // 4)))] = x[rng.integers(0, m)]
    x[: m // 2] += 3.0  # two clusters
    x += draw(st.sampled_from([0.0, 1e6, 1e12]))
    x *= draw(st.sampled_from([1.0, 1e-300, 1e-160, 1e150]))
    huge = rng.integers(0, m, size=draw(st.integers(0, 3)))
    x[huge] = 1e200 * rng.choice([-1.0, 1.0], size=(len(huge), p))
    return x, k


@st.composite
def _tables(draw):
    """The text of a table and the two flags of ``_read_table``.  Rows are
    mostly well formed; now and then one is ragged or all zero, or has an
    odd field (non-numeric, non-finite, overflowing when squared), and a
    label is now and then out of range."""
    label_required, nonzero = draw(st.booleans()), draw(st.booleans())
    delim = draw(st.sampled_from([",", ";", "\t", " "]))
    p = draw(st.integers(1, 4))
    has_label = label_required != (draw(st.integers(0, 7)) == 0)
    header = [f"f{j}" for j in range(p)] + ["label"] * has_label
    lines = [delim.join(header)]
    for _ in range(draw(st.integers(0, 6))):
        fields = draw(st.lists(_NUMBER, min_size=p, max_size=p))
        fault = draw(st.integers(0, 8))
        if fault == 0:
            fields = ["0"] * p
        elif fault == 1:
            fields[draw(st.integers(0, p - 1))] = draw(_ODD_FIELD)
        if has_label:
            fields.append(draw(_LABEL))
        if fault == 2:
            fields = fields[:-1] if draw(st.booleans()) else fields + ["1"]
        lines.append(delim.join(fields))
    return "\n".join(lines) + "\n", label_required, nonzero


def _outcome(read, text, label_required, nonzero):
    try:
        return read(io.StringIO(text), label_required, nonzero)
    except ParseError as exc:
        return str(exc), exc.line


@given(case=_tables())
@example(case=("f,label\n1,1\ninf,1\n2,1,1\n", True, False))  # a value fault, then a ragged row
@example(case=("f,label\n1e200,1\nx,1\n", True, False))  # overflow, then a non-numeric field
@example(case=("f1;f2\n1;2\n3;-inf\n", False, True))  # the second field is named
def test_read_table_matches_per_field_loop(case):
    # values, and each error's message and line, as the per-field loop gives them
    got, expected = (_outcome(read, *case) for read in (_read_table, read_table_by_loop))
    if isinstance(expected[0], str):
        assert got == expected
    else:
        assert all(np.array_equal(g, e, equal_nan=True) and g.shape == e.shape
                   for g, e in zip(got, expected))


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

    @pytest.mark.parametrize("pairs, count", [(((0, 1),), 1), (((0, 10**30), (10**30, 0)), 1),
                                              (((0, 1), (1, 2), (2, 1)), 2)])
    def test_huge_vertex_count_fails_before_allocating(self, pairs, count):
        # an array of length m, or a key i*m + j in int64, cannot exist here
        with pytest.raises(DegreeError) as info:
            SampleGraph(10**300, pairs)
        assert str(info.value) == f"{count} edges leave some of {10**300} vertices isolated"

    def test_index_past_int64_is_named(self):
        with pytest.raises(ParameterError) as info:
            SampleGraph(2, ((0, 10**30),))
        assert str(info.value) == f"edge (0, {10**30}) out of range for m=2"

    @pytest.mark.parametrize("pairs, message", [
        (((0, 1), (5, 0), (2, 2), (-1, 0)), "edge (5, 0) out of range for m=3"),
        (((0, 1), (2, 2), (0, 5)), "self-loop at vertex 2"),
        (((1, 2), (0, -1), (7, 7)), "edge (0, -1) out of range for m=3"),
        (((9, 9), (0, 3)), "self-loop at vertex 9"),
        (((0, 1), (0, 2**63), (0, 3)), f"edge (0, {2**63}) out of range for m=3"),
    ])
    def test_first_offending_edge_in_input_order_is_named(self, pairs, message):
        with pytest.raises(ParameterError) as info:
            SampleGraph(3, pairs)
        assert str(info.value) == message

    @pytest.mark.parametrize("pairs", [((0, 1, 2),), ((0,),), ((0, 1), (2,)), (("a", 1),)])
    def test_rejects_entries_that_are_not_pairs(self, pairs):
        with pytest.raises(ParameterError, match="pairs of integer vertex indices"):
            SampleGraph(3, pairs)

    def test_edge_array_matches_edges(self):
        g = SampleGraph(4, np.array([[3, 2], [0, 1], [1, 0], [2, 1]]))
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.edge_array.dtype == np.int64
        assert g.edge_array.tolist() == [list(e) for e in g.edges]
        assert not g.edge_array.flags.writeable
        assert all(type(v) is int for e in g.edges for v in e)

    @settings(max_examples=400)
    @given(_vertex_counts_and_pairs())
    def test_matches_per_edge_loop(self, case):
        m, pairs = case
        try:
            edges, degrees = sample_graph_by_loop(m, pairs)
        except InputError as expected:
            with pytest.raises(InputError) as info:
                SampleGraph(m, pairs)
            assert type(info.value) is type(expected)
            assert str(info.value) == str(expected)
        else:
            g = SampleGraph(m, pairs)
            assert g.edges == edges
            assert g.degrees.dtype == degrees.dtype
            assert np.array_equal(g.degrees, degrees)


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

    @pytest.mark.parametrize("doc", ['{"m": 2, "edges": [[0, 1, 7]]}',
                                     '{"m": 2, "edges": [[true, false]]}',
                                     '{"m": true, "edges": [[0, 1]]}',
                                     '{"m": 2, "edges": [{"0": 0, "1": 1}]}'])
    def test_entries_other_than_two_integers(self, doc):
        with pytest.raises(ParseError, match="pairs of integer vertex indices"):
            load_graph(io.StringIO(doc))

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

    @pytest.mark.parametrize("m", [17, 64, 130, 301])
    def test_matches_sort_oracle_across_row_blocks(self, m):
        # several row blocks; rounded coordinates tie, duplicated rows sit at
        # distance 0, and 1e200 rows are at distance inf from the rest
        rng = np.random.default_rng(m)
        for variant in range(4):
            x = np.round(rng.normal(size=(m, int(rng.integers(1, 9)))), 1 if variant else 3)
            if variant >= 2:
                x[rng.integers(0, m, size=m // 8)] = x[rng.integers(0, m)]
            if variant == 3:
                x[rng.integers(0, m, size=3)] = 1e200 * rng.choice([-1.0, 1.0], size=x.shape[1])
            ts = TrainingSet(x, np.r_[1.0, np.zeros(m - 1)], 1)
            for k in range(1, 9):
                with np.errstate(over="ignore"):
                    assert build_knn_graph(ts, k).edges == knn_edges_by_sort(x, k), (variant, k)

    @settings(max_examples=150)
    @given(_knn_samples())
    def test_matches_sort_oracle_on_drawn_samples(self, case):
        x, k = case
        ts = TrainingSet(x, np.r_[1.0, np.zeros(len(x) - 1)], 1)
        with np.errstate(over="ignore"):
            assert build_knn_graph(ts, k).edges == knn_edges_by_sort(x, k)

    def test_distance_block_is_bit_equal_to_row_major_sum(self):
        # the gathered feature-major pairs add the squares in numpy's pairwise
        # order, so ranking ties (rounded coordinates, duplicate rows, 1e200
        # rows at distance inf) come out exactly as from np.sum over the last axis
        rng = np.random.default_rng(5)
        for p in range(1, 301):
            x = np.round(rng.normal(size=(21, p)) * np.exp(rng.normal(scale=3, size=(21, p))), 1)
            x[4] = x[9]
            x[7] = 1e200
            x[12, : p // 2 + 1] = -1e200
            columns = np.ascontiguousarray(x.T)
            with np.errstate(over="ignore"):
                for start, stop in ((0, 16), (16, 21)):
                    diff = x[start:stop, None, :] - x[None, :, :]
                    expected = np.sqrt(np.sum(diff * diff, axis=2))
                    i, j = np.indices(expected.shape).reshape(2, -1)
                    dist = _pair_distances(columns, start + i, j).reshape(expected.shape)
                    assert np.array_equal(dist, expected), p

    def test_memory_stays_below_one_distance_matrix(self, rng):
        m, p = 512, 8
        ts = TrainingSet(rng.normal(size=(m, p)), np.r_[1.0, np.zeros(m - 1)], 1)
        tracemalloc.start()
        try:
            build_knn_graph(ts, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8 / 2  # half of one m x m float64 array

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


@st.composite
def _connected_graphs(draw):
    """A connected graph on at most 64 vertices: a random one, a star or a
    path."""
    m = draw(st.integers(2, 64))
    shape = draw(st.sampled_from(["random", "star", "path"]))
    if shape == "star":
        centre = draw(st.integers(0, m - 1))
        return SampleGraph(m, [(centre, j) for j in range(m) if j != centre])
    if shape == "path":
        return SampleGraph(m, [(i, i + 1) for i in range(m - 1)])
    seed = draw(st.integers(0, 2**32 - 1))
    return random_connected_graph(np.random.default_rng(seed), m, draw(st.integers(0, 300)))


class TestLaplacians:
    @given(g=_connected_graphs(), kind=st.sampled_from(["combinatorial", "normalized"]),
           columns=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-100, 1.0, 1e100]), gather=st.sampled_from([1, 2**16]))
    def test_edge_product_matches_dense(self, g, kind, columns, seed, scale, gather):
        """L V from the edge list equals the dense product within 1e-12 of
        the size |L| |V| of its terms, for a vector (``columns`` 0) or an
        m x ``columns`` block, gathered in one block or (``gather`` 1) in
        blocks of about m rows; a caller's array takes the dense product."""
        shape = (g.vertex_count, columns) if columns else (g.vertex_count,)
        v = scale * np.random.default_rng(seed).normal(size=shape)
        lap = laplacian(g, kind)
        with mock.patch.object(datasets, "_GATHER_ENTRIES", gather):
            edge = lap.product(v)
        dense = lap.matrix @ v
        assert edge.shape == shape
        assert np.max(np.abs(edge - dense)) <= 1e-12 * np.max(np.abs(lap.matrix) @ np.abs(v))
        assert np.array_equal(LaplacianMatrix(lap.matrix, kind).product(v), dense)

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

    @pytest.mark.parametrize("m", [8, 24, 128])
    def test_bit_identical_to_per_edge_loops(self, rng, m):
        g = build_knn_graph(TrainingSet(rng.normal(size=(m, 3)), np.r_[1.0, np.zeros(m - 1)], 1),
                            min(5, m - 1))
        comb = np.diag(g.degrees.astype(np.float64))
        norm = np.eye(m)
        for i, j in g.edges:
            comb[i, j] = comb[j, i] = -1.0
            norm[i, j] = norm[j, i] = -1.0 / np.sqrt(float(g.degrees[i] * g.degrees[j]))
        assert np.array_equal(combinatorial_laplacian(g).matrix, comb)
        assert np.array_equal(normalized_laplacian(g).matrix, norm)

    def test_kind_validation(self):
        with pytest.raises(ParameterError):
            LaplacianMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), "combinatorial")

    # a caller's array keeps every check that the builders' output skips

    def test_caller_array_not_psd_rejected(self):
        # symmetric with zero row sums, eigenvalues -2 and 0
        with pytest.raises(ParameterError, match="not PSD"):
            LaplacianMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]), "combinatorial")

    def test_caller_array_eigenvalue_above_two_rejected(self):
        # symmetric, unit diagonal and PSD, with spectrum {0, 0, 3}
        with pytest.raises(ParameterError, match="above 2"):
            LaplacianMatrix(np.ones((3, 3)), "normalized")

    def test_caller_array_asymmetric_rejected(self):
        with pytest.raises(LayoutError, match="symmetric"):
            LaplacianMatrix(np.array([[1.0, -1.0], [-0.5, 1.0]]), "normalized")

    def test_caller_array_bad_diagonal_rejected(self):
        # PSD, spectrum in [0, 2], diagonal 1.5 and 0.5
        with pytest.raises(ParameterError, match="unit diagonal"):
            LaplacianMatrix(np.array([[1.5, -0.5], [-0.5, 0.5]]), "normalized")

    def test_builders_skip_the_spectral_check(self, rng, eig_calls):
        g = random_connected_graph(rng, 12)
        for lap in (combinatorial_laplacian(g), normalized_laplacian(g)):
            LaplacianMatrix(lap.matrix, lap.kind)  # passes every check of a caller's array
            assert not lap.matrix.flags.writeable
        assert [name for name, _ in eig_calls] == ["eigvalsh"] * 2
