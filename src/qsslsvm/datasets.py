"""Training-set ingestion, sample graphs, and graph Laplacian matrices.

A training set holds ``m`` samples of dimension ``p`` with the labeled
samples (+-1) grouped before the unlabeled ones (label 0).  A sample graph
connects the ``m`` samples with unweighted, undirected edges; its
Laplacians feed both the classical solver and the quantum-state
encodings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DegreeError, LayoutError, ParameterError, ParseError

_DELIMITERS = (",", ";", "\t", " ")

#: PSD tolerance for Laplacian validation (smallest eigenvalue lower bound).
_LAPLACIAN_PSD_TOL = -1e-10

#: Entries of gathered neighbor rows that ``LaplacianMatrix.product`` holds
#: at a time when one m x r block's worth is fewer.
_GATHER_ENTRIES = 2**16


@dataclass(frozen=True)
class TrainingSet:
    """m samples of dimension p; the first ``labeled_count`` carry labels +-1."""

    features: np.ndarray
    labels: np.ndarray
    labeled_count: int

    def __post_init__(self):
        x = np.ascontiguousarray(self.features, dtype=np.float64)
        y = np.ascontiguousarray(self.labels, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise LayoutError(f"features must be a non-empty m x p matrix, got {x.shape}")
        if y.shape != (x.shape[0],):
            raise LayoutError(f"labels must have shape ({x.shape[0]},), got {y.shape}")
        if not np.all(np.isfinite(x)):
            raise ParseError("features contain NaN or Inf")
        m = x.shape[0]
        l = int(self.labeled_count)
        if not 1 <= l <= m:
            raise ParameterError(f"labeled_count must be in [1, {m}], got {l}")
        if not np.all(np.isin(y, (-1.0, 0.0, 1.0))):
            raise ParseError("labels must lie in {-1, 0, +1}")
        if np.any(y[:l] == 0.0):
            raise ParameterError("labeled block contains a zero label")
        if np.any(y[l:] != 0.0):
            raise ParameterError("unlabeled block contains a nonzero label")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "labeled_count", l)

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    @cached_property
    def row_norms(self) -> np.ndarray:
        """Euclidean norm of each sample row, computed on first use."""
        norms = np.linalg.norm(self.features, axis=1)
        norms.setflags(write=False)
        return norms

    @cached_property
    def _expansion_memo(self) -> dict[bytes, tuple[np.ndarray, float]]:
        """``swap_test.classify``'s memo of the last coefficients it
        accepted on these rows, alpha's float64 bytes -> (X^T alpha,
        ||diag(alpha) X||_F); empty on a new training set."""
        return {}


def _detect_delimiter(header: str) -> str:
    counts = {d: header.count(d) for d in _DELIMITERS}
    best = max(counts, key=counts.get)
    return best if counts[best] > 0 else ","


def _split(line: str, delim: str) -> list[str]:
    if delim == " ":
        return line.split()
    return [f.strip() for f in line.split(delim)]


def _read_table(
    source: str | Path | IO[str], label_required: bool, nonzero: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and last column of a delimited table with a header row.

    A header ending in ``label`` marks the last column as labels, which
    ``label_required`` makes mandatory and restricts to -1, 0 and +1;
    otherwise every column is a feature.  Feature values must be finite,
    and so must each row's sum of squared features in float64, which
    ``nonzero`` also requires to be positive.  Errors carry the line they
    were found on: of several faults, the one on the first line.
    """
    rows = _read_lines(source)
    if not rows:
        raise ParseError("empty file")
    header_line, header_text = rows[0]
    delim = _detect_delimiter(header_text)
    header = _split(header_text, delim)
    has_label = header[-1].strip().lower() == "label"
    if label_required:
        if len(header) < 2:
            raise ParseError(
                "header must name at least one feature column and 'label'", header_line
            )
        if not has_label:
            raise ParseError(
                f"last header column must be 'label', got {header[-1]!r}", header_line
            )
    p = len(header) - has_label
    if p < 1:
        raise ParseError("no feature columns", header_line)

    table = []
    for lineno, line in rows[1:]:
        fields = _split(line, delim)
        if len(fields) != len(header):
            # a fault on an earlier line is reported first
            _table_values(table, p, label_required, nonzero)
            raise ParseError(f"expected {len(header)} fields, got {len(fields)}", lineno)
        table.append((lineno, fields))
    if not table:
        raise ParseError("no data rows")
    values = _table_values(table, p, label_required, nonzero)
    return np.ascontiguousarray(values[:, :p]), values[:, -1]


def _table_values(
    table: list[tuple[int, list[str]]], p: int, label_required: bool, nonzero: bool
) -> np.ndarray:
    """The ``(line number, fields)`` rows of a table, all of one length, as
    a float64 array, checked as ``_read_table`` describes.  The fields are
    parsed by one ``np.array`` call (Python's ``float`` syntax) and checked
    column-wise; only a non-numeric field is searched for row by row."""
    if not table:
        return np.empty((0, 0))
    try:
        values = np.array([fields for _, fields in table], dtype=np.float64)
    except ValueError:
        for i, (lineno, fields) in enumerate(table):
            try:
                [float(f) for f in fields]
            except ValueError as exc:
                _table_values(table[:i], p, label_required, nonzero)
                raise ParseError(f"non-numeric field: {exc}", lineno) from None
        raise
    feats = values[:, :p]
    # summed column by column, in the order of a per-row sum over the fields
    norm2 = np.zeros(len(values))
    with np.errstate(over="ignore"):
        for column in feats.T:
            norm2 += column * column
    finite = np.isfinite(feats).all(axis=1)
    fault = ~np.isfinite(norm2)  # a non-finite field or an overflowing sum
    if nonzero:
        fault |= norm2 == 0.0
    if label_required:
        fault |= ~np.isin(values[:, -1], (-1.0, 0.0, 1.0))
    if not fault.any():
        return values
    i = int(np.argmax(fault))
    lineno, fields = table[i]
    if not finite[i]:
        field = fields[int(np.argmin(np.isfinite(feats[i])))]
        raise ParseError(f"non-finite field: {field!r}", lineno)
    if not math.isfinite(norm2[i]):
        raise ParseError("sum of squared features overflows float64", lineno)
    if nonzero and norm2[i] == 0.0:
        raise ParseError("point has zero norm and cannot be encoded as a state", lineno)
    raise ParseError(f"label must be -1, 0 or +1, got {float(values[i, -1])}", lineno)


def load_dataset(source: str | Path | IO[str]) -> TrainingSet:
    """Parse a delimited text table with header ``f1,...,fp,label``.

    Labels must be -1, 0, or +1; rows with label 0 are moved after the
    labeled rows (stable order within each block).
    """
    x, y = _read_table(source, label_required=True)
    order = np.concatenate([np.flatnonzero(y != 0), np.flatnonzero(y == 0)])
    x, y = x[order], y[order]
    labeled = int(np.count_nonzero(y))
    if labeled == 0:
        raise ParseError("dataset has no labeled rows")
    return TrainingSet(x, y, labeled)


def load_points(source: str | Path | IO[str], nonzero: bool = False) -> np.ndarray:
    """Parse a test-point table in the dataset format; labels are ignored.

    A trailing ``label`` column is optional; every other column is a
    feature.  Feature values, and each row's sum of their squares, must be
    finite; with ``nonzero`` (points read out as quantum states) that sum
    must also be positive in float64.
    """
    return _read_table(source, label_required=False, nonzero=nonzero)[0]


def _read_text(source: str | Path | IO[str]) -> str:
    """Whole text of a file or stream; bytes that are not UTF-8 are a parse error."""
    try:
        if hasattr(source, "read"):
            return source.read()
        return Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"file is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_lines(source: str | Path | IO[str]) -> list[tuple[int, str]]:
    text = _read_text(source)
    return [(i + 1, line) for i, line in enumerate(text.splitlines()) if line.strip()]


def _pair_array(edges) -> np.ndarray:
    """``edges`` as an (E, 2) array of int64, or of Python ints where an
    index does not fit int64; anything else raises ``ParameterError``."""
    message = "edges must be pairs of integer vertex indices"
    try:
        try:
            pairs = np.array(edges, dtype=np.int64)
        except OverflowError:
            pairs = np.frompyfunc(int, 1, 1)(np.array(edges, dtype=object))
    except (TypeError, ValueError):
        raise ParameterError(message) from None
    if pairs.shape == (0,):
        return pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ParameterError(message)
    return pairs


@dataclass(frozen=True)
class SampleGraph:
    """Undirected, unweighted graph over the m samples.

    ``edges`` are (i, j) pairs, as a sequence or an (E, 2) integer array.
    They are stored deduplicated as (i, j) with i < j in lexicographic
    order, both as the ``edges`` tuple and as the read-only (E, 2) int64
    ``edge_array``.  A self-loop or an index outside [0, m) raises
    ``ParameterError`` naming the first such pair in input order.
    Isolated vertices are rejected because every sample must participate
    in the manifold graph (and the degree-normalized Laplacian would be
    undefined).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    degrees: np.ndarray = field(init=False, compare=False, repr=False)
    edge_array: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = int(self.vertex_count)
        if m < 1:
            raise ParameterError(f"vertex count must be >= 1, got {m}")
        pairs = _pair_array(self.edges)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= m)
        if np.any(bad):
            i, j = (int(v) for v in pairs[np.argmax(bad)])
            if i == j:
                raise ParameterError(f"self-loop at vertex {i}")
            raise ParameterError(f"edge ({i}, {j}) out of range for m={m}")
        if m > 2 * len(pairs):
            # some vertex is isolated: counted before any array of length m
            # (or a key i*m + j past int64) exists
            keys = set(zip(lo.tolist(), hi.tolist()))
        else:
            keys = np.unique(lo * m + hi)  # sorted; m <= 2E keeps i*m + j in int64
        if m > 2 * len(keys):
            raise DegreeError(f"{len(keys)} edges leave some of {m} vertices isolated")
        edges = np.empty((len(keys), 2), dtype=np.int64)
        edges[:, 0], edges[:, 1] = np.divmod(keys, m)
        deg = np.bincount(edges.reshape(-1), minlength=m)
        if np.any(deg == 0):
            isolated = int(np.flatnonzero(deg == 0)[0])
            raise DegreeError(f"vertex {isolated} is isolated (degree 0)")
        edges.setflags(write=False)
        deg.setflags(write=False)
        object.__setattr__(self, "vertex_count", m)
        object.__setattr__(self, "edges", tuple(map(tuple, edges.tolist())))
        object.__setattr__(self, "degrees", deg)
        object.__setattr__(self, "edge_array", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-sorted adjacency ``(starts, neighbors)``, computed on first
        use: ``neighbors`` (2E,) lists each edge from both ends, grouped by
        vertex, and vertex i's group begins at ``starts[i]``.  No vertex is
        isolated, so no group is empty."""
        i, j = self.edge_array.T
        neighbors = np.concatenate([j, i])[np.argsort(np.concatenate([i, j]), kind="stable")]
        starts = np.concatenate([[0], np.cumsum(self.degrees)[:-1]])
        neighbors.setflags(write=False)
        starts.setflags(write=False)
        return starts, neighbors


def _integer(value) -> int:
    """``value`` as an int; a boolean, fractional or non-numeric value
    raises ``ValueError``."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not an integer")
    n = int(value)
    if n != value:
        raise ValueError(f"{value!r} is not an integer")
    return n


def _vertex_pair(entry) -> tuple[int, int]:
    """A graph file's edge entry as two ints; anything but a list of two
    integers raises ``ValueError``."""
    if not isinstance(entry, list) or len(entry) != 2:
        raise ValueError(f"edge entry {entry!r} is not a pair")
    return _integer(entry[0]), _integer(entry[1])


def load_graph(source: str | Path | IO[str]) -> SampleGraph:
    """Read a JSON adjacency list ``{"m": int, "edges": [[i, j], ...]}``."""
    try:
        doc = json.loads(_read_text(source))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON graph file: {exc}") from None
    if not isinstance(doc, dict) or "m" not in doc or "edges" not in doc:
        raise ParseError('graph file must be an object with keys "m" and "edges"')
    try:
        m = _integer(doc["m"])
        edges = [_vertex_pair(e) for e in doc["edges"]]
    except (TypeError, ValueError, OverflowError):
        raise ParseError(
            'graph "m" must be an integer and its edges pairs of integer vertex indices'
        ) from None
    return SampleGraph(m, tuple(edges))


#: Rows of the distance matrix that ``build_knn_graph`` holds at a time.
_KNN_BLOCK_ROWS = 16


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of ``terms`` over axis 0 in the order numpy's pairwise summation
    adds a contiguous axis: one by one below 8 terms, in 8 interleaved
    accumulators up to 128, and as two halves (the first a multiple of 8)
    above.  Bit-identical to ``np.sum`` over the last axis of the
    transposed array, while each addition runs over a whole slab;
    overwrites ``terms``."""
    n = terms.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _pairwise_sum(terms[:half])
        total += _pairwise_sum(terms[half:])
        return total
    if n < 8:
        total = terms[0]
        for term in terms[1:]:
            total += term
        return total
    acc = terms[:8]
    for i in range(8, n - n % 8, 8):
        acc += terms[i:i + 8]
    for step in (1, 2, 4):  # ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
        acc[:: 2 * step] += acc[step:: 2 * step]
    total = acc[0]
    for term in terms[n - n % 8:]:
        total += term
    return total


def _distance_rows(columns: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Euclidean distances of samples ``start:stop`` to every sample, from
    the feature-major ``(p, m)`` array ``columns``.  The squared
    differences form one ``(p, rows, m)`` array, freed on return, whose
    sum over features is bit-identical to
    ``np.sum((x_i - x_j)**2, axis=-1)`` over the sample-major array."""
    with np.errstate(over="ignore"):  # a distance past float64 is inf, a tie
        diff = columns[:, start:stop, None] - columns[:, None, :]
        return np.sqrt(_pairwise_sum(np.multiply(diff, diff, out=diff)))


def build_knn_graph(x: TrainingSet, k: int) -> SampleGraph:
    """Symmetric (union) k-nearest-neighbor graph under Euclidean distance.

    Distance ties are broken by the lower vertex index, so the result is
    deterministic for a fixed input: with each row's self-distance set
    below every distance, a row's neighbors are the columns a stable sort
    of its distances ranks 1..k.  Rows are taken ``_KNN_BLOCK_ROWS`` at a
    time.  A block's distances are ``sqrt(sum((x_i - x_j)^2))`` from its
    feature-major difference array, and ``argpartition`` selects the k + 1
    smallest of each row; only a row with more than k + 1 distances at or
    below its k-th neighbor's, a tie across the cut, is sorted in full.
    So the graph takes O(m^2 p) time and holds a
    ``p x _KNN_BLOCK_ROWS x m`` array, never an ``m x m`` one.
    ``SampleGraph`` merges the pairs found from both ends.
    """
    m = x.sample_count
    if not 1 <= k < m:
        raise ParameterError(f"k must be in [1, {m - 1}], got {k}")
    pairs = np.empty((m, k, 2), dtype=np.int64)
    pairs[:, :, 0] = np.arange(m)[:, None]
    columns = np.ascontiguousarray(x.features.T)
    for start in range(0, m, _KNN_BLOCK_ROWS):
        stop = min(start + _KNN_BLOCK_ROWS, m)
        dist = _distance_rows(columns, start, stop)
        rows = np.arange(stop - start)
        dist[rows, start + rows] = -1.0
        # the k + 1 smallest of each row, its own sample among them, with
        # the largest in column k
        part = np.argpartition(dist, k, axis=1)[:, : k + 1]
        cut = dist[rows, part[:, k]]
        ties = np.flatnonzero(np.sum(dist <= cut[:, None], axis=1) > k + 1)
        near = part[part != (start + rows)[:, None]].reshape(-1, k)
        if ties.size:
            near[ties] = np.argsort(dist[ties], axis=1, kind="stable")[:, 1 : k + 1]
        pairs[start:stop, :, 1] = near
    return SampleGraph(m, pairs.reshape(-1, 2))


class LaplacianMatrix:
    """Symmetric PSD Laplacian, either combinatorial or degree-normalized.

    ``LaplacianMatrix(matrix, kind)`` holds a caller's array, which is
    checked: square, symmetric, PSD, and zero row sums (combinatorial) or a
    unit diagonal and spectrum in [0, 2] (normalized).  The builders below
    hold the validated ``SampleGraph`` instead (``_built``, unchecked: such
    a Laplacian is symmetric and PSD by construction, and the normalized
    spectrum lies in [0, 2]).  A built Laplacian forms its dense ``matrix``
    only when a caller asks for it; ``product`` computes L V from the
    graph's edges in O(E r) for V of shape (m, r) without it.
    """

    def __init__(self, matrix: np.ndarray, kind: str):
        m = np.ascontiguousarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise LayoutError(f"Laplacian must be square, got {m.shape}")
        if kind not in ("combinatorial", "normalized"):
            raise ParameterError(f"unknown Laplacian kind {kind!r}")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise LayoutError("Laplacian must be symmetric")
        w = np.linalg.eigvalsh(m)
        if w[0] < _LAPLACIAN_PSD_TOL:
            raise ParameterError(f"Laplacian is not PSD (min eigenvalue {w[0]:.3e})")
        if kind == "combinatorial":
            if np.max(np.abs(m.sum(axis=1))) > 1e-10:
                raise ParameterError("combinatorial Laplacian must have zero row sums")
        else:
            if np.max(np.abs(np.diag(m) - 1.0)) > 1e-10:
                raise ParameterError("normalized Laplacian must have unit diagonal")
            if w[-1] > 2.0 + 1e-10:
                raise ParameterError(f"normalized Laplacian eigenvalue {w[-1]} above 2")
        m.setflags(write=False)
        self._matrix = m
        self.kind = kind
        self.graph = None  # the graph a built Laplacian came from

    @classmethod
    def _built(cls, g: SampleGraph, kind: str) -> LaplacianMatrix:
        """The ``kind`` Laplacian of a validated graph, bypassing the
        checks; tests/test_closed_forms.py guards its invariants."""
        lap = object.__new__(cls)
        lap._matrix = None
        lap.kind = kind
        lap.graph = g
        return lap

    @property
    def shape(self) -> tuple[int, int]:
        if self.graph is None:
            return self._matrix.shape
        return (self.graph.vertex_count,) * 2

    @property
    def matrix(self) -> np.ndarray:
        """The dense, read-only m x m array, formed on first use."""
        if self._matrix is None:
            build = (_combinatorial_laplacian_array if self.kind == "combinatorial"
                     else _normalized_laplacian_array)
            self._matrix = build(self.graph)
            self._matrix.setflags(write=False)
        return self._matrix

    def product(self, v: np.ndarray) -> np.ndarray:
        """L v for ``v`` of shape (m,) or (m, r).  A built Laplacian sums
        each vertex's neighbors from the graph's row-sorted adjacency
        (``SampleGraph.adjacency``): (L v)_i = d_i v_i - sum_j v_j, or
        v_i - s_i sum_j s_j v_j with s = 1/sqrt(d) for the normalized kind,
        in O(E r) time.  The neighbor rows are gathered for a block of
        vertices at a time, so the gathered array holds about
        max(m r, ``_GATHER_ENTRIES``) entries, not 2 E r.  A caller's array
        takes a dense product."""
        v = np.asarray(v, dtype=np.float64)
        if self.graph is None:
            return self._matrix @ v
        starts, neighbors = self.graph.adjacency
        cols = v.reshape(v.shape[0], -1)
        m, r = cols.shape
        deg = self.graph.degrees.astype(np.float64)[:, None]
        s = 1.0 / np.sqrt(deg) if self.kind == "normalized" else None
        w = cols if s is None else s * cols
        sums = np.empty_like(cols)
        # a block starts at the first vertex whose rows begin at or past a
        # multiple of ``step``; step >= m > any degree, so no two multiples
        # share one, and only the last may lie past every vertex's start
        step = max(m, _GATHER_ENTRIES // max(r, 1))
        first = np.searchsorted(starts, np.arange(0, neighbors.size, step))
        first = first[first < m]
        for a, b in zip(first, [*first[1:], m]):
            lo = starts[a]
            hi = starts[b] if b < m else neighbors.size
            sums[a:b] = np.add.reduceat(w[neighbors[lo:hi]], starts[a:b] - lo, axis=0)
        out = deg * cols - sums if s is None else cols - s * sums
        return out.reshape(v.shape)


def _combinatorial_laplacian_array(g: SampleGraph) -> np.ndarray:
    """The combinatorial Laplacian as a fresh array."""
    lap = np.diag(g.degrees.astype(np.float64))
    i, j = g.edge_array.T
    lap[i, j] = lap[j, i] = -1.0
    return lap


def _normalized_laplacian_array(g: SampleGraph) -> np.ndarray:
    """The normalized Laplacian as a fresh array, for ``LaplacianMatrix``
    and the Laplacian density."""
    lap = np.eye(g.vertex_count)
    i, j = g.edge_array.T
    lap[i, j] = lap[j, i] = -1.0 / np.sqrt(g.degrees[i] * g.degrees[j])
    return lap


def combinatorial_laplacian(g: SampleGraph) -> LaplacianMatrix:
    """L[i, i] = d_i and L[i, j] = -1 for each edge (i, j)."""
    return LaplacianMatrix._built(g, "combinatorial")


def normalized_laplacian(g: SampleGraph) -> LaplacianMatrix:
    """Unit diagonal with off-diagonal entries -1/sqrt(d_i d_j) on edges."""
    return LaplacianMatrix._built(g, "normalized")


def laplacian(g: SampleGraph, kind: str) -> LaplacianMatrix:
    """Dispatch on ``kind`` in {"combinatorial", "normalized"}."""
    if kind == "combinatorial":
        return combinatorial_laplacian(g)
    if kind == "normalized":
        return normalized_laplacian(g)
    raise ParameterError(f"unknown Laplacian kind {kind!r}")
