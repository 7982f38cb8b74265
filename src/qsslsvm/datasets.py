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
from dataclasses import dataclass
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

    A well-formed body is parsed whole: its field counts are checked line
    by line, and its fields split from the joined lines and converted by
    one ``np.array`` call (Python's ``float`` syntax, which ignores the
    whitespace around a field).  On any fault the table is read again row
    by row, which names the line.
    """
    lines = _read_text(source).splitlines()
    start = next((n for n, line in enumerate(lines) if line.strip()), None)
    if start is None:
        raise ParseError("empty file")
    header_line, header_text = start + 1, lines[start]
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

    body = [line for line in lines[header_line:] if line.strip()]
    if delim == " ":
        whole = all(len(line.split()) == len(header) for line in body)
    else:
        whole = all(line.count(delim) == len(header) - 1 for line in body)
    if body and whole:
        fields = " ".join(body).split() if delim == " " else delim.join(body).split(delim)
        try:
            values = np.array(fields, dtype=np.float64).reshape(len(body), len(header))
        except ValueError:
            pass  # a field that the row-by-row search names
        else:
            if not _faults(values, p, label_required, nonzero)[0].any():
                return np.ascontiguousarray(values[:, :p]), values[:, -1]

    table = []
    for lineno, line in enumerate(lines[header_line:], header_line + 1):
        if not line.strip():
            continue
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


def _faults(
    values: np.ndarray, p: int, label_required: bool, nonzero: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a parsed table that break ``_read_table``'s rules, and each
    row's sum of squared features: a fault is a non-finite sum (a
    non-finite field or an overflowing sum), with ``nonzero`` a zero one,
    and with ``label_required`` a label other than -1, 0 and +1."""
    # summed column by column, in the order of a per-row sum over the fields
    norm2 = np.zeros(len(values))
    with np.errstate(over="ignore"):
        for column in values[:, :p].T:
            norm2 += column * column
    fault = ~np.isfinite(norm2)
    if nonzero:
        fault |= norm2 == 0.0
    if label_required:
        fault |= ~np.isin(values[:, -1], (-1.0, 0.0, 1.0))
    return fault, norm2


def _table_values(
    table: list[tuple[int, list[str]]], p: int, label_required: bool, nonzero: bool
) -> np.ndarray:
    """The ``(line number, fields)`` rows of a table, all of one length, as
    a float64 array, checked as ``_read_table`` describes: the first row
    with a fault raises.  The fields are parsed by one ``np.array`` call;
    only a non-numeric field is searched for row by row."""
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
    fault, norm2 = _faults(values, p, label_required, nonzero)
    if not fault.any():
        return values
    i = int(np.argmax(fault))
    lineno, fields = table[i]
    finite = np.isfinite(values[i, :p])
    if not finite.all():
        raise ParseError(f"non-finite field: {fields[int(np.argmin(finite))]!r}", lineno)
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


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SampleGraph:
    """Undirected, unweighted graph over the m samples.

    ``SampleGraph(m, edges)`` takes (i, j) pairs, as a sequence or an
    (E, 2) integer array.  They are stored once, deduplicated as (i, j)
    with i < j in lexicographic order, in the read-only (E, 2) int64
    ``edge_array``; ``edges`` derives the same pairs as a tuple of Python
    int tuples.  Two graphs are equal when their vertex counts and edges
    are.  A self-loop or an index outside [0, m) raises
    ``ParameterError`` naming the first such pair in input order.
    Isolated vertices are rejected because every sample must participate
    in the manifold graph (and the degree-normalized Laplacian would be
    undefined).
    """

    vertex_count: int
    edge_array: np.ndarray
    degrees: np.ndarray

    def __init__(self, vertex_count: int, edges):
        m = int(vertex_count)
        if m < 1:
            raise ParameterError(f"vertex count must be >= 1, got {m}")
        pairs = _pair_array(edges)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= m)
        if bad.any():
            i, j = (int(v) for v in pairs[np.argmax(bad)])
            if i == j:
                raise ParameterError(f"self-loop at vertex {i}")
            raise ParameterError(f"edge ({i}, {j}) out of range for m={m}")
        if m > 2 * len(pairs):
            # some vertex is isolated: counted before any array of length m
            # (or a key i*m + j past int64) exists
            keys = set(zip(lo.tolist(), hi.tolist()))
        else:
            keys = lo * m + hi  # m <= 2E keeps i*m + j in int64
            keys.sort()
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        if m > 2 * len(keys):
            raise DegreeError(f"{len(keys)} edges leave some of {m} vertices isolated")
        edge_array = np.empty((len(keys), 2), dtype=np.int64)
        edge_array[:, 0], edge_array[:, 1] = np.divmod(keys, m)
        deg = np.bincount(edge_array.reshape(-1), minlength=m)
        if not deg.all():
            isolated = int(np.flatnonzero(deg == 0)[0])
            raise DegreeError(f"vertex {isolated} is isolated (degree 0)")
        edge_array.setflags(write=False)
        deg.setflags(write=False)
        object.__setattr__(self, "vertex_count", m)
        object.__setattr__(self, "edge_array", edge_array)
        object.__setattr__(self, "degrees", deg)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The stored pairs as a tuple of Python int tuples, formed anew
        from ``edge_array`` on each access."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @property
    def edge_count(self) -> int:
        return self.edge_array.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SampleGraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and np.array_equal(self.edge_array, other.edge_array))

    def __hash__(self):
        return hash((self.vertex_count, self.edge_array.tobytes()))

    def __repr__(self):
        return f"SampleGraph(vertex_count={self.vertex_count!r}, edges={self.edges!r})"

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


#: Rows of the screened squared distances that ``build_knn_graph`` holds
#: at a time.
_KNN_BLOCK_ROWS = 32

#: The unit roundoff and the smallest subnormal of float64.
_UNIT = 2.0**-53
_SUBNORMAL = 2.0**-1074

_FLOAT_MAX = float(np.finfo(np.float64).max)

#: A sample whose squared norm reaches this takes no part in the screen.
_HUGE_NORM2 = _FLOAT_MAX / 16

#: Relative slack on a row's threshold for a square root that ties it.
_TIE_SLACK = 1.0 + 16 * _UNIT


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


def _pair_distances(columns: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Euclidean distances of the sample pairs ``(i[n], j[n])`` from the
    feature-major ``(p, m)`` array ``columns``.  The squared differences
    of the gathered pairs form one ``(p, pairs)`` array whose sum over
    features is bit-identical to ``np.sum((x_i - x_j)**2, axis=-1)`` over
    the sample-major array.  A distance past float64 is inf; the caller
    decides whether its overflow warns."""
    diff = columns[:, i] - columns[:, j]
    return np.sqrt(_pairwise_sum(np.multiply(diff, diff, out=diff)))


def build_knn_graph(x: TrainingSet, k: int) -> SampleGraph:
    """Symmetric (union) k-nearest-neighbor graph under Euclidean distance.

    A row's neighbors are the first k other samples in (distance, index)
    order, so distance ties go to the lower vertex index and the result
    is deterministic for a fixed input.  Each distance that decides a
    neighbor is ``sqrt(sum((x_i - x_j)^2))`` from ``_pair_distances``,
    bit-identical to ``np.sum`` over the last axis of a sample-major
    difference array, so ties (and overflow to inf) come out as from it.

    Rows are taken ``_KNN_BLOCK_ROWS`` at a time and screened first: with
    ``n_i = ||x_i||^2``, ``S_ij = n_i + n_j - 2 x_i . x_j`` comes from one
    BLAS product per block, and ``e_ij = c (n_i + n_j) + t`` bounds how
    far ``S_ij`` lies from the exact sum of squares: the rounding errors
    of both against the true squared distance, added (derived in
    ``_neighbor_pairs``).  With ``tau_i`` the k-th smallest
    ``S_ij + e_ij`` over ``j != i``, every neighbor of row i has
    ``S_ij - e_ij <= tau_i`` (up to a slack for square roots that tie),
    and only those candidates are ranked.  When every row of a block has
    exactly k candidates, they are its neighbors; otherwise the block's
    candidates get their exact distances and are sorted.  A sample with
    ``n_i >= max/16`` takes no part in the screen: every pair it is in is
    a candidate.  So the graph takes O(m^2 p) multiply-adds in BLAS and
    O(m^2) other work, and holds ``_KNN_BLOCK_ROWS x m`` arrays, never an
    ``m x m`` one.  ``SampleGraph`` merges the pairs found from both ends.
    """
    m = x.sample_count
    if not 1 <= k < m:
        raise ParameterError(f"k must be in [1, {m - 1}], got {k}")
    return SampleGraph(m, _neighbor_pairs(x, k))


def _neighbor_pairs(x: TrainingSet, k: int) -> np.ndarray:
    """The ``(m k, 2)`` pairs (i, j) of each sample i and its k nearest
    others, screened and ranked as ``build_knn_graph`` describes.  The
    screen's two block arrays are made once and reused, so a large m does
    not map and fault fresh pages for every block."""
    # The bound e_ij, with u = 2^-53, eta = 2^-1074 (each rounding that
    # underflows adds at most eta/2), gamma_q = q u / (1 - q u), N = n_i + n_j
    # and D = ||x_i - x_j||^2 (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., sec. 3.1):
    # - a dot product of p terms in any order, fused or not, lies within
    #   gamma_p sum_k |a_k b_k| + p eta of the true one, and
    #   2 sum_k |x_ik x_jk| <= N; so the computed n_i + n_j and
    #   -2 x_i . x_j (one product with the exactly doubled -2 x_j) are each
    #   within gamma_p N + 2 p eta;
    # - the exact sum of squares rounds a difference, its square and p - 1
    #   sums: within gamma_{p+2} D + p eta, and D <= 2 N;
    # - S +- e is evaluated as (-2 x_i . x_j + w_j) + w_i with
    #   w = (1 +- c) n +- t/2, whose roundings add at most 6 u N and eta.
    # In all, (4 p + 10) u N + (5 p + 1) eta to first order: c = (4 p + 16) u
    # leaves 6 u N for the second-order terms (enough for p below 10^7),
    # and t = 8 (p + 1) eta leaves at least 9 eta.  A sample with
    # n_i < max/16 in both places keeps N, S, e and D finite.
    #
    # tau_i, the k-th smallest S + e, has k columns whose exact squared
    # distance is at most tau_i.  A neighbor's distance is at most the
    # rounded sqrt(tau_i), so its squared distance is at most
    # (1 + 5 u) tau_i, or tau_i + 2.5 eta where tau_i is subnormal; the
    # threshold (1 + 16 u) tau_i and the eta left in t cover both.
    m, p = x.features.shape
    feats = x.features
    pairs = np.empty((m, k, 2), dtype=np.int64)
    pairs[:, :, 0] = np.arange(m)[:, None]
    c = (4 * p + 16) * _UNIT
    t = 8 * (p + 1) * _SUBNORMAL
    with np.errstate(over="ignore"):  # a distance past float64 is inf, a tie
        norm2 = np.vecdot(feats, feats)  # inf past float64
        upper = (1 + c) * norm2 + t / 2
        lower = (1 - c) * norm2 - t / 2
        huge = norm2 >= _HUGE_NORM2
        if huge.any():
            feats = np.where(huge[:, None], 0.0, feats)
            upper[huge] = np.inf  # out of every threshold
            lower[huge] = -np.inf  # a candidate in every row
        scaled = -2.0 * feats.T
        block = (min(_KNN_BLOCK_ROWS, m), m)
        screens, highs, below = np.empty(block), np.empty(block), np.empty(block, dtype=bool)
        for start in range(0, m, _KNN_BLOCK_ROWS):
            stop = min(start + _KNN_BLOCK_ROWS, m)
            rows = stop - start
            screen = np.matmul(feats[start:stop], scaled, out=screens[:rows])  # -2 x_i . x_j
            high = np.add(screen, upper, out=highs[:rows])
            high.reshape(-1)[start :: m + 1] = np.inf  # j == i
            # rounding is monotone: the k-th smallest of (S + e)_ij with
            # w_i added last is w_i added to the k-th smallest before it
            high.partition(k - 1, axis=1)
            tau = high[:, k - 1] + upper[start:stop]
            # an infinite tau (a huge row, or fewer than k screened columns)
            # keeps every other column
            limit = np.minimum(tau * _TIE_SLACK, _FLOAT_MAX)
            screen += lower
            screen += lower[start:stop, None]
            screen.reshape(-1)[start :: m + 1] = np.inf
            # candidates in (row, index) order
            r, j = np.nonzero(np.less_equal(screen, limit[:, None], out=below[:rows]))
            if j.size > rows * k:  # some row has more than k candidates: rank them
                dist = _pair_distances(x.features.T, start + r, j)
                order = np.lexsort((dist, r))  # stable: ties keep index order
                counts = np.bincount(r, minlength=rows)
                j = j[order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]]
            # every row has at least k candidates, so now exactly k
            pairs[start:stop, :, 1] = j.reshape(rows, k)
    return pairs.reshape(-1, 2)


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
