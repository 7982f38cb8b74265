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
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DegreeError, LayoutError, ParameterError, ParseError

_DELIMITERS = (",", ";", "\t", " ")

#: PSD tolerance for Laplacian validation (smallest eigenvalue lower bound).
_LAPLACIAN_PSD_TOL = -1e-10


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


def _detect_delimiter(header: str) -> str:
    counts = {d: header.count(d) for d in _DELIMITERS}
    best = max(counts, key=counts.get)
    return best if counts[best] > 0 else ","


def _split(line: str, delim: str) -> list[str]:
    if delim == " ":
        return line.split()
    return [f.strip() for f in line.split(delim)]


def _read_table(
    source: str | Path | IO[str], label_required: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and last column of a delimited table with a header row.

    A header ending in ``label`` marks the last column as labels, which
    ``label_required`` makes mandatory and restricts to -1, 0 and +1;
    otherwise every column is a feature.  Feature values must be finite,
    and so must each row's sum of squared features in float64.  Errors
    carry the line they were found on.
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

    feats, last = [], []
    for lineno, line in rows[1:]:
        fields = _split(line, delim)
        if len(fields) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(fields)}", lineno)
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", lineno) from None
        bad = [f for f, v in zip(fields, values[:p]) if not math.isfinite(v)]
        if bad:
            raise ParseError(f"non-finite field: {bad[0]!r}", lineno)
        if not math.isfinite(sum(v * v for v in values[:p])):
            raise ParseError("sum of squared features overflows float64", lineno)
        if label_required and values[-1] not in (-1.0, 0.0, 1.0):
            raise ParseError(f"label must be -1, 0 or +1, got {values[-1]}", lineno)
        feats.append(values[:p])
        last.append(values[-1])
    if not feats:
        raise ParseError("no data rows")
    return np.array(feats), np.array(last)


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


def load_points(source: str | Path | IO[str]) -> np.ndarray:
    """Parse a test-point table in the dataset format; labels are ignored.

    A trailing ``label`` column is optional; every other column is a
    feature.  Feature values, and each row's sum of their squares, must be
    finite.
    """
    return _read_table(source, label_required=False)[0]


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


@dataclass(frozen=True)
class SampleGraph:
    """Undirected, unweighted graph over the m samples.

    Edges are stored deduplicated as (i, j) with i < j in lexicographic
    order; isolated vertices are rejected because every sample must
    participate in the manifold graph (and the degree-normalized Laplacian
    would be undefined).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    degrees: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = int(self.vertex_count)
        if m < 1:
            raise ParameterError(f"vertex count must be >= 1, got {m}")
        seen = set()
        normalized = []
        for edge in self.edges:
            i, j = int(edge[0]), int(edge[1])
            if i == j:
                raise ParameterError(f"self-loop at vertex {i}")
            if not (0 <= i < m and 0 <= j < m):
                raise ParameterError(f"edge ({i}, {j}) out of range for m={m}")
            key = (min(i, j), max(i, j))
            if key not in seen:
                seen.add(key)
                normalized.append(key)
        normalized.sort()
        if m > 2 * len(normalized):
            # checked before the degree array of length m is allocated
            raise DegreeError(f"{len(normalized)} edges leave some of {m} vertices isolated")
        deg = np.zeros(m, dtype=np.int64)
        for i, j in normalized:
            deg[i] += 1
            deg[j] += 1
        if np.any(deg == 0):
            isolated = int(np.flatnonzero(deg == 0)[0])
            raise DegreeError(f"vertex {isolated} is isolated (degree 0)")
        deg.setflags(write=False)
        object.__setattr__(self, "vertex_count", m)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "degrees", deg)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _integer(value) -> int:
    """``value`` as an int; a fractional or non-numeric value raises ``ValueError``."""
    n = int(value)
    if n != value:
        raise ValueError(f"{value!r} is not an integer")
    return n


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
        edges = [(_integer(e[0]), _integer(e[1])) for e in doc["edges"]]
    except (TypeError, ValueError, IndexError, OverflowError):
        raise ParseError(
            'graph "m" must be an integer and its edges pairs of integer vertex indices'
        ) from None
    return SampleGraph(m, tuple(edges))


def build_knn_graph(x: TrainingSet, k: int) -> SampleGraph:
    """Symmetric (union) k-nearest-neighbor graph under Euclidean distance.

    Distance ties are broken by the lower vertex index, so the result is
    deterministic for a fixed input: each row's self-distance is set below
    every distance, a stable sort ranks the rest, and columns 1..k are
    kept.  ``SampleGraph`` merges the pairs found from both ends.
    """
    m = x.sample_count
    if not 1 <= k < m:
        raise ParameterError(f"k must be in [1, {m - 1}], got {k}")
    pts = x.features
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(dist, -1.0)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, 1 : k + 1]
    rows = np.repeat(np.arange(m), k)
    return SampleGraph(m, tuple(zip(rows.tolist(), nearest.reshape(-1).tolist())))


@dataclass(frozen=True)
class LaplacianMatrix:
    """Symmetric PSD Laplacian, either combinatorial or degree-normalized."""

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise LayoutError(f"Laplacian must be square, got {m.shape}")
        if self.kind not in ("combinatorial", "normalized"):
            raise ParameterError(f"unknown Laplacian kind {self.kind!r}")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise LayoutError("Laplacian must be symmetric")
        w = np.linalg.eigvalsh(m)
        if w[0] < _LAPLACIAN_PSD_TOL:
            raise ParameterError(f"Laplacian is not PSD (min eigenvalue {w[0]:.3e})")
        if self.kind == "combinatorial":
            if np.max(np.abs(m.sum(axis=1))) > 1e-10:
                raise ParameterError("combinatorial Laplacian must have zero row sums")
        else:
            if np.max(np.abs(np.diag(m) - 1.0)) > 1e-10:
                raise ParameterError("normalized Laplacian must have unit diagonal")
            if w[-1] > 2.0 + 1e-10:
                raise ParameterError(f"normalized Laplacian eigenvalue {w[-1]} above 2")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def combinatorial_laplacian(g: SampleGraph) -> LaplacianMatrix:
    """L[i, i] = d_i and L[i, j] = -1 for each edge (i, j)."""
    m = g.vertex_count
    lap = np.diag(g.degrees.astype(np.float64))
    for i, j in g.edges:
        lap[i, j] = -1.0
        lap[j, i] = -1.0
    return LaplacianMatrix(lap, "combinatorial")


def _normalized_laplacian_array(g: SampleGraph) -> np.ndarray:
    """The normalized Laplacian, unvalidated: each of its two wrappers
    validates it once."""
    lap = np.eye(g.vertex_count)
    for i, j in g.edges:
        v = -1.0 / np.sqrt(float(g.degrees[i] * g.degrees[j]))
        lap[i, j] = v
        lap[j, i] = v
    return lap


def normalized_laplacian(g: SampleGraph) -> LaplacianMatrix:
    """Unit diagonal with off-diagonal entries -1/sqrt(d_i d_j) on edges."""
    return LaplacianMatrix(_normalized_laplacian_array(g), "normalized")


def laplacian(g: SampleGraph, kind: str) -> LaplacianMatrix:
    """Dispatch on ``kind`` in {"combinatorial", "normalized"}."""
    if kind == "combinatorial":
        return combinatorial_laplacian(g)
    if kind == "normalized":
        return normalized_laplacian(g)
    raise ParameterError(f"unknown Laplacian kind {kind!r}")
