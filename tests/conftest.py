"""Shared fixtures, random-object helpers, and reference functions that
only the tests use (Uhlmann fidelity, the maximally mixed state, the
training objective, reading a report back).  Every ``simulate`` report
that a test produces is validated against ``REPORT_SCHEMA``."""

import functools
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import settings

from qsslsvm import pipeline
from qsslsvm.channels import ProgramState, generator_terms, make_program_state
from qsslsvm.datasets import (
    LaplacianMatrix,
    SampleGraph,
    TrainingSet,
    _detect_delimiter,
    _read_text,
    _split,
    build_knn_graph,
    load_dataset,
)
from qsslsvm.encodings import DensityMatrix
from qsslsvm.errors import DegreeError, ParameterError, ParseError
from qsslsvm.linalg import as_matrix, hermitian_eig, hermitian_part

DATA = Path(__file__).parent / "data"

# property tests draw the same examples on every run and are never timed out
settings.register_profile("seeded", derandomize=True, deadline=None, database=None)
settings.load_profile("seeded")


@pytest.fixture(scope="session", autouse=True)
def simulate_reports_match_schema():
    """``run_pipeline``, wherever a module bound it, validates each report it
    returns against ``REPORT_SCHEMA``: the CLI, the package and the test
    modules reach it through the same wrapper."""
    original = pipeline.run_pipeline

    @functools.wraps(original)
    def validated(*args, **kwargs):
        report = original(*args, **kwargs)
        jsonschema.validate(report, pipeline.REPORT_SCHEMA)
        return report

    with pytest.MonkeyPatch.context() as patch:
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get("run_pipeline") is original:
                patch.setattr(module, "run_pipeline", validated)
        yield


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def cluster8() -> TrainingSet:
    return load_dataset(DATA / "two_cluster_8.csv")


@pytest.fixture(scope="session")
def cluster8_graph(cluster8) -> SampleGraph:
    return build_knn_graph(cluster8, 2)


@pytest.fixture(scope="session")
def cluster4() -> TrainingSet:
    return load_dataset(DATA / "two_cluster_4.csv")


@pytest.fixture(scope="session")
def cluster4_graph(cluster4) -> SampleGraph:
    return build_knn_graph(cluster4, 1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240911)


@pytest.fixture
def eig_calls(monkeypatch) -> list[tuple[str, np.ndarray]]:
    """(name, copy of the input) for every ``numpy.linalg.eigh`` and
    ``eigvalsh`` call made while the test runs."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, np.array(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def random_density(rng: np.random.Generator, d: int, real: bool = False) -> DensityMatrix:
    """Random full-rank density matrix (Wishart normalized to unit trace)."""
    a = rng.normal(size=(d, d))
    if not real:
        a = a + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def term_state(k: DensityMatrix, term: str, l: DensityMatrix | None = None) -> ProgramState:
    """``make_program_state`` of the ``generator_terms`` entry ``term``
    ("k", "kk" or "klk") of K and L; L defaults to K for the terms without it."""
    return make_program_state(k.matrix, generator_terms(k, k if l is None else l)[term])


def random_pure_density(rng: np.random.Generator, d: int) -> DensityMatrix:
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    vec /= np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def random_connected_graph(rng: np.random.Generator, m: int, extra_edges: int = 3) -> SampleGraph:
    """Random spanning path plus extra random edges (no isolated vertices)."""
    perm = rng.permutation(m)
    edges = {(min(perm[i], perm[i + 1]), max(perm[i], perm[i + 1])) for i in range(m - 1)}
    for _ in range(extra_edges):
        i, j = rng.choice(m, size=2, replace=False)
        edges.add((min(i, j), max(i, j)))
    return SampleGraph(m, tuple(sorted(edges)))


def random_training_set(rng: np.random.Generator, m: int, p: int) -> TrainingSet:
    x = rng.normal(size=(m, p))
    # keep every row encodable
    x[np.linalg.norm(x, axis=1) < 1e-3] += 1.0
    labeled = int(rng.integers(1, m + 1))
    y = np.zeros(m)
    y[:labeled] = rng.choice([-1.0, 1.0], size=labeled)
    return TrainingSet(x, y, labeled)


def knn_edges_by_sort(x: np.ndarray, k: int) -> tuple[tuple[int, int], ...]:
    """Union k-nearest-neighbor edges by a per-row Python sort of (distance,
    index) pairs, so ties go to the lower index (oracle for the vectorized
    ``build_knn_graph``)."""
    m = x.shape[0]
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    edges = set()
    for i in range(m):
        order = sorted((dist[i, j], j) for j in range(m) if j != i)
        for _, j in order[:k]:
            edges.add((min(i, j), max(i, j)))
    return tuple(sorted(edges))


def sample_graph_by_loop(m: int, pairs) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """Deduplicated sorted edges and degrees of ``SampleGraph(m, pairs)`` by
    a per-edge Python loop, raising the same errors in the same order
    (oracle for the vectorized constructor)."""
    m = int(m)
    if m < 1:
        raise ParameterError(f"vertex count must be >= 1, got {m}")
    seen = set()
    normalized = []
    for edge in pairs:
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
        raise DegreeError(f"{len(normalized)} edges leave some of {m} vertices isolated")
    deg = np.zeros(m, dtype=np.int64)
    for i, j in normalized:
        deg[i] += 1
        deg[j] += 1
    if np.any(deg == 0):
        isolated = int(np.flatnonzero(deg == 0)[0])
        raise DegreeError(f"vertex {isolated} is isolated (degree 0)")
    return tuple(normalized), deg


def read_table_by_loop(
    source, label_required: bool, nonzero: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Features and last column of a table by a per-field ``float()`` loop
    and a per-row sum of squares in field order (uncompensated, as ``sum``
    adds floats before Python 3.12), raising the same errors on the same
    lines (oracle for the vectorized ``datasets._read_table``)."""
    text = _read_text(source)
    rows = [(i + 1, line) for i, line in enumerate(text.splitlines()) if line.strip()]
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
        norm2 = 0.0
        for v in values[:p]:
            norm2 += v * v
        if not math.isfinite(norm2):
            raise ParseError("sum of squared features overflows float64", lineno)
        if nonzero and norm2 == 0.0:
            raise ParseError("point has zero norm and cannot be encoded as a state", lineno)
        if label_required and values[-1] not in (-1.0, 0.0, 1.0):
            raise ParseError(f"label must be -1, 0 or +1, got {values[-1]}", lineno)
        feats.append(values[:p])
        last.append(values[-1])
    if not feats:
        raise ParseError("no data rows")
    return np.array(feats), np.array(last)


def maximally_mixed(dim: int) -> DensityMatrix:
    """I/d on a single register."""
    return DensityMatrix(np.eye(dim) / dim)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix (tiny negatives clipped)."""
    eig = hermitian_eig(m)
    return eig.apply(lambda w: np.sqrt(np.clip(w, 0.0, None)))


def density_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``."""
    r = psd_sqrt(rho)
    inner = r @ as_matrix(sigma) @ r
    w = np.linalg.eigvalsh(hermitian_part(inner))
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def objective_value(
    k: np.ndarray,
    l: np.ndarray | LaplacianMatrix,
    y: np.ndarray,
    gamma: float,
    alpha: np.ndarray,
) -> float:
    """Quadratic training objective whose gradient is A alpha - K y."""
    lm = l.matrix if isinstance(l, LaplacianMatrix) else np.asarray(l, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    f = k @ alpha
    return float(
        -alpha @ (k @ y)
        + 0.5 * f @ f
        + 0.5 * alpha @ f / gamma
        + 0.5 * f @ lm @ f / gamma
    )


def load_report(path: str | Path) -> dict:
    """A JSON report written by ``emit_report``, read back."""
    with open(path) as fh:
        return json.load(fh)
