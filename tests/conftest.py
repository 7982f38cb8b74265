"""Shared fixtures, random-object helpers, and reference functions that
only the tests use (Uhlmann fidelity, the maximally mixed state, the
training objective)."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from qsslsvm.datasets import (
    LaplacianMatrix,
    SampleGraph,
    TrainingSet,
    build_knn_graph,
    load_dataset,
)
from qsslsvm.encodings import DensityMatrix
from qsslsvm.linalg import as_matrix, hermitian_eig, hermitian_part

DATA = Path(__file__).parent / "data"

# property tests draw the same examples on every run and are never timed out
settings.register_profile("seeded", derandomize=True, deadline=None, database=None)
settings.load_profile("seeded")


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
