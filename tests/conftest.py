"""Shared fixtures and random-object helpers."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from qsslsvm.datasets import SampleGraph, TrainingSet, build_knn_graph, load_dataset
from qsslsvm.encodings import DensityMatrix
from qsslsvm.linalg import TensorLayout

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


def random_density(rng: np.random.Generator, d: int, real: bool = False) -> DensityMatrix:
    """Random full-rank density matrix (Wishart normalized to unit trace)."""
    a = rng.normal(size=(d, d))
    if not real:
        a = a + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real, TensorLayout((d,)))


def random_pure_density(rng: np.random.Generator, d: int) -> DensityMatrix:
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    vec /= np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()), TensorLayout((d,)))


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
