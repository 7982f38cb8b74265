"""Seeded inputs and numpy-only reference solutions.

Everything the program under test reads is generated here from the
benchmark seed: two-cluster datasets with a fraction of rows labeled and
Gaussian query points, written as delimited text files.  The reference
solutions that the correctness gates compare against are computed here
with numpy alone, never with the package being measured.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: Filter threshold on A/tr(A) and regularization weight; both are the
#: program's defaults, which every workload uses.
SIGMA = 0.05
GAMMA = 1.0


def two_cluster(rng: np.random.Generator, m: int, p: int, labeled_frac: float,
                sep: float = 2.0, noise: float = 0.7) -> tuple[np.ndarray, np.ndarray]:
    """m points around +-sep along a random unit direction, half per class.

    round(labeled_frac * m) rows (at least one per class) keep their class
    as label; the rest are labeled 0.  Rows are in random order, so the
    program has to move the labeled ones first.
    """
    direction = rng.normal(size=p)
    direction /= np.linalg.norm(direction)
    cls = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    rng.shuffle(cls)
    x = cls[:, None] * sep * direction[None, :] + noise * rng.normal(size=(m, p))
    n_lab = max(2, round(labeled_frac * m))
    pos, neg = np.flatnonzero(cls > 0), np.flatnonzero(cls < 0)
    chosen = np.concatenate([pos[: (n_lab + 1) // 2], neg[: n_lab // 2]])
    labels = np.zeros(m)
    labels[chosen] = cls[chosen]
    return x, labels


def query_points(rng: np.random.Generator, n: int, p: int, scale: float = 2.0) -> np.ndarray:
    return scale * rng.normal(size=(n, p))


def write_table(path: Path, x: np.ndarray, labels: np.ndarray | None = None) -> Path:
    """Comma-separated table with header f1..fp[,label]; floats round-trip."""
    header = [f"f{i + 1}" for i in range(x.shape[1])] + ([] if labels is None else ["label"])
    lines = [",".join(header)]
    for i, row in enumerate(x):
        fields = [repr(float(v)) for v in row]
        if labels is not None:
            fields.append(str(int(labels[i])))
        lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n")
    return path


def labeled_first(x: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The documented load order: labeled rows, then unlabeled, each stable."""
    order = np.concatenate([np.flatnonzero(labels != 0), np.flatnonzero(labels == 0)])
    return x[order], labels[order]


def knn_edges(x: np.ndarray, k: int) -> list[tuple[int, int]]:
    """Symmetric (union) k-nearest-neighbour edges (i < j), ties to the lower index."""
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(dist, np.inf)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(x.shape[0]), k)
    cols = nearest.reshape(-1)
    pairs = np.unique(np.stack([np.minimum(rows, cols), np.maximum(rows, cols)], axis=1), axis=0)
    return [(int(i), int(j)) for i, j in pairs]


def laplacian(m: int, edges: list[tuple[int, int]], kind: str) -> np.ndarray:
    adj = np.zeros((m, m))
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1.0
    deg = adj.sum(axis=1)
    if kind == "combinatorial":
        return np.diag(deg) - adj
    inv_sqrt = 1.0 / np.sqrt(deg)
    return np.eye(m) - inv_sqrt[:, None] * adj * inv_sqrt[None, :]


def gram(a: np.ndarray, b: np.ndarray, kernel: str) -> np.ndarray:
    """Kernel values for the CLI specs ``linear``, ``poly:d,c`` and ``rbf:w``."""
    name, _, args = kernel.partition(":")
    inner = a @ b.T
    if name == "linear":
        return inner
    if name == "poly":
        degree, offset = args.split(",")
        return (inner + float(offset)) ** int(degree)
    width = float(args)
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2 * inner
    return np.exp(-np.clip(sq, 0.0, None) / (2.0 * width**2))


class FilteredSolve:
    """Eigenvalue-filtered solve of (K/g + KK + KLK/g) alpha = K y on A/tr(A)."""

    def __init__(self, k: np.ndarray, lap: np.ndarray, y: np.ndarray):
        a = k / GAMMA + k @ k + (k @ lap @ k) / GAMMA
        self.a = (a + a.T) / 2
        self.rhs = k @ y
        trace = float(np.trace(self.a))
        w, v = np.linalg.eigh(self.a / trace)
        self.spectrum = w
        keep = w >= SIGMA
        self.retained = v[:, keep]
        self.alpha = self.retained @ ((self.retained.T @ (self.rhs / trace)) / w[keep])

    def retained_residual(self, alpha: np.ndarray) -> float:
        """Relative residual of ``alpha`` on the retained eigenspace."""
        resid = self.retained.T @ (self.a @ alpha - self.rhs)
        return float(np.linalg.norm(resid) / max(np.linalg.norm(self.retained.T @ self.rhs), 1e-300))


def decided_labels(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign labels (0 maps to +1) and a mask of scores far enough from the
    decision boundary that roundoff cannot flip them."""
    labels = np.where(scores >= 0, 1, -1)
    decided = np.abs(scores) > 1e-9 * max(float(np.max(np.abs(scores))), 1e-300)
    return labels, decided


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 of two vectors after normalization."""
    return float(abs(np.vdot(unit(a), unit(b))) ** 2)
