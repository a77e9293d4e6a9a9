"""K-nearest-neighbor classification over encoded case vectors.

Neighbors are ranked by Euclidean distance (squared distances give the same
order). Ties in computed distance keep the lower training-row index, vote
ties resolve toward the higher risk label.

`_validate` is the family's hyperparameter rule, 1 <= k <= the number of
training rows; `knn_fit` applies it first, and model selection and model
files check k through it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_LABELS, QUERY_CHUNK, as_rows, as_xy, top_label


@dataclass
class KNNModel:
    train_values: np.ndarray
    train_labels: np.ndarray
    k: int

    @property
    def width(self) -> int:
        return self.train_values.shape[1]

    def predict(self, X) -> np.ndarray:
        X, single = as_rows(X, self.width)
        ranked = neighbor_labels(self.train_values, self.train_labels, X, self.k)
        labels = vote(ranked, self.k)
        return labels[0] if single else labels


def _validate(k: int, n_rows: int) -> None:
    """The hyperparameter check of knn_fit on `n_rows` training rows."""
    if not 1 <= k <= n_rows:
        raise ValueError(f"k must satisfy 1 <= k <= {n_rows}, got {k}")


def knn_fit(train, k: int) -> KNNModel:
    X, y = as_xy(train)
    _validate(k, X.shape[0])
    return KNNModel(X, y, k)


def neighbor_labels(
    train_values: np.ndarray, train_labels: np.ndarray, X: np.ndarray, k_max: int
) -> np.ndarray:
    """(n_queries, k_max) labels of each query's nearest training rows.

    Computed once it serves every k <= k_max, which is how a grid over k
    avoids recomputing distances.
    """
    train_sq = np.einsum("ij,ij->i", train_values, train_values)
    out = np.empty((X.shape[0], k_max), dtype=np.int64)
    for start in range(0, X.shape[0], QUERY_CHUNK):
        chunk = X[start : start + QUERY_CHUNK]
        d2 = train_sq[None, :] - 2.0 * (chunk @ train_values.T)
        # query norms omitted: constant per row, order unchanged
        ranked = np.argsort(d2, axis=1, kind="stable")[:, :k_max]
        out[start : start + QUERY_CHUNK] = train_labels[ranked]
    return out


def vote(ranked_labels: np.ndarray, k: int) -> np.ndarray:
    """Majority label among the first k columns; ties pick the higher label."""
    counts = np.stack([(ranked_labels[:, :k] == c).sum(axis=1) for c in range(N_LABELS)], axis=1)
    return top_label(counts)
