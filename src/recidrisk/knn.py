"""K-nearest-neighbor classification over encoded case vectors.

Neighbors are ranked by Euclidean distance (squared distances give the same
order). Ties in computed distance keep the lower training-row index, vote
ties resolve toward the higher risk label.

Only each query's k_max nearest rows are ranked: `np.partition` finds the
k_max-th smallest squared distance of the row, every training row at or
below it is a candidate, and one stable sort of the candidates by (query,
distance) keeps the first k_max per query. That is the (distance, lower row
index) prefix a full stable sort gives, on the same floats, for 0/1 and dense
rows alike. It needs finite distances, so `knn_fit` refuses non-finite
training values and `KNNModel.predict` non-finite queries. Queries are read
in `row_blocks` of max(1, 2**20 // n_train) rows: 8 MiB of distances at most.

`_validate` is the family's hyperparameter rule, 1 <= k <= the number of
training rows; `knn_fit` applies it first, and model selection and model
files check k through it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_LABELS, as_rows, as_xy, row_blocks, top_label


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
        _require_finite(X, "queries")
        ranked = neighbor_labels(self.train_values, self.train_labels, X, self.k)
        labels = vote(ranked, self.k)
        return labels[0] if single else labels


def _validate(k: int, n_rows: int) -> None:
    """The hyperparameter check of knn_fit on `n_rows` training rows."""
    if not 1 <= k <= n_rows:
        raise ValueError(f"k must satisfy 1 <= k <= {n_rows}, got {k}")


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"kNN {what} must be finite, found NaN or infinity")


def knn_fit(train, k: int) -> KNNModel:
    X, y = as_xy(train)
    _validate(k, X.shape[0])
    _require_finite(X, "training values")
    return KNNModel(X, y, k)


def neighbor_labels(
    train_values: np.ndarray, train_labels: np.ndarray, X, k_max: int
) -> np.ndarray:
    """(n_queries, k_max) labels of the nearest training rows of each query
    of X, 2-D float rows or a FeatureMatrix. Computed once it serves every
    k <= k_max, which is how a grid over k avoids recomputing distances.
    k_max must lie in 1..n_train, and a query whose k_max-th distance is NaN
    or infinite is refused.
    """
    if not 1 <= k_max <= train_values.shape[0]:
        raise ValueError(f"k_max must satisfy 1 <= k_max <= {train_values.shape[0]}, got {k_max}")
    train_sq = np.einsum("ij,ij->i", train_values, train_values)
    out = np.empty((X.shape[0], k_max), dtype=np.int64)
    for part, chunk in row_blocks(X, max(1, 2**20 // train_values.shape[0])):
        d2 = chunk @ train_values.T
        d2 *= -2.0
        d2 += train_sq  # query norms omitted: constant per row, order unchanged
        kth = np.partition(d2, k_max - 1, axis=1)[:, k_max - 1 : k_max]
        if not np.isfinite(kth).all():
            raise ValueError("kNN distances must be finite")
        flat = np.flatnonzero(d2 <= kth)  # row-major: each row's candidates in column order
        rows, cols = np.divmod(flat, d2.shape[1])
        order = np.lexsort((d2.ravel()[flat], rows))  # stable: equal distances keep column order
        first = np.searchsorted(rows, np.arange(len(chunk)))  # each row's first candidate
        ranked = cols[order[first[:, None] + np.arange(k_max)]]
        out[part] = train_labels[ranked]
    return out


def vote(ranked_labels: np.ndarray, k: int) -> np.ndarray:
    """Majority label among the first k columns; ties pick the higher label."""
    counts = np.stack([(ranked_labels[:, :k] == c).sum(axis=1) for c in range(N_LABELS)], axis=1)
    return top_label(counts)
