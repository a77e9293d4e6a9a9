"""Nearest centroid classification with optional centroid shrinkage.

Each class present in the training data is summarized by its mean vector;
a query takes the label of the nearest centroid under the configured metric,
with exact distance ties resolved toward the higher risk label.

Shrinkage pulls per-class centroid offsets toward the overall centroid and
acts as feature selection. With pooled within-class deviations s_j,
s_0 = median_j(s_j) and m_k = sqrt(1/n_k - 1/n), the standardized offsets

    d_kj = (mean_kj - mean_j) / (m_k * (s_j + s_0))

are soft-thresholded at delta,

    d'_kj = sign(d_kj) * max(|d_kj| - delta, 0),

and the shrunken centroids are mean_j + m_k * (s_j + s_0) * d'_kj. Features
whose offsets vanish for every class no longer influence any distance.

A fit is two steps. `nc_stats` makes the one pass over the training rows
that no hyperparameter changes: classes, per-class counts, class centroids,
the overall centroid and, when asked for, s_j. `nc_shrink` then builds the
model of one (metric, shrink threshold, p) from those statistics, so every
threshold and metric of a search shares one pass. `nc_fit` is the two in a
row, and skips s_j when it fits without shrinkage.

`_validate` is the family's hyperparameter rule (a known metric, p >= 1 for
minkowski, a shrink threshold >= 0 or None); `nc_fit` applies it first, and
model selection and model files check the same values through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import QUERY_CHUNK, as_rows, as_xy

METRICS = ("euclidean", "manhattan", "minkowski")

# Floor for the median deviation on degenerate (near-constant) data; leaves
# non-degenerate fits untouched.
_S0_REL_FLOOR = 1e-6
_S0_ABS_FLOOR = 1e-12


@dataclass
class NearestCentroidModel:
    classes: np.ndarray  # sorted labels present at fit time
    centroids: np.ndarray  # (k, d) raw class means
    overall_centroid: np.ndarray  # (d,)
    s: np.ndarray | None  # (d,) pooled within-class deviations (shrinkage only)
    s0: float | None
    offsets: np.ndarray | None  # (k, d) soft-thresholded d'_kj
    shrunken_centroids: np.ndarray | None
    metric: str = "euclidean"
    p: float = 2.0
    shrink_threshold: float | None = None

    @property
    def effective_centroids(self) -> np.ndarray:
        return self.centroids if self.shrink_threshold is None else self.shrunken_centroids

    @property
    def width(self) -> int:
        return self.centroids.shape[1]

    def selected_features(self) -> np.ndarray:
        """Mask of features with a nonzero shrunken offset in any class."""
        if self.offsets is None:
            return np.ones(self.width, dtype=bool)
        return (self.offsets != 0).any(axis=0)

    def predict(self, X) -> np.ndarray:
        X, single = as_rows(X, self.width)
        centroids, pick = self.effective_centroids, np.empty(X.shape[0], dtype=np.intp)
        for start in range(0, X.shape[0], QUERY_CHUNK):
            dist = _distances(X[start : start + QUERY_CHUNK], centroids, self.metric, self.p)
            # last argmin over ascending classes = higher-risk label on exact ties
            pick[start : start + QUERY_CHUNK] = dist.shape[1] - 1 - np.argmin(dist[:, ::-1], axis=1)
        labels = self.classes[pick]
        return labels[0] if single else labels


def distance_of(metric: str, p: float) -> str:
    """The distance `predict` computes for (metric, p). Minkowski of order 2 or 1
    takes the euclidean or manhattan path, so its predictions match those
    metrics bit for bit, not just in the limit."""
    if metric == "minkowski" and p in (1.0, 2.0):
        return "euclidean" if p == 2.0 else "manhattan"
    return metric


def _distances(X: np.ndarray, centroids: np.ndarray, metric: str, p: float) -> np.ndarray:
    metric = distance_of(metric, p)
    diff = np.abs(X[:, None, :] - centroids[None, :, :])
    if metric == "manhattan":
        return diff.sum(axis=2)
    if metric == "euclidean":
        return np.sqrt((diff * diff).sum(axis=2))
    return (diff**p).sum(axis=2) ** (1.0 / p)


def _validate(metric: str, shrink_threshold, p) -> None:
    """The hyperparameter checks of nc_fit."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if metric == "minkowski" and p < 1:
        raise ValueError("minkowski order p must be >= 1")
    if shrink_threshold is not None and shrink_threshold < 0:
        raise ValueError("shrink_threshold must be >= 0 or None")


@dataclass(frozen=True)
class ClassStats:
    """What a fit learns from the training rows before any hyperparameter."""

    classes: np.ndarray  # sorted labels present
    counts: np.ndarray  # (k,) training rows per class
    centroids: np.ndarray  # (k, d) class means
    overall: np.ndarray  # (d,) mean of all rows
    s: np.ndarray | None  # (d,) pooled within-class deviations, if asked for


def nc_stats(train, deviations: bool) -> ClassStats:
    """The class statistics of `train`; s_j only with `deviations`, as shrinkage alone needs it.

    Every sum runs over blocks of QUERY_CHUNK rows, in row order: each block is
    added to the running sum as one reduction over the running sum stacked on
    the block, which adds the rows in the order one reduction over all rows
    would. So the centroids, the overall centroid and s_j equal the
    whole-array means and sums bit for bit, and no temporary is larger than a
    block.
    """
    X, y = as_xy(train)
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty training set")
    classes, y_idx = np.unique(y, return_inverse=True)
    k, n = classes.size, X.shape[0]
    counts = np.bincount(y_idx, minlength=k)
    blocks = [slice(start, start + QUERY_CHUNK) for start in range(0, n, QUERY_CHUNK)]
    sums, total = [None] * k, None
    for rows in blocks:
        block, block_idx = X[rows], y_idx[rows]
        total = _add_rows(total, block)
        for i in range(k):
            sums[i] = _add_rows(sums[i], block[block_idx == i])
    centroids = np.array(sums) / counts[:, None]
    s = None
    if deviations:
        squares = None
        for rows in blocks:
            within = X[rows] - centroids[y_idx[rows]]
            squares = _add_rows(squares, within * within)
        s = np.sqrt(squares / max(n - k, 1))
    return ClassStats(classes, counts, centroids, total / n, s)


def _add_rows(total: np.ndarray | None, rows: np.ndarray) -> np.ndarray | None:
    """`total` (None before the first row) plus the column sums of `rows`, added
    in row order after it."""
    if rows.shape[0] == 0:
        return total
    return np.add.reduce(rows if total is None else np.vstack((total, rows)), axis=0)


def nc_shrink(stats: ClassStats, metric: str, shrink_threshold: float | None,
              p: float) -> NearestCentroidModel:
    """The model of one (metric, shrink_threshold, p) on `stats`, which must hold s_j
    when `shrink_threshold` is not None. The values are not checked: see `_validate`."""
    classes, centroids, overall = stats.classes, stats.centroids, stats.overall
    if shrink_threshold is None:
        return NearestCentroidModel(
            classes, centroids, overall, None, None, None, None, metric, p, None
        )

    tiny = classes[stats.counts < 2]
    if tiny.size:
        raise ValueError(
            f"shrinkage needs >= 2 training rows per class; class {int(tiny[0])} has fewer"
        )
    s, n = stats.s, int(stats.counts.sum())
    s0 = float(max(np.median(s), _S0_REL_FLOOR * s.max(initial=0.0), _S0_ABS_FLOOR))
    m = np.sqrt(1.0 / stats.counts - 1.0 / n)  # (k,)
    scale = m[:, None] * (s + s0)[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        d_kj = np.where(scale > 0, (centroids - overall) / np.where(scale > 0, scale, 1.0), 0.0)
    offsets = np.sign(d_kj) * np.maximum(np.abs(d_kj) - shrink_threshold, 0.0)
    shrunken = overall + scale * offsets
    return NearestCentroidModel(
        classes, centroids, overall, s, s0, offsets, shrunken, metric, p, shrink_threshold
    )


def nc_fit(
    train,
    metric: str = "euclidean",
    shrink_threshold: float | None = None,
    p: float = 2.0,
) -> NearestCentroidModel:
    _validate(metric, shrink_threshold, p)
    stats = nc_stats(train, deviations=shrink_threshold is not None)
    return nc_shrink(stats, metric, shrink_threshold, p)
