"""Decision trees and random forests for the three-class risk target.

Both learners share one growth engine with two equivalent paths:

* a per-node exact search (works for any real-valued features), and
* a level-synchronous vectorized search used when every feature value is
  0 or 1, which is what one-hot encoded corpora always are. For binary
  columns the only midpoint candidate is 0.5, so the two paths grow
  identical trees; the fast path just batches whole tree levels through
  numpy instead of visiting nodes one by one.

Split contract (both paths): the best splitter scores every
(feature, midpoint-between-distinct-values) candidate by impurity decrease;
the random splitter draws one uniform threshold per candidate feature and
keeps the best of those. Ties in decrease go to the lowest feature index,
then the lowest threshold. A node becomes a leaf at purity, at the depth
cap, or when no candidate strictly decreases impurity. Leaves predict their
majority class, ties resolved toward the higher risk label.

Randomness (thresholds for the random splitter, per-split feature subsets,
bootstrap resampling) is consumed from a single generator in breadth-first
node order, so a tree is a pure function of (data, hyperparameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_LABELS, as_xy, top_label
from .seeding import derive_rng

CRITERIA = ("entropy", "gini")
SPLITTERS = ("best", "random")

# Minimum accepted impurity decrease, scaled by node size: separates genuine
# gains (O(1) in sum-weighted units) from float noise on symmetric fixtures.
_DECREASE_TOL = 1e-10


def _impurity_sum(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Size-weighted impurity n * H(p) for count vectors along the last axis."""
    counts = counts.astype(np.float64)
    n = counts.sum(axis=-1)
    if criterion == "gini":
        with np.errstate(invalid="ignore", divide="ignore"):
            out = n - np.where(n > 0, (counts * counts).sum(axis=-1) / np.where(n > 0, n, 1.0), 0.0)
        return np.where(n > 0, out, 0.0)
    plogp = np.zeros_like(counts)
    np.multiply(counts, np.log2(counts, out=np.zeros_like(counts), where=counts > 0), out=plogp)
    nlogn = n * np.log2(n, out=np.zeros_like(n), where=n > 0)
    return nlogn - plogp.sum(axis=-1)


@dataclass
class TreeModel:
    """Flat-array binary tree; feature == -1 marks a leaf."""

    feature: np.ndarray  # (n_nodes,) int32
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int32
    right: np.ndarray  # (n_nodes,) int32
    counts: np.ndarray  # (n_nodes, 3) int64 training label counts
    n_features: int
    criterion: str = "gini"
    splitter: str = "best"
    max_depth: int | None = None

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def depth(self) -> int:
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        for i in range(self.n_nodes):
            if self.feature[i] >= 0:
                depths[self.left[i]] = depths[i] + 1
                depths[self.right[i]] = depths[i] + 1
        return int(depths.max())

    def _check_width(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected width {self.n_features}, got {X.shape[1]}")
        return X

    def predict(self, X) -> np.ndarray:
        return self.predict_at_depths(X, [self.max_depth])[0]

    def predict_at_depths(self, X, depth_cuts) -> list[np.ndarray]:
        """Labels this tree assigns when truncated at each requested depth.

        A cut of None means the full tree. One descent serves all cuts, which
        is what lets a deep tree stand in for its shallower siblings.
        """
        X = self._check_width(X)
        n = X.shape[0]
        labels = top_label(self.counts)
        node = np.zeros(n, dtype=np.int64)
        finite_cuts = sorted({c for c in depth_cuts if c is not None})
        snapshots: dict[int, np.ndarray] = {}
        level = 0
        while True:
            if finite_cuts and finite_cuts[0] == level:
                snapshots[finite_cuts.pop(0)] = labels[node]
            feats = self.feature[node]
            active = feats >= 0
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            go_right = X[rows, feats[rows]] >= self.threshold[node[rows]]
            node[rows] = np.where(go_right, self.right[node[rows]], self.left[node[rows]])
            level += 1
        final = labels[node]
        for cut in finite_cuts:  # cuts at or below the deepest reached level
            snapshots[cut] = final
        return [final if c is None else snapshots[c] for c in depth_cuts]


@dataclass
class ForestModel:
    trees: list[TreeModel]
    n_features: int
    criterion: str = "gini"
    max_depth: int | None = None
    seed: int = 0
    bootstrap: bool = True

    @property
    def n_estimators(self) -> int:
        return len(self.trees)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        votes = np.zeros((X.shape[0], N_LABELS), dtype=np.int64)
        for tree in self.trees:
            votes[np.arange(X.shape[0]), tree.predict(X)] += 1
        return top_label(votes)


def _validate(criterion: str, splitter: str, max_depth) -> None:
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    if splitter not in SPLITTERS:
        raise ValueError(f"splitter must be one of {SPLITTERS}")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be a positive integer or None")


def _is_binary(X: np.ndarray) -> bool:
    return bool(((X == 0.0) | (X == 1.0)).all())


def tree_fit(
    train,
    criterion: str = "gini",
    splitter: str = "best",
    max_depth: int | None = None,
    seed: int = 0,
    _force_path: str | None = None,
) -> TreeModel:
    X, y = as_xy(train)
    _validate(criterion, splitter, max_depth)
    if X.shape[0] < 1:
        raise ValueError("cannot fit a tree on an empty training set")
    rng = derive_rng(seed, "tree")
    rows = np.arange(X.shape[0])
    arrays = _grow(X, y, rows, criterion, splitter, max_depth, X.shape[1], rng, _force_path)
    return TreeModel(*arrays, n_features=X.shape[1], criterion=criterion,
                     splitter=splitter, max_depth=max_depth)


def forest_fit(
    train,
    criterion: str = "gini",
    n_estimators: int = 100,
    max_depth: int | None = None,
    seed: int = 0,
    bootstrap: bool = True,
) -> ForestModel:
    X, y = as_xy(train)
    _validate(criterion, "best", max_depth)
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    if X.shape[0] < 1:
        raise ValueError("cannot fit a forest on an empty training set")
    trees = [
        _forest_tree(X, y, criterion, max_depth, seed, i, bootstrap)
        for i in range(n_estimators)
    ]
    return ForestModel(trees, n_features=X.shape[1], criterion=criterion,
                       max_depth=max_depth, seed=seed, bootstrap=bootstrap)


def _forest_tree(X, y, criterion, max_depth, seed, tree_index, bootstrap) -> TreeModel:
    """One ensemble member: bootstrap then grow, all from the per-tree stream."""
    rng = derive_rng(seed, "forest-tree", tree_index)
    n = X.shape[0]
    rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
    max_features = int(np.ceil(np.sqrt(X.shape[1])))
    arrays = _grow(X, y, rows, criterion, "best", max_depth, max_features, rng, None)
    return TreeModel(*arrays, n_features=X.shape[1], criterion=criterion,
                     splitter="best", max_depth=max_depth)


# ---------------------------------------------------------------------------
# Growth engine.

def _grow(X, y, rows, criterion, splitter, max_depth, max_features, rng, force_path):
    binary = _is_binary(X) if force_path is None else (force_path == "binary")
    if binary:
        return _grow_binary(X, y, rows, criterion, splitter, max_depth, max_features, rng)
    return _grow_general(X, y, rows, criterion, splitter, max_depth, max_features, rng)


def _draw_features(rng, d: int, m: int) -> np.ndarray:
    if m >= d:
        return np.arange(d)
    feats = rng.permutation(d)[:m]
    feats.sort()  # candidate order fixes the tie rule at the lowest feature index
    return feats


class _TreeArrays:
    """Append-only builder for the flat tree representation."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.counts: list[np.ndarray] = []

    def add_node(self, counts) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.counts.append(np.asarray(counts, dtype=np.int64))
        return len(self.feature) - 1

    def set_split(self, node: int, feature: int, threshold: float, left: int, right: int):
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right

    def finish(self):
        return (
            np.asarray(self.feature, dtype=np.int32),
            np.asarray(self.threshold, dtype=np.float64),
            np.asarray(self.left, dtype=np.int32),
            np.asarray(self.right, dtype=np.int32),
            np.vstack(self.counts).astype(np.int64),
        )


def _class_counts(y_part: np.ndarray) -> np.ndarray:
    return np.bincount(y_part, minlength=N_LABELS).astype(np.int64)


def _grow_general(X, y, rows, criterion, splitter, max_depth, max_features, rng):
    """Breadth-first exact growth, one node at a time."""
    tree = _TreeArrays()
    root = tree.add_node(_class_counts(y[rows]))
    queue = [(root, rows, 0)]
    while queue:
        next_queue = []
        for node, node_rows, depth in queue:
            counts = tree.counts[node]
            n_node = int(counts.sum())
            if counts.max() == n_node or (max_depth is not None and depth >= max_depth):
                continue
            feats = _draw_features(rng, X.shape[1], max_features)
            Xn = X[node_rows][:, feats]
            yn = y[node_rows]
            if splitter == "random":
                found = _random_candidates(Xn, yn, counts, criterion, rng)
            else:
                found = _best_candidates(Xn, yn, counts, criterion)
            if found is None:
                continue
            j, threshold = found
            feature = int(feats[j])
            go_left = X[node_rows, feature] < threshold
            left_rows, right_rows = node_rows[go_left], node_rows[~go_left]
            left = tree.add_node(_class_counts(y[left_rows]))
            right = tree.add_node(_class_counts(y[right_rows]))
            tree.set_split(node, feature, threshold, left, right)
            next_queue.append((left, left_rows, depth + 1))
            next_queue.append((right, right_rows, depth + 1))
        queue = next_queue
    return tree.finish()


def _best_candidates(Xn, yn, counts, criterion):
    """Exhaustive (feature, midpoint) search on one node; None when no gain."""
    n, m = Xn.shape
    order = np.argsort(Xn, axis=0, kind="stable")
    Xs = np.take_along_axis(Xn, order, axis=0)
    onehot = (yn[order][:, :, None] == np.arange(N_LABELS)).astype(np.float64)
    left = np.cumsum(onehot, axis=0)[:-1]  # (n-1, m, 3): split after sorted position i
    right = counts.astype(np.float64) - left
    valid = Xs[:-1] < Xs[1:]
    decrease = (
        _impurity_sum(counts, criterion)
        - _impurity_sum(left, criterion)
        - _impurity_sum(right, criterion)
    )
    decrease[~valid] = -np.inf
    tol = _DECREASE_TOL * max(n, 1)
    best = decrease.max(initial=-np.inf)
    if not best > tol:
        return None
    cut_idx, feat_idx = np.nonzero(decrease == best)
    thresholds = (Xs[cut_idx, feat_idx] + Xs[cut_idx + 1, feat_idx]) / 2.0
    pick = np.lexsort((thresholds, feat_idx))[0]
    return int(feat_idx[pick]), float(thresholds[pick])


def _random_candidates(Xn, yn, counts, criterion, rng):
    """One uniform threshold per candidate feature; best of those, or None."""
    n, m = Xn.shape
    u = rng.random(m)
    lo, hi = Xn.min(axis=0), Xn.max(axis=0)
    thresholds = lo + u * (hi - lo)
    mask = Xn < thresholds[None, :]
    left = np.empty((m, N_LABELS), dtype=np.float64)
    for c in range(N_LABELS):
        left[:, c] = mask[yn == c].sum(axis=0)
    right = counts.astype(np.float64) - left
    valid = (left.sum(axis=1) > 0) & (right.sum(axis=1) > 0)
    decrease = (
        _impurity_sum(counts, criterion)
        - _impurity_sum(left, criterion)
        - _impurity_sum(right, criterion)
    )
    decrease[~valid] = -np.inf
    tol = _DECREASE_TOL * max(n, 1)
    best = decrease.max(initial=-np.inf)
    if not best > tol:
        return None
    candidates = np.nonzero(decrease == best)[0]
    pick = candidates[np.lexsort((thresholds[candidates], candidates))[0]]
    return int(pick), float(thresholds[pick])


def _grow_binary(X, y, rows, criterion, splitter, max_depth, max_features, rng):
    """Level-synchronous growth for {0,1}-valued features.

    All nodes of a level are searched with a handful of array operations:
    for binary columns the left side of any candidate is exactly the x == 0
    rows, so class counts come from segment sums instead of per-node sorts.
    """
    d = X.shape[1]
    m = min(max_features, d)
    tree = _TreeArrays()
    root = tree.add_node(_class_counts(y[rows]))

    order = rows.copy()
    node_ids = np.array([root], dtype=np.int64)
    lengths = np.array([order.shape[0]], dtype=np.int64)
    counts = tree.counts[root][None, :].astype(np.float64)
    level = 0

    while node_ids.size:
        pure = counts.max(axis=1) == lengths
        capped = max_depth is not None and level >= max_depth
        search = ~pure if not capped else np.zeros_like(pure)
        if not search.any():
            break

        # Drop settled leaves from the frame before searching.
        keep_pos = np.repeat(search, lengths)
        order = order[keep_pos]
        node_ids, lengths, counts = node_ids[search], lengths[search], counts[search]
        s = node_ids.size
        starts = np.concatenate(([0], np.cumsum(lengths)))[:-1]

        # Per-node draws, interleaved in node order exactly as the
        # breadth-first path consumes them (subset first, then thresholds).
        if m < d:
            feats = np.empty((s, m), dtype=np.int64)
        else:
            feats = np.broadcast_to(np.arange(d), (s, d))
        u = np.empty((s, m), dtype=np.float64) if splitter == "random" else None
        for i in range(s):
            if m < d:
                feats[i] = _draw_features(rng, d, m)
            if u is not None:
                u[i] = rng.random(m)

        pos_node = np.repeat(np.arange(s), lengths)
        Xsub = X[order[:, None], feats[pos_node]]
        ysub = y[order]

        ones = np.empty((s, m, N_LABELS), dtype=np.float64)
        for c in range(N_LABELS):
            ones[:, :, c] = np.add.reduceat(Xsub * (ysub == c)[:, None], starts, axis=0)
        n_right = ones.sum(axis=2)
        n_left = lengths[:, None] - n_right

        if splitter == "random":
            lo = np.where(n_left > 0, 0.0, 1.0)
            hi = np.where(n_right > 0, 1.0, 0.0)
            thresholds = lo + u * (hi - lo)
            valid = (n_left > 0) & (n_right > 0) & (thresholds > 0)
        else:
            thresholds = np.full((s, m), 0.5)
            valid = (n_left > 0) & (n_right > 0)

        left = counts[:, None, :] - ones
        decrease = (
            _impurity_sum(counts, criterion)[:, None]
            - _impurity_sum(left, criterion)
            - _impurity_sum(ones, criterion)
        )
        decrease[~valid] = -np.inf
        best_j = np.argmax(decrease, axis=1)  # first max = lowest feature (feats sorted)
        node_range = np.arange(s)
        best_dec = decrease[node_range, best_j]
        splits = best_dec > _DECREASE_TOL * np.maximum(lengths, 1)

        if not splits.any():
            break

        # Register children for splitting nodes, left before right, node order.
        split_idx = np.nonzero(splits)[0]
        child_node_ids = np.empty((split_idx.size, 2), dtype=np.int64)
        child_counts = np.empty((split_idx.size, 2, N_LABELS), dtype=np.float64)
        for k, i in enumerate(split_idx):
            j = best_j[i]
            left_c, right_c = left[i, j], ones[i, j]
            lid = tree.add_node(left_c)
            rid = tree.add_node(right_c)
            tree.set_split(int(node_ids[i]), int(feats[i, j]), float(thresholds[i, j]), lid, rid)
            child_node_ids[k] = (lid, rid)
            child_counts[k] = (left_c, right_c)

        # Partition surviving rows to their child, preserving node order.
        local_new = np.full(s, -1, dtype=np.int64)
        local_new[split_idx] = np.arange(split_idx.size)
        row_split = splits[pos_node]
        rows_keep = order[row_split]
        feat_per_row = feats[pos_node, best_j[pos_node]][row_split]
        thr_per_row = thresholds[pos_node, best_j[pos_node]][row_split]
        go_right = X[rows_keep, feat_per_row] >= thr_per_row
        child_key = 2 * local_new[pos_node[row_split]] + go_right
        sort_idx = np.argsort(child_key, kind="stable")

        order = rows_keep[sort_idx]
        node_ids = child_node_ids.reshape(-1)
        counts = child_counts.reshape(-1, N_LABELS)
        lengths = counts.sum(axis=1).astype(np.int64)
        level += 1

    return tree.finish()
