"""Decision trees and random forests for the three-class risk target.

Trees take 0/1 features, the one-hot rows that `encode_cases` produces, and
reject any other value with a ValueError. One growth engine serves both
learners: it grows a tree level by level, with one draw and one count per
level. For a 0/1 column the only partition is x == 0 against x == 1, so one
bincount over (node, class, feature) keys gives every candidate's class counts.

Split contract: the best splitter scores every (feature, midpoint between
distinct values) candidate by impurity decrease; the random splitter draws
one uniform threshold per candidate feature between the node's smallest and
largest value of it, and keeps the best of those. Ties in decrease go to the
lowest feature index. A node becomes a leaf at purity, at the depth cap, or
when no candidate strictly decreases impurity. Leaves predict their majority
class, ties resolved toward the higher risk label. On 0/1 features both
splitters make the same partitions; a random threshold is its uniform draw u,
and a candidate whose u is exactly 0 is invalid.

Randomness (thresholds for the random splitter, per-split feature subsets,
bootstrap resampling) comes from a single generator, consumed as if node after
node in breadth-first order; each level takes its draws in one call, so a tree
is a pure function of (data, hyperparameters, seed).
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


def _validate(criterion: str, splitter: str, max_depth, n_estimators: int = 1) -> None:
    """The hyperparameter checks of tree_fit and forest_fit."""
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    if splitter not in SPLITTERS:
        raise ValueError(f"splitter must be one of {SPLITTERS}")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be a positive integer or None")
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")


def tree_fit(
    train,
    criterion: str = "gini",
    splitter: str = "best",
    max_depth: int | None = None,
    seed: int = 0,
) -> TreeModel:
    X, y = as_xy(train)
    _validate(criterion, splitter, max_depth)
    if X.shape[0] < 1:
        raise ValueError("cannot fit a tree on an empty training set")
    rng = derive_rng(seed, "tree")
    rows = np.arange(X.shape[0])
    arrays = _grow(X, y, rows, criterion, splitter, max_depth, X.shape[1], rng)
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
    _validate(criterion, "best", max_depth, n_estimators)
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
    arrays = _grow(X, y, rows, criterion, "best", max_depth, max_features, rng)
    return TreeModel(*arrays, n_features=X.shape[1], criterion=criterion,
                     splitter="best", max_depth=max_depth)


# ---------------------------------------------------------------------------
# Growth engine.

def _grow(X, y, rows, criterion, splitter, max_depth, max_features, rng):
    """Level-synchronous growth of one tree over the (possibly repeated) `rows`.

    Each level is one draw and one count: every searched node's feature subset
    and thresholds come from one generator call each, and one bincount over
    (node, class, feature) keys gives the class counts of every candidate's
    x == 1 side. Returns the flat (feature, threshold, left, right, counts) arrays.
    """
    ones_mask = X == 1
    if not (ones_mask | (X == 0)).all():
        raise ValueError("tree features must be 0 or 1 (one-hot encoded, as from encode_cases)")
    d = X.shape[1]
    m = min(max_features, d)
    # every leaf keeps at least one row, so n rows grow at most 2n - 1 nodes
    capacity = 2 * rows.shape[0] - 1
    feature = np.full(capacity, -1, dtype=np.int32)
    threshold = np.zeros(capacity, dtype=np.float64)
    left_child = np.full(capacity, -1, dtype=np.int32)
    right_child = np.full(capacity, -1, dtype=np.int32)
    node_counts = np.zeros((capacity, N_LABELS), dtype=np.int64)
    node_counts[0] = np.bincount(y[rows], minlength=N_LABELS)
    n_nodes = 1

    order = rows
    node_ids = np.array([0], dtype=np.int64)
    lengths = np.array([order.shape[0]], dtype=np.int64)
    counts = node_counts[:1]
    level = 0

    while node_ids.size:
        pure = counts.max(axis=1) == lengths
        capped = max_depth is not None and level >= max_depth
        search = ~pure if not capped else np.zeros_like(pure)
        if not search.any():
            break

        # Drop settled leaves from the frame before searching.
        order = order[np.repeat(search, lengths)]
        node_ids, lengths, counts = node_ids[search], lengths[search], counts[search]
        s = node_ids.size
        pos_node = np.repeat(np.arange(s), lengths)

        # The level's draws, in the stream order of one node after another:
        # each node's subset is a sorted permutation prefix (sorted, so the
        # lowest feature index wins ties), and only full-width trees draw
        # thresholds, so subsets and thresholds never interleave.
        if m < d:
            feats = np.sort(rng.permuted(np.tile(np.arange(d), (s, 1)), axis=1)[:, :m], axis=1)
            cols = ones_mask[order[:, None], feats[pos_node]]
        else:
            feats = np.broadcast_to(np.arange(d), (s, d))
            cols = ones_mask[order]
        # On 0/1 columns every threshold in (0, 1) makes the same partition,
        # so a random threshold is its uniform draw, invalid only at exactly 0.
        thresholds = rng.random((s, m)) if splitter == "random" else np.full((s, m), 0.5)

        keys = (pos_node * N_LABELS + y[order])[:, None] * m + np.arange(m)
        ones = np.bincount(keys[cols], minlength=s * N_LABELS * m)
        ones = ones.reshape(s, N_LABELS, m).transpose(0, 2, 1)
        n_right = ones.sum(axis=2)
        n_left = lengths[:, None] - n_right
        valid = (n_left > 0) & (n_right > 0) & (thresholds > 0)

        left = counts[:, None, :] - ones
        decrease = (
            _impurity_sum(counts, criterion)[:, None]
            - _impurity_sum(left, criterion)
            - _impurity_sum(ones, criterion)
        )
        decrease[~valid] = -np.inf
        best_j = np.argmax(decrease, axis=1)  # first max = lowest feature (feats sorted)
        best_dec = decrease[np.arange(s), best_j]
        splits = best_dec > _DECREASE_TOL * np.maximum(lengths, 1)

        if not splits.any():
            break

        # Register children for splitting nodes, left before right, node order.
        split_idx = np.nonzero(splits)[0]
        split_j = best_j[split_idx]
        parents = node_ids[split_idx]
        first, n_nodes = n_nodes, n_nodes + 2 * split_idx.size
        left_ids = np.arange(first, n_nodes, 2)
        feature[parents] = feats[split_idx, split_j]
        threshold[parents] = thresholds[split_idx, split_j]
        left_child[parents] = left_ids
        right_child[parents] = left_ids + 1
        counts = np.stack((left[split_idx, split_j], ones[split_idx, split_j]), axis=1)
        counts = counts.reshape(-1, N_LABELS)
        node_counts[first:n_nodes] = counts

        # Partition surviving rows to their child, preserving node order; a
        # row's side is its gathered column at the node's chosen feature.
        local_new = np.full(s, -1, dtype=np.int64)
        local_new[split_idx] = np.arange(split_idx.size)
        row_split = splits[pos_node]
        go_right = cols[np.arange(order.shape[0]), best_j[pos_node]][row_split]
        child_key = 2 * local_new[pos_node[row_split]] + go_right
        order = order[row_split][np.argsort(child_key, kind="stable")]
        node_ids = np.arange(first, n_nodes)
        lengths = counts.sum(axis=1)
        level += 1

    # copies, so a finished tree does not hold its 2n - 1 node buffers
    return (feature[:n_nodes].copy(), threshold[:n_nodes].copy(), left_child[:n_nodes].copy(),
            right_child[:n_nodes].copy(), node_counts[:n_nodes].copy())
