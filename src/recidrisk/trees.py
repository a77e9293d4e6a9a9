"""Decision trees and random forests for the three-class risk target.

Trees take 0/1 features, the one-hot rows that `encode_cases` produces, and
reject any other value with a ValueError. One growth engine serves both
learners: it grows a batch of trees level by level together, with one draw per
member and one count for the whole batch per level. A single tree is a batch
of one; a forest grows its members in batches of consecutive members, at most
BUDGET row slots each. For a 0/1 column the only partition is x == 0 against
x == 1, so one bincount over (node, class, feature) keys gives every
candidate's class counts.

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
bootstrap resampling) comes from one generator per tree, consumed as if node
after node in breadth-first order; each level takes a member's draws in one
call on that member's generator, so a tree is a pure function of (data,
hyperparameters, seed), the same whether it grows alone or in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_LABELS, as_rows, as_xy, top_label
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

    def predict(self, X) -> np.ndarray:
        X, single = as_rows(X, self.n_features)
        labels = self.predict_at_depths(X, [self.max_depth])[0]
        return labels[0] if single else labels

    def predict_at_depths(self, X, depth_cuts) -> list[np.ndarray]:
        """Labels this tree assigns when truncated at each requested depth.

        A cut of None means the full tree. One descent serves all cuts, which
        is what lets a deep tree stand in for its shallower siblings.
        """
        X, _ = as_rows(X, self.n_features)
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
        X, single = as_rows(X, self.n_features)
        votes = np.zeros((X.shape[0], N_LABELS), dtype=np.int64)
        for tree in self.trees:
            votes[np.arange(X.shape[0]), tree.predict(X)] += 1
        labels = top_label(votes)
        return labels[0] if single else labels


def _validate(criterion: str, splitter: str = "best", max_depth=None, n_estimators: int = 1) -> None:
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
    _validate(criterion, max_depth=max_depth, n_estimators=n_estimators)
    if X.shape[0] < 1:
        raise ValueError("cannot fit a forest on an empty training set")
    trees = list(_forest_members(X, y, criterion, max_depth, seed, range(n_estimators), bootstrap))
    return ForestModel(trees, n_features=X.shape[1], criterion=criterion,
                       max_depth=max_depth, seed=seed, bootstrap=bootstrap)


def _forest_tree(X, y, criterion, max_depth, seed, tree_index, bootstrap) -> TreeModel:
    """One ensemble member: bootstrap then grow, all from the per-tree stream."""
    members = _forest_members(X, y, criterion, max_depth, seed,
                              range(tree_index, tree_index + 1), bootstrap)
    return next(members)


def _forest_members(X, y, criterion, max_depth, seed, indices, bootstrap):
    """The members `indices` (a range) in order, grown in batches of consecutive
    members; member i bootstraps and grows from its own stream, so it equals
    the member grown alone."""
    ones = _binary_mask(X)
    n, d = X.shape
    max_features = int(np.ceil(np.sqrt(d)))
    size = max(1, BUDGET // n)
    for start in range(indices.start, indices.stop, size):
        members = []
        for i in range(start, min(start + size, indices.stop)):
            rng = derive_rng(seed, "forest-tree", i)
            members.append((rng.integers(0, n, size=n) if bootstrap else np.arange(n), rng))
        for arrays in _grow_batch(ones, y, members, criterion, "best", max_depth, max_features):
            yield TreeModel(*arrays, n_features=d, criterion=criterion, splitter="best",
                            max_depth=max_depth)


# ---------------------------------------------------------------------------
# Growth engine.

# Row slots one batch of forest members may hold: a batch grows
# max(1, BUDGET // n) members of n rows each, so its per-level temporaries
# stay bounded while small training sets share each level's numpy calls.
BUDGET = 4096


def _binary_mask(X) -> np.ndarray:
    """X == 1, after checking that every feature is 0 or 1."""
    ones = X == 1
    if not (ones | (X == 0)).all():
        raise ValueError("tree features must be 0 or 1 (one-hot encoded, as from encode_cases)")
    return ones


def _grow(X, y, rows, criterion, splitter, max_depth, max_features, rng):
    """One tree over the (possibly repeated) `rows`: a batch of one member."""
    return _grow_batch(_binary_mask(X), y, [(rows, rng)], criterion, splitter, max_depth,
                       max_features)[0]


def _grow_batch(ones, y, members, criterion, splitter, max_depth, max_features):
    """Level-synchronous growth of a batch of trees, one per (rows, rng) member.

    The frame holds every member's unsettled nodes, member after member, and
    their rows. Each level is one draw per member and one count for the batch:
    every searched node's feature subset and thresholds come from one call each
    on its member's generator, and one bincount over (frame node, class,
    feature) keys gives the class counts of every candidate's x == 1 side.
    Returns each member's flat (feature, threshold, left, right, counts) arrays.
    """
    d = ones.shape[1]
    m = min(max_features, d)
    b = len(members)
    rngs = [rng for _, rng in members]
    lengths = np.array([rows.shape[0] for rows, _ in members], dtype=np.int64)
    # Nodes are numbered across the batch in creation order; restricted to one
    # member that order is its breadth-first order, renumbered at the end.
    # Every leaf keeps at least one row, so n rows grow at most 2n - 1 nodes.
    capacity = 2 * int(lengths.sum()) - b
    feature = np.full(capacity, -1, dtype=np.int32)
    threshold = np.zeros(capacity, dtype=np.float64)
    left_child = np.full(capacity, -1, dtype=np.int32)
    right_child = np.full(capacity, -1, dtype=np.int32)
    owner = np.zeros(capacity, dtype=np.int32)  # each node's member
    owner[:b] = np.arange(b)
    node_counts = np.zeros((capacity, N_LABELS), dtype=np.int64)

    order = np.concatenate([rows for rows, _ in members])
    root = np.repeat(np.arange(b), lengths)
    node_counts[:b] = np.bincount(root * N_LABELS + y[order], minlength=b * N_LABELS).reshape(b, -1)
    n_nodes = b
    node_ids = np.arange(b)
    counts = node_counts[:b]
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
        per_member = np.bincount(owner[node_ids], minlength=b)

        # The level's draws, per member in the stream order of one node after
        # another: each node's subset is a sorted permutation prefix (sorted,
        # so the lowest feature index wins ties), and only full-width trees
        # draw thresholds, so subsets and thresholds never interleave.
        if m < d:
            feats = np.sort(_draws(rngs, per_member, lambda rng, k: rng.permuted(
                np.tile(np.arange(d), (k, 1)), axis=1)[:, :m]), axis=1)
            cols = ones[order[:, None], feats[pos_node]]
        else:
            feats = np.broadcast_to(np.arange(d), (s, d))
            cols = ones[order]
        # On 0/1 columns every threshold in (0, 1) makes the same partition,
        # so a random threshold is its uniform draw, invalid only at exactly 0.
        thresholds = (_draws(rngs, per_member, lambda rng, k: rng.random((k, m)))
                      if splitter == "random" else np.full((s, m), 0.5))

        # int32 keys halve the level's largest temporary where s * 3 * m fits
        key_type = np.int32 if s * N_LABELS * m < 2**31 else np.int64
        keys = (((pos_node * N_LABELS + y[order]) * m).astype(key_type)[:, None]
                + np.arange(m, dtype=key_type))
        ones_counts = np.bincount(keys[cols], minlength=s * N_LABELS * m)
        ones_counts = ones_counts.reshape(s, N_LABELS, m).transpose(0, 2, 1)
        n_right = ones_counts.sum(axis=2)
        n_left = lengths[:, None] - n_right
        valid = (n_left > 0) & (n_right > 0) & (thresholds > 0)

        left = counts[:, None, :] - ones_counts
        decrease = (
            _impurity_sum(counts, criterion)[:, None]
            - _impurity_sum(left, criterion)
            - _impurity_sum(ones_counts, criterion)
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
        owner[first:n_nodes] = np.repeat(owner[parents], 2)
        counts = np.stack((left[split_idx, split_j], ones_counts[split_idx, split_j]), axis=1)
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

    # Renumber each member's nodes 0.. in breadth-first order; the gathers
    # copy, so a finished tree does not hold the batch's node buffers.
    by_member = np.argsort(owner[:n_nodes], kind="stable")
    sizes = np.bincount(owner[:n_nodes], minlength=b)
    starts = np.cumsum(sizes) - sizes
    local = np.empty(n_nodes + 1, dtype=np.int32)
    local[by_member] = np.arange(n_nodes) - np.repeat(starts, sizes)
    local[n_nodes] = -1  # a leaf's child -1 indexes this last slot
    left_child, right_child = local[left_child[:n_nodes]], local[right_child[:n_nodes]]
    out = []
    for start, size in zip(starts, sizes):
        ids = by_member[start:start + size]
        out.append((feature[ids], threshold[ids], left_child[ids], right_child[ids],
                    node_counts[ids]))
    return out


def _draws(rngs, per_member, draw):
    """`draw(rng, k)` for every member with k > 0 frame nodes, stacked in member order."""
    parts = [draw(rng, k) for rng, k in zip(rngs, per_member) if k]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
