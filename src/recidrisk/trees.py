"""Decision trees and random forests for the three-class risk target.

Trees train on 0/1 features, the one-hot rows that `encode_cases` produces,
and refuse any other training value with a ValueError; queries may be any
floats. One growth engine serves both learners: it grows a batch of trees
level by level together, with one draw per member and one count for the whole
batch per level. A single tree is a batch of one; a forest grows its members
in batches of consecutive members, at most BUDGET row slots each. For a 0/1
column the only partition is x == 0 against x == 1. The batch's rows are kept
ordered by (node, class), so every candidate's x == 1 class counts are
differences of one running sum over the gathered columns, taken at the ends
of the (node, class) segments.

Prediction is one level walk over the stacked nodes of a chunk of trees:
every (tree, depth cut) label of the chunk comes out of the same descent, and
a single tree's `predict_at_depths` is a chunk of one. `prefix_votes`, the one
loop that votes members chunk by chunk, serves a forest's `predict` and every
(ensemble size, depth cut) of a model selection group in one pass.

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


def _impurity_sum(counts: np.ndarray, criterion: str, axis: int = -1) -> np.ndarray:
    """Size-weighted impurity n * H(p) for count vectors along `axis`. Sums
    over the classes run in class order whatever the axis, so the class-major
    layout the engine counts in gives the same bits as class-last vectors."""
    counts = np.moveaxis(counts, axis, 0).astype(np.float64)
    n = counts.sum(axis=0)
    if criterion == "gini":
        return n - np.divide((counts * counts).sum(axis=0), n, out=np.zeros_like(n), where=n > 0)
    plogp = counts * np.log2(counts, out=np.zeros_like(counts), where=counts > 0)
    nlogn = n * np.log2(n, out=np.zeros_like(n), where=n > 0)
    return nlogn - plogp.sum(axis=0)


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
        """The most splits a descent from the root takes."""
        return int(_node_depths([self])[1].max())

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
        return [labels[0] for labels in predict_members([self], X, depth_cuts)]


@dataclass
class ForestModel:
    trees: list[TreeModel]
    n_features: int
    criterion: str = "gini"
    max_depth: int | None = None
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self):
        if not self.trees:
            raise ValueError("n_estimators must be >= 1")

    @property
    def n_estimators(self) -> int:
        return len(self.trees)

    def predict(self, X) -> np.ndarray:
        """The members' majority vote, ties toward the higher label. A member
        grows no deeper than its max_depth, so its full descent is its label."""
        X, single = as_rows(X, self.n_features)
        labels = prefix_votes(self.trees, X, [self.n_estimators], [None])[self.n_estimators, None]
        return labels[0] if single else labels


# ---------------------------------------------------------------------------
# Prediction: one level walk for a chunk of trees.

def _stack(trees):
    """The trees' structure end to end: each tree's root id, and the stacked
    feature array and (left, right) child pairs, renumbered to stacked ids."""
    sizes = np.array([tree.n_nodes for tree in trees], dtype=np.int64)
    roots = np.cumsum(sizes) - sizes
    feature = np.concatenate([tree.feature for tree in trees])
    children = np.concatenate([np.stack((tree.left, tree.right), axis=1) for tree in trees])
    return roots, feature, children + np.repeat(roots, sizes)[:, None]


def predict_members(trees, X, depth_cuts) -> list[np.ndarray]:
    """Every tree's labels for the rows X (2-D floats of the trees' width) at
    each depth cut, one (len(trees), n) array per cut; None is the full tree.

    One descent walks every (tree, row) pair level by level. At level L every
    pair's current node is its label truncated at depth L; a pair that reaches
    a leaf leaves the walk, and cuts beyond the deepest level take the final
    labels. A leaf's children are never followed.
    """
    roots, feature, children = _stack(trees)
    children = children.ravel()  # node k's left at 2k, right at 2k + 1
    threshold = np.concatenate([tree.threshold for tree in trees])
    labels = top_label(np.concatenate([tree.counts for tree in trees]))
    n, d = X.shape
    flat = np.ascontiguousarray(X).ravel()
    node = np.repeat(roots, n)  # pair (tree t, row r) at t * n + r
    live = np.arange(node.size)
    base = np.tile(np.arange(n) * d, len(trees))  # each live pair's row offset in flat
    finite_cuts = sorted({c for c in depth_cuts if c is not None})
    snapshots: dict[int, np.ndarray] = {}
    level = 0
    while True:
        if finite_cuts and finite_cuts[0] == level:
            snapshots[finite_cuts.pop(0)] = labels[node]
        at = node[live]
        feats = feature[at]
        inner = feats >= 0
        if not inner.all():
            live, at, feats, base = live[inner], at[inner], feats[inner], base[inner]
        if not live.size:
            break
        go_right = flat.take(base + feats) >= threshold[at]
        node[live] = children.take(2 * at + go_right)
        level += 1
    final = labels[node]
    for cut in finite_cuts:  # cuts at or below the deepest reached level
        snapshots[cut] = final
    shape = (len(trees), n)
    return [(final if c is None else snapshots[c]).reshape(shape) for c in depth_cuts]


def prefix_votes(members, X, sizes, depth_cuts) -> dict:
    """Majority labels of the rows X, ties toward the higher label, keyed
    (size, cut) for each prefix of `members` whose length is in `sizes` at each
    depth cut. Members are taken from the iterable as they come, in chunks of
    at most batch_size(rows), one descent each; a chunk never spans a size."""
    n, sizes, cuts = X.shape[0], set(sizes), list(set(depth_cuts))
    votes = np.zeros((len(cuts), n, N_LABELS), dtype=np.int64)
    row_keys = np.arange(n) * N_LABELS
    out, chunk, limit = {}, [], batch_size(n)
    for size, tree in enumerate(members, 1):
        chunk.append(tree)
        if len(chunk) < limit and size not in sizes:
            continue
        for tally, labels in zip(votes, predict_members(chunk, X, cuts)):
            tally += np.bincount((row_keys + labels).ravel(), minlength=n * N_LABELS).reshape(n, -1)
        chunk = []
        if size in sizes:
            out.update(((size, cut), top_label(tally)) for cut, tally in zip(cuts, votes))
    return out


def _node_depths(trees):
    """Each tree's root id in the stacked node order, and every stacked node's
    level: the most splits a descent from its root takes to reach it, -1 if
    none does. One level walk for all trees; each level's frontier is a set,
    so shared children cost no more than distinct ones."""
    roots, feature, children = _stack(trees)
    depth = np.full(feature.size, -1, dtype=np.int64)
    frontier, level = roots, 0
    while frontier.size:
        depth[frontier] = level
        frontier = np.unique(children[frontier[feature[frontier] >= 0]])
        level += 1
    return roots, depth


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
    trees = list(forest_members(X, y, criterion, max_depth, seed, range(n_estimators), bootstrap))
    return ForestModel(trees, n_features=X.shape[1], criterion=criterion,
                       max_depth=max_depth, seed=seed, bootstrap=bootstrap)


def _forest_tree(X, y, criterion, max_depth, seed, tree_index, bootstrap) -> TreeModel:
    """One ensemble member: bootstrap then grow, all from the per-tree stream."""
    return next(forest_members(X, y, criterion, max_depth, seed,
                               range(tree_index, tree_index + 1), bootstrap))


def forest_members(X, y, criterion, max_depth, seed, indices, bootstrap):
    """The members `indices` (a range) in order, grown in batches of consecutive
    members; member i bootstraps and grows from its own stream, so it equals
    the member grown alone."""
    ones = _binary_mask(X)
    n, d = X.shape
    max_features = int(np.ceil(np.sqrt(d)))
    size = batch_size(n)
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

# Row slots one batch of forest members may hold: a batch grows, or a chunk
# predicts, batch_size(n) members of n rows each, so its per-level
# temporaries stay bounded while small inputs share each level's numpy calls.
BUDGET = 4096


def batch_size(n_rows: int) -> int:
    """Members per batch or chunk over n_rows rows: max(1, BUDGET // n_rows)."""
    return max(1, BUDGET // max(n_rows, 1))


def _binary_mask(X) -> np.ndarray:
    """X == 1, after checking that every feature is 0 or 1."""
    ones = np.ascontiguousarray(X == 1)  # rows gathered through one flat index
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
    their rows, ordered by (node, class). Each level is one draw per member and
    one count for the batch: every searched node's feature subset and
    thresholds come from one call each on its member's generator, and one
    running sum down the frame's gathered columns gives, at the ends of the
    (node, class) segments, the class counts of every candidate's x == 1 side.
    The segment sizes are the nodes' class counts.
    Returns each member's flat (feature, threshold, left, right, counts) arrays.
    """
    d = ones.shape[1]
    flat = ones.ravel()
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
    frame_key = np.repeat(np.arange(b), lengths) * N_LABELS + y[order]
    node_counts[:b] = np.bincount(frame_key, minlength=b * N_LABELS).reshape(b, -1)
    order = order[np.argsort(frame_key, kind="stable")]
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
        per_member = np.bincount(owner[node_ids], minlength=b)

        # The level's draws, per member in the stream order of one node after
        # another: each node's subset is a sorted permutation prefix (sorted,
        # so the lowest feature index wins ties), and only full-width trees
        # draw thresholds, so subsets and thresholds never interleave. Each
        # member permutes its rows of one int64 buffer in place.
        if m < d:
            perms = np.empty((s, d), dtype=np.int64)
            perms[:] = np.arange(d)
            for rng, a, k in zip(rngs, np.cumsum(per_member) - per_member, per_member):
                if k:
                    rng.permuted(perms[a:a + k], axis=1, out=perms[a:a + k])
            feats = np.sort(perms[:, :m], axis=1)
            at = np.repeat(feats, lengths, axis=0)  # each row's candidates, then their flat index
            at += (order * d)[:, None]
            cols = flat.take(at)
        else:
            feats = np.broadcast_to(np.arange(d), (s, d))
            cols = ones[order]

        # A (node, class) segment's x == 1 counts: the running sum down the
        # frame at its end less that at its start. Counts stay class-major,
        # (node, class, candidate).
        running = np.zeros((order.shape[0] + 1, m), dtype=np.int32)
        np.cumsum(cols, axis=0, dtype=np.int32, out=running[1:])
        bounds = np.concatenate(([0], np.cumsum(counts.ravel())))
        ones_counts = np.diff(running[bounds], axis=0).reshape(s, N_LABELS, m)
        n_right = ones_counts.sum(axis=1)
        n_left = lengths[:, None] - n_right
        valid = (n_left > 0) & (n_right > 0)
        if splitter == "random":
            # On 0/1 columns every threshold in (0, 1) makes the same partition,
            # so a random threshold is its uniform draw, invalid only at exactly 0.
            thresholds = np.concatenate([rng.random((k, m)) for rng, k in zip(rngs, per_member) if k])
            valid &= thresholds > 0

        left = counts[:, :, None] - ones_counts
        decrease = (
            _impurity_sum(counts, criterion)[:, None]
            - _impurity_sum(left, criterion, axis=1)
            - _impurity_sum(ones_counts, criterion, axis=1)
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
        threshold[parents] = thresholds[split_idx, split_j] if splitter == "random" else 0.5
        left_child[parents] = left_ids
        right_child[parents] = left_ids + 1
        owner[first:n_nodes] = np.repeat(owner[parents], 2)
        counts = np.stack((left[split_idx, :, split_j], ones_counts[split_idx, :, split_j]), axis=1)
        counts = counts.reshape(-1, N_LABELS)
        node_counts[first:n_nodes] = counts

        # Partition surviving rows to their child and order them by (child,
        # class); a row's side is its gathered column at the node's chosen
        # feature.
        row_split = np.repeat(splits, lengths)
        go_right = cols[np.arange(order.shape[0]), np.repeat(best_j, lengths)][row_split]
        order = order[row_split]
        left_child_of = np.repeat(np.arange(0, 2 * split_idx.size, 2), lengths[split_idx])
        order = order[np.argsort((left_child_of + go_right) * N_LABELS + y[order], kind="stable")]
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
