"""Trees and forests: split contract, the engine against a per-node oracle,
depth truncation, the batched descent against a per-row oracle."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recidrisk import trees
from recidrisk.dataset import N_LABELS, FeatureMatrix
from recidrisk.experiments import ModelConfig, _predict_forest_group
from recidrisk.seeding import derive_rng
from recidrisk.trees import (
    _DECREASE_TOL,
    ForestModel,
    TreeModel,
    _forest_tree,
    _grow,
    _impurity_sum,
    forest_fit,
    predict_members,
    tree_fit,
)


def test_pure_training_set_is_single_leaf():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([1, 1, 1])
    model = tree_fit((X, y))
    assert model.n_nodes == 1
    assert model.feature[0] == -1
    assert model.predict([9.0, 9.0]) == 1


def test_two_point_split_at_midpoint():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 2])
    model = tree_fit((X, y), splitter="best")
    assert model.n_nodes == 3
    assert model.threshold[0] == 0.5
    assert model.predict([0.2]) == 0
    assert model.predict([0.8]) == 2
    assert np.array_equal(model.predict(X), y)


def test_depth_cap_limits_training_accuracy():
    # labels set by two columns need depth 2; a depth-1 tree must miss some rows
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 2, 0, 0])
    capped = tree_fit((X, y), max_depth=1)
    assert capped.depth() <= 1
    accuracy = float((capped.predict(X) == y).mean())
    assert accuracy < 1.0
    full = tree_fit((X, y))
    assert float((full.predict(X) == y).mean()) == 1.0


def test_leaf_tie_breaks_toward_higher_risk():
    X = np.array([[0.0], [0.0]])
    y = np.array([0, 2])  # no split possible, tied leaf
    model = tree_fit((X, y))
    assert model.n_nodes == 1
    assert model.predict([0.0]) == 2


def test_no_gain_split_is_refused():
    # XOR labels: every single split leaves the class mix unchanged
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 2, 2, 0])
    model = tree_fit((X, y))
    assert model.n_nodes == 1


def _oracle_impurity(vector, criterion):
    """n * H(p) of one count vector, summed class after class."""
    c = [float(v) for v in vector]
    n = c[0] + c[1] + c[2]
    if n == 0:
        return 0.0
    if criterion == "gini":
        return n - (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]) / n
    plogp = [v * np.log2(v) if v > 0 else 0.0 for v in c]
    return n * np.log2(n) - (plogp[0] + plogp[1] + plogp[2])


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_impurity_is_the_same_bits_along_any_class_axis(criterion):
    # the engine scores class-major (node, class, candidate) counts, the
    # oracle class-last vectors; both must give the per-vector sums' bits
    counts = np.random.default_rng(43).integers(0, 400, (40, N_LABELS, 16)).astype(np.int32)
    counts[:4] = 0  # empty sides
    counts[4:8, 1:] = 0  # pure sides
    class_last = np.ascontiguousarray(counts.transpose(0, 2, 1))
    expected = np.array([[_oracle_impurity(v, criterion) for v in node] for node in class_last])
    assert np.array_equal(_impurity_sum(counts, criterion, axis=1), expected)
    assert np.array_equal(_impurity_sum(class_last, criterion), expected)


def test_deterministic_given_seed():
    rng = np.random.default_rng(1)
    X = (rng.random((120, 6)) < 0.5).astype(float)
    y = rng.integers(0, 3, 120)
    a = tree_fit((X, y), splitter="random", seed=9)
    b = tree_fit((X, y), splitter="random", seed=9)
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold)
    c = tree_fit((X, y), splitter="random", seed=10)
    assert not np.array_equal(a.threshold, c.threshold)


def _assert_same_tree(a: TreeModel, b: TreeModel):
    for name in ("feature", "threshold", "left", "right", "counts"):
        got, expected = getattr(a, name), getattr(b, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


# ---------------------------------------------------------------------------
# Reference oracle: the split contract searched one node at a time, for any
# real-valued features, consuming the generator in the same breadth-first order.

def _oracle_best(Xn, yn, counts, criterion):
    """Exhaustive (feature, midpoint) search on one node; None when no gain."""
    n = Xn.shape[0]
    order = np.argsort(Xn, axis=0, kind="stable")
    Xs = np.take_along_axis(Xn, order, axis=0)
    onehot = (yn[order][:, :, None] == np.arange(N_LABELS)).astype(np.float64)
    left = np.cumsum(onehot, axis=0)[:-1]  # (n-1, m, 3): split after sorted position i
    right = counts.astype(np.float64) - left
    decrease = (
        _impurity_sum(counts, criterion)
        - _impurity_sum(left, criterion)
        - _impurity_sum(right, criterion)
    )
    decrease[~(Xs[:-1] < Xs[1:])] = -np.inf
    best = decrease.max(initial=-np.inf)
    if not best > _DECREASE_TOL * max(n, 1):
        return None
    cut_idx, feat_idx = np.nonzero(decrease == best)
    thresholds = (Xs[cut_idx, feat_idx] + Xs[cut_idx + 1, feat_idx]) / 2.0
    pick = np.lexsort((thresholds, feat_idx))[0]
    return int(feat_idx[pick]), float(thresholds[pick])


def _oracle_random(Xn, yn, counts, criterion, rng):
    """One uniform threshold per candidate feature; best of those, or None."""
    n, m = Xn.shape
    u = rng.random(m)
    lo, hi = Xn.min(axis=0), Xn.max(axis=0)
    thresholds = lo + u * (hi - lo)
    mask = Xn < thresholds[None, :]
    left = np.stack([mask[yn == c].sum(axis=0) for c in range(N_LABELS)], axis=1).astype(float)
    right = counts.astype(np.float64) - left
    decrease = (
        _impurity_sum(counts, criterion)
        - _impurity_sum(left, criterion)
        - _impurity_sum(right, criterion)
    )
    decrease[~((left.sum(axis=1) > 0) & (right.sum(axis=1) > 0))] = -np.inf
    best = decrease.max(initial=-np.inf)
    if not best > _DECREASE_TOL * max(n, 1):
        return None
    candidates = np.nonzero(decrease == best)[0]
    pick = candidates[np.lexsort((thresholds[candidates], candidates))[0]]
    return int(pick), float(thresholds[pick])


def _oracle_features(rng, d, m):
    """One node's candidate features: all of them, else a sorted permutation prefix."""
    if m >= d:
        return np.arange(d)
    return np.sort(rng.permutation(d)[:m])


def _oracle_grow(X, y, rows, criterion, splitter, max_depth, max_features, rng):
    """Breadth-first growth, one node at a time; returns the flat tree arrays."""
    feature, threshold, left, right, counts = [], [], [], [], []

    def add_node(node_rows):
        for column, value in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1)):
            column.append(value)
        counts.append(np.bincount(y[node_rows], minlength=N_LABELS))
        return len(feature) - 1

    queue = [(add_node(rows), rows, 0)]
    while queue:
        next_queue = []
        for node, node_rows, depth in queue:
            if counts[node].max() == node_rows.size or (max_depth is not None and depth >= max_depth):
                continue
            feats = _oracle_features(rng, X.shape[1], max_features)
            Xn, yn = X[node_rows][:, feats], y[node_rows]
            if splitter == "random":
                found = _oracle_random(Xn, yn, counts[node], criterion, rng)
            else:
                found = _oracle_best(Xn, yn, counts[node], criterion)
            if found is None:
                continue
            j, cut = found
            go_left = X[node_rows, feats[j]] < cut
            left_rows, right_rows = node_rows[go_left], node_rows[~go_left]
            feature[node], threshold[node] = int(feats[j]), cut
            left[node], right[node] = add_node(left_rows), add_node(right_rows)
            next_queue += [(left[node], left_rows, depth + 1), (right[node], right_rows, depth + 1)]
        queue = next_queue
    return (np.asarray(feature, dtype=np.int32), np.asarray(threshold, dtype=np.float64),
            np.asarray(left, dtype=np.int32), np.asarray(right, dtype=np.int32),
            np.vstack(counts).astype(np.int64))


@st.composite
def binary_problems(draw):
    """0/1 features with per-column densities, so constant and all-one columns occur."""
    n = draw(st.integers(1, 60))
    densities = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), min_size=1, max_size=8))
    n_labels = draw(st.integers(1, N_LABELS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = (rng.random((n, len(densities))) < np.array(densities)).astype(float)
    return X, rng.integers(0, n_labels, n)


@settings(max_examples=150, deadline=None)
@given(
    problem=binary_problems(),
    criterion=st.sampled_from(["gini", "entropy"]),
    splitter=st.sampled_from(["best", "random"]),
    max_depth=st.one_of(st.none(), st.integers(1, 5)),
    seed=st.integers(0, 1000),
)
def test_engine_grows_the_oracle_tree(problem, criterion, splitter, max_depth, seed):
    X, y = problem
    model = tree_fit((X, y), criterion, splitter, max_depth, seed=seed)
    expected = _oracle_grow(X, y, np.arange(X.shape[0]), criterion, splitter, max_depth,
                           X.shape[1], derive_rng(seed, "tree"))
    _assert_same_tree(model, TreeModel(*expected, n_features=X.shape[1]))


@pytest.mark.parametrize("splitter", ["best", "random"])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_binary_and_general_paths_grow_identical_trees(criterion, splitter):
    # the level-synchronous engine (binary path) against the per-node oracle
    # (general path) on fixed seeded problems
    rng = np.random.default_rng(17)
    for trial in range(8):
        n, d = int(rng.integers(10, 130)), int(rng.integers(2, 9))
        X = (rng.random((n, d)) < 0.4).astype(float)
        y = rng.integers(0, 3, n)
        depth = [None, 2, 4][trial % 3]
        fast = tree_fit((X, y), criterion, splitter, depth, seed=trial)
        slow = _oracle_grow(X, y, np.arange(n), criterion, splitter, depth, d,
                            derive_rng(trial, "tree"))
        _assert_same_tree(fast, TreeModel(*slow, n_features=d))


# three 0/1 columns, each repeated three times: drawn subsets hold tied
# candidates, so a member must pick the lowest feature index among them
_BITS = ((np.arange(40)[:, None] >> np.arange(3)) & 1).astype(float)
_TIED_COLUMNS = (np.repeat(_BITS, 3, axis=1), np.minimum(_BITS.sum(axis=1), 2).astype(np.int64))


@settings(max_examples=100, deadline=None)
@given(
    problem=binary_problems(),
    criterion=st.sampled_from(["gini", "entropy"]),
    max_depth=st.one_of(st.none(), st.integers(1, 5)),
    bootstrap=st.booleans(),
    seed=st.integers(0, 1000),
    tree_index=st.integers(0, 20),
)
@example(problem=_TIED_COLUMNS, criterion="gini", max_depth=None, bootstrap=False, seed=0, tree_index=0)
@example(problem=_TIED_COLUMNS, criterion="entropy", max_depth=None, bootstrap=True, seed=2,
         tree_index=0)
def test_forest_member_is_the_oracle_tree(problem, criterion, max_depth, bootstrap, seed,
                                          tree_index):
    # members search ceil(sqrt(d)) < d features per split for d >= 3, and a
    # bootstrap sample repeats rows
    X, y = problem
    model = _forest_tree(X, y, criterion, max_depth, seed, tree_index, bootstrap)
    rng = derive_rng(seed, "forest-tree", tree_index)
    n = X.shape[0]
    rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
    max_features = int(np.ceil(np.sqrt(X.shape[1])))
    expected = _oracle_grow(X, y, rows, criterion, "best", max_depth, max_features, rng)
    _assert_same_tree(model, TreeModel(*expected, n_features=X.shape[1]))


@settings(max_examples=100, deadline=None)
@given(
    problem=binary_problems(),
    criterion=st.sampled_from(["gini", "entropy"]),
    max_depth=st.one_of(st.none(), st.integers(1, 5)),
    bootstrap=st.booleans(),
    seed=st.integers(0, 1000),
    n_estimators=st.integers(1, 7),
    budget=st.sampled_from(["1", "n", "3n", "whole forest"]),
)
def test_batched_members_are_grown_alone(problem, criterion, max_depth, bootstrap, seed,
                                         n_estimators, budget):
    # batches of one member, of a few (the last one partial), and of the whole forest
    X, y = problem
    n = X.shape[0]
    rows_per_batch = {"1": 1, "n": n, "3n": 3 * n, "whole forest": n * n_estimators}[budget]
    alone = [_forest_tree(X, y, criterion, None, seed, i, bootstrap) for i in range(n_estimators)]
    with mock.patch.object(trees, "BUDGET", rows_per_batch):
        forest = forest_fit((X, y), criterion, n_estimators, max_depth, seed, bootstrap)
        configs = [ModelConfig("forest", {"criterion": criterion, "n_estimators": size,
                                          "max_depth": depth, "bootstrap": bootstrap})
                   for size in sorted({1, n_estimators}) for depth in (None, max_depth or 1)]
        train, test = FeatureMatrix(X, y), FeatureMatrix(np.vstack((X, 1 - X)), np.zeros(2 * n))
        grid = _predict_forest_group(configs, train, test, seed)
    max_features = int(np.ceil(np.sqrt(X.shape[1])))
    for i, member in enumerate(forest.trees):
        rng = derive_rng(seed, "forest-tree", i)
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        expected = _oracle_grow(X, y, rows, criterion, "best", max_depth, max_features, rng)
        _assert_same_tree(member, TreeModel(*expected, n_features=X.shape[1]))
        _assert_same_tree(member, _forest_tree(X, y, criterion, max_depth, seed, i, bootstrap))
    for config, labels in zip(configs, grid):
        votes = np.zeros((test.n_rows, N_LABELS), dtype=np.int64)
        for tree in alone[:config.value("n_estimators")]:
            pred = tree.predict_at_depths(test.values, [config.value("max_depth")])[0]
            votes[np.arange(test.n_rows), pred] += 1
        assert np.array_equal(labels, 2 - np.argmax(votes[:, ::-1], axis=1))


class _ZeroDraws:
    """A generator whose every uniform draw is exactly 0.0."""

    def random(self, shape):
        return np.zeros(shape)


def test_random_threshold_drawn_at_zero_is_no_split():
    # u == 0.0 puts no row below the threshold, so the candidate is invalid
    X = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    y = np.array([0, 2, 2, 0])
    rows = np.arange(4)
    got = _grow(X, y, rows, "gini", "random", None, 2, _ZeroDraws())
    expected = _oracle_grow(X, y, rows, "gini", "random", None, 2, _ZeroDraws())
    _assert_same_tree(TreeModel(*got, n_features=2), TreeModel(*expected, n_features=2))
    assert got[0].tolist() == [-1]


@pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
def test_non_binary_features_are_rejected(bad):
    X = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    X[2, 1] = bad
    y = np.array([0, 1, 2])
    with pytest.raises(ValueError, match="tree features must be 0 or 1"):
        tree_fit((X, y))
    with pytest.raises(ValueError, match="tree features must be 0 or 1"):
        forest_fit((X, y), n_estimators=2)
    with pytest.raises(ValueError, match="tree features must be 0 or 1"):
        _forest_tree(X, y, "gini", None, 0, 0, True)


def test_truncated_prediction_equals_refit_at_depth():
    rng = np.random.default_rng(23)
    X = (rng.random((300, 12)) < 0.5).astype(float)
    y = rng.integers(0, 3, 300)
    queries = (rng.random((80, 12)) < 0.5).astype(float)
    for splitter in ("best", "random"):
        full = tree_fit((X, y), "entropy", splitter, None, seed=5)
        cuts = [1, 2, 3, 5, None]
        preds = full.predict_at_depths(queries, cuts)
        for cut, pred in zip(cuts, preds):
            refit = tree_fit((X, y), "entropy", splitter, cut, seed=5)
            assert np.array_equal(refit.predict(queries), pred)


def test_forest_member_truncation_matches_refit():
    rng = np.random.default_rng(29)
    X = (rng.random((200, 10)) < 0.5).astype(float)
    y = rng.integers(0, 3, 200)
    queries = (rng.random((50, 10)) < 0.5).astype(float)
    for depth in (2, 4, None):
        direct = forest_fit((X, y), "gini", n_estimators=7, max_depth=depth, seed=3)
        shared = [
            _forest_tree(X, y, "gini", None, 3, i, True).predict_at_depths(queries, [depth])[0]
            for i in range(7)
        ]
        votes = np.zeros((50, 3), dtype=int)
        for pred in shared:
            votes[np.arange(50), pred] += 1
        expected = 2 - np.argmax(votes[:, ::-1], axis=1)
        assert np.array_equal(direct.predict(queries), expected)


def _oracle_descent(tree, row, cut):
    """One row walked down one tree a node at a time, stopping at a leaf or
    after `cut` splits; the label of the node it stops at."""
    node, level = 0, 0
    while tree.feature[node] >= 0 and (cut is None or level < cut):
        node = tree.right[node] if row[tree.feature[node]] >= tree.threshold[node] else tree.left[node]
        level += 1
    return int(N_LABELS - 1 - np.argmax(tree.counts[node][::-1]))


def _oracle_depth(tree):
    """The most splits on any root-to-leaf path, one node at a time."""
    deepest, stack = 0, [(0, 0)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if tree.feature[node] >= 0:
            stack += [(tree.left[node], level + 1), (tree.right[node], level + 1)]
    return deepest


@settings(max_examples=100, deadline=None)
@given(
    problem=binary_problems(),
    specs=st.lists(st.tuples(st.sampled_from(["gini", "entropy"]), st.sampled_from(["best", "random"]),
                             st.one_of(st.none(), st.integers(1, 4)), st.integers(0, 1000)),
                   min_size=1, max_size=4),
    single_leaf=st.booleans(),
    cuts=st.lists(st.one_of(st.none(), st.integers(0, 12)), min_size=1, max_size=4),
    query_seed=st.integers(0, 2**32 - 1),
)
def test_batched_descent_is_each_trees_own(problem, specs, single_leaf, cuts, query_seed):
    # 0/1 features split at most once per path, so cuts up to 12 pass the
    # deepest level; queries add fractional rows, some exactly at a threshold
    X, y = problem
    members = [tree_fit((X, y), criterion, splitter, depth, seed)
               for criterion, splitter, depth, seed in specs]
    if single_leaf:
        members.append(tree_fit((X, np.full_like(y, y[0]))))
    queries = np.vstack((X, np.random.default_rng(query_seed).random((6, X.shape[1])).round(1)))
    batched = predict_members(members, queries, cuts)
    for t, tree in enumerate(members):
        own = tree.predict_at_depths(queries, cuts)
        for c, cut in enumerate(cuts):
            expected = [_oracle_descent(tree, row, cut) for row in queries]
            assert batched[c][t].tolist() == expected
            assert own[c].tolist() == expected
        assert tree.depth() == _oracle_depth(tree)
    votes = np.zeros((queries.shape[0], N_LABELS), dtype=np.int64)
    for tree in members:
        votes[np.arange(queries.shape[0]),
              [_oracle_descent(tree, row, tree.max_depth) for row in queries]] += 1
    forest = ForestModel(members, n_features=X.shape[1])
    assert forest.predict(queries).tolist() == (2 - np.argmax(votes[:, ::-1], axis=1)).tolist()


def test_forest_singleton_equals_its_tree():
    rng = np.random.default_rng(31)
    X = (rng.random((60, 5)) < 0.5).astype(float)
    y = rng.integers(0, 3, 60)
    model = forest_fit((X, y), n_estimators=1, seed=2, bootstrap=False)
    queries = (rng.random((20, 5)) < 0.5).astype(float)
    assert np.array_equal(model.predict(queries), model.trees[0].predict(queries))


def test_forest_unanimous_vote():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([1, 1, 1, 1])
    model = forest_fit((X, y), n_estimators=5, seed=0)
    assert model.predict([0.3]) == 1


def test_forest_deterministic_given_seed():
    rng = np.random.default_rng(37)
    X = (rng.random((150, 9)) < 0.5).astype(float)
    y = rng.integers(0, 3, 150)
    queries = (rng.random((40, 9)) < 0.5).astype(float)
    a = forest_fit((X, y), n_estimators=11, seed=6)
    b = forest_fit((X, y), n_estimators=11, seed=6)
    assert np.array_equal(a.predict(queries), b.predict(queries))
    for ta, tb in zip(a.trees, b.trees):
        _assert_same_tree(ta, tb)


def test_forest_prefix_property():
    # the first trees of a bigger ensemble are exactly the smaller ensemble
    rng = np.random.default_rng(41)
    X = (rng.random((100, 6)) < 0.5).astype(float)
    y = rng.integers(0, 3, 100)
    small = forest_fit((X, y), n_estimators=3, seed=8)
    large = forest_fit((X, y), n_estimators=9, seed=8)
    for ta, tb in zip(small.trees, large.trees[:3]):
        _assert_same_tree(ta, tb)


def test_vote_tie_toward_higher_risk_in_forest():
    trees = []
    for label in (0, 2):
        X = np.array([[0.0]])
        y = np.array([label])
        trees.append(tree_fit((X, y)))
    model = ForestModel(trees, n_features=1)
    assert model.predict([0.0]) == 2


def test_forest_without_members_is_refused():
    with pytest.raises(ValueError, match="^n_estimators must be >= 1$"):
        ForestModel([], n_features=3)


def test_max_depth_validation():
    X, y = np.zeros((2, 1)), np.array([0, 1])
    with pytest.raises(ValueError):
        tree_fit((X, y), max_depth=0)
    with pytest.raises(ValueError):
        tree_fit((X, y), criterion="misclassification")
    with pytest.raises(ValueError):
        tree_fit((X, y), splitter="extreme")
