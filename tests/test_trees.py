"""Trees and forests: split contract, both growth paths, depth truncation."""

import numpy as np
import pytest

from recidrisk.trees import (
    ForestModel,
    TreeModel,
    _forest_tree,
    forest_fit,
    tree_fit,
)


def test_pure_training_set_is_single_leaf():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    y = np.array([1, 1, 1])
    model = tree_fit((X, y))
    assert model.n_nodes == 1
    assert model.feature[0] == -1
    assert model.predict([9.0, 9.0])[0] == 1


def test_two_point_split_at_midpoint():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 2])
    model = tree_fit((X, y), splitter="best")
    assert model.n_nodes == 3
    assert model.threshold[0] == 0.5
    assert model.predict([0.2])[0] == 0
    assert model.predict([0.8])[0] == 2
    assert np.array_equal(model.predict(X), y)


def test_depth_cap_limits_training_accuracy():
    # alternating 1-D labels need depth 2; a depth-1 tree must miss some rows
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 2, 0, 2])
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
    assert model.predict([0.0])[0] == 2


def test_no_gain_split_is_refused():
    # XOR labels: every single split leaves the class mix unchanged
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 2, 2, 0])
    model = tree_fit((X, y))
    assert model.n_nodes == 1


def test_deterministic_given_seed():
    rng = np.random.default_rng(1)
    X = rng.random((120, 6))
    y = rng.integers(0, 3, 120)
    a = tree_fit((X, y), splitter="random", seed=9)
    b = tree_fit((X, y), splitter="random", seed=9)
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold)
    c = tree_fit((X, y), splitter="random", seed=10)
    assert not np.array_equal(a.threshold, c.threshold)


def _assert_same_tree(a: TreeModel, b: TreeModel):
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold)
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.right, b.right)
    assert np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize("splitter", ["best", "random"])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_binary_and_general_paths_grow_identical_trees(criterion, splitter):
    rng = np.random.default_rng(17)
    for trial in range(8):
        n, d = int(rng.integers(10, 130)), int(rng.integers(2, 9))
        X = (rng.random((n, d)) < 0.4).astype(float)
        y = rng.integers(0, 3, n)
        depth = [None, 2, 4][trial % 3]
        fast = tree_fit((X, y), criterion, splitter, depth, seed=trial, _force_path="binary")
        slow = tree_fit((X, y), criterion, splitter, depth, seed=trial, _force_path="general")
        _assert_same_tree(fast, slow)


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


def test_forest_singleton_equals_its_tree():
    rng = np.random.default_rng(31)
    X = rng.random((60, 5))
    y = rng.integers(0, 3, 60)
    model = forest_fit((X, y), n_estimators=1, seed=2, bootstrap=False)
    queries = rng.random((20, 5))
    assert np.array_equal(model.predict(queries), model.trees[0].predict(queries))


def test_forest_unanimous_vote():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([1, 1, 1, 1])
    model = forest_fit((X, y), n_estimators=5, seed=0)
    assert model.predict([0.3])[0] == 1


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
    assert model.predict([0.0])[0] == 2


def test_max_depth_validation():
    X, y = np.zeros((2, 1)), np.array([0, 1])
    with pytest.raises(ValueError):
        tree_fit((X, y), max_depth=0)
    with pytest.raises(ValueError):
        tree_fit((X, y), criterion="misclassification")
    with pytest.raises(ValueError):
        tree_fit((X, y), splitter="extreme")
