"""Serialization round-trips: parameters exact, predictions unchanged."""

import json
import re

import numpy as np
import pytest

from recidrisk.baseline import MEDIUM_CAUTIOUS
from recidrisk.knn import knn_fit
from recidrisk.model_io import load_model, model_family, save_model
from recidrisk.nearest_centroid import nc_fit
from recidrisk.trees import forest_fit, tree_fit


def _data(seed=0, n=60, d=5, binary=False):
    rng = np.random.default_rng(seed)
    X = (rng.random((n, d)) < 0.5).astype(float) if binary else rng.random((n, d))
    return X, rng.integers(0, 3, n)


def test_nc_round_trip_exact(tmp_path):
    X, y = _data(1)
    model = nc_fit((X, y), metric="minkowski", shrink_threshold=0.3, p=3.0)
    path = tmp_path / "nc.json"
    save_model(path, model)
    loaded = load_model(path)
    assert np.array_equal(loaded.centroids, model.centroids)
    assert np.array_equal(loaded.shrunken_centroids, model.shrunken_centroids)
    assert np.array_equal(loaded.s, model.s)
    assert loaded.s0 == model.s0
    assert (loaded.metric, loaded.p, loaded.shrink_threshold) == ("minkowski", 3.0, 0.3)
    queries = np.random.default_rng(2).random((25, 5))
    assert np.array_equal(loaded.predict(queries), model.predict(queries))


def test_tree_round_trip_exact(tmp_path):
    X, y = _data(3, binary=True)
    model = tree_fit((X, y), criterion="entropy", splitter="random", max_depth=6, seed=4)
    path = tmp_path / "tree.json"
    save_model(path, model)
    loaded = load_model(path)
    assert np.array_equal(loaded.feature, model.feature)
    assert np.array_equal(loaded.threshold, model.threshold)  # bit-exact floats
    assert np.array_equal(loaded.counts, model.counts)
    queries = _data(5, n=30, binary=True)[0]
    assert np.array_equal(loaded.predict(queries), model.predict(queries))


def test_forest_round_trip(tmp_path):
    X, y = _data(6, binary=True)
    model = forest_fit((X, y), n_estimators=5, max_depth=4, seed=7)
    path = tmp_path / "forest.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.n_estimators == 5
    queries = (np.random.default_rng(8).random((30, 5)) < 0.5).astype(float)
    assert np.array_equal(loaded.predict(queries), model.predict(queries))


def test_knn_round_trip_sparse_and_dense(tmp_path):
    for binary, name in ((True, "knn_bin.json"), (False, "knn_dense.json")):
        X, y = _data(9, binary=binary)
        model = knn_fit((X, y), k=3)
        path = tmp_path / name
        save_model(path, model)
        loaded = load_model(path)
        assert np.array_equal(loaded.train_values, model.train_values)
        assert np.array_equal(loaded.train_labels, model.train_labels)
        queries = _data(10, n=20, binary=binary)[0]
        assert np.array_equal(loaded.predict(queries), model.predict(queries))


def test_rule_system_round_trip(tmp_path):
    path = tmp_path / "rule.json"
    save_model(path, MEDIUM_CAUTIOUS)
    assert load_model(path) == MEDIUM_CAUTIOUS


def test_family_tags(tmp_path):
    X, y = _data(11)
    assert model_family(nc_fit((X, y))) == "nc"
    assert model_family(MEDIUM_CAUTIOUS) == "rule_system"


def test_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_model(path)


def _tree_state(feature, left, right, counts=None):
    n = len(feature)
    return {"feature": feature, "threshold": [0.5] * n, "left": left, "right": right,
            "counts": [[1, 0, 0]] * n if counts is None else counts, "n_features": 3,
            "criterion": "gini", "splitter": "best", "max_depth": None}


@pytest.mark.parametrize("state, message", [
    (_tree_state([0], [0], [0]), "tree node 0: children must lie after the node"),
    (_tree_state([0, 1, -1, -1], [1, 2, -1, -1], [2, 1, -1, -1]), "tree node 1: children must lie after"),
    (_tree_state([-1], [1], [-1]), "tree node 0: a leaf's children must be -1"),
    (_tree_state([-2], [-1], [-1]), r"tree node 0: feature must lie in \[-1, 3\)"),
    (_tree_state([-1], [-1], [-1], counts=[1, 0, 0]), "tree arrays must have one entry per node"),
    (_tree_state([-1, -1], [-1], [-1, -1]), "tree arrays must have one entry per node"),
    (_tree_state([], [], [], counts=[]), "tree arrays must have one entry per node"),
    (_tree_state([0.5], [-1], [-1]), "tree field 'feature' must hold integers"),
], ids=["self_loop", "cycle", "leaf_with_child", "feature_below_leaf_mark", "flat_counts",
        "short_left", "no_nodes", "fractional_feature"])
def test_tree_node_arrays_are_checked(tmp_path, state, message):
    for family, payload in (("tree", state),
                            ("forest", {"trees": [state], "n_features": 3, "criterion": "gini",
                                        "max_depth": None, "seed": 0, "bootstrap": True})):
        path = tmp_path / f"{family}.json"
        path.write_text(json.dumps({"format": "recidrisk-model", "version": 1, "family": family,
                                    "state": payload}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_model(path)


def _edit(path, keys, value):
    """Set one entry of a saved model's state; json.dumps writes NaN and
    Infinity as the bare constants Python's json reads back."""
    payload = json.loads(path.read_text())
    entry = payload["state"]
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("family, keys", [
    ("tree", ("threshold", 0)),
    ("knn", ("train_values", "rows", 0, 1)),
    ("nc", ("centroids", 1, 2)),
], ids=["tree_root_threshold", "dense_knn_row", "nc_centroid"])
@pytest.mark.parametrize("constant", [float("nan"), float("inf"), -float("inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
def test_non_finite_constants_are_refused(tmp_path, family, keys, constant):
    X, y = _data(11, binary=family == "tree")
    model = {"tree": lambda: tree_fit((X, y), max_depth=3, seed=0),
             "knn": lambda: knn_fit((X, y), k=3),
             "nc": lambda: nc_fit((X, y))}[family]()
    path = tmp_path / f"{family}.json"
    save_model(path, model)
    load_model(path)
    _edit(path, keys, constant)
    text = json.dumps(constant)
    assert text in path.read_text()
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(text)} is not a "
                                         "JSON number$"):
        load_model(path)


def test_save_model_refuses_non_finite_values(tmp_path):
    X, y = _data(12)
    model = nc_fit((X, y))
    model.centroids[0, 0] = np.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_model(tmp_path / "nc.json", model)
    assert not (tmp_path / "nc.json").exists()  # refused before the file is opened


@pytest.mark.parametrize("family, keys, literal, message", [
    ("tree", ("threshold", 0), "null", "tree field 'threshold' must hold numbers"),
    ("tree", ("threshold", 0), '"0.5"', "tree field 'threshold' must hold numbers"),
    ("tree", ("threshold", 0), "true", "tree field 'threshold' must hold numbers"),
    ("tree", ("threshold", 0), "1e999", "tree field 'threshold' must hold finite numbers"),
    ("tree", ("threshold", 0), "-1e999", "tree field 'threshold' must hold finite numbers"),
    ("tree", ("feature", 0), "true", "tree field 'feature' must hold integers"),
    ("knn", ("train_values", "rows", 0, 1), "1e999", "field 'rows' must hold finite numbers"),
    ("nc", ("centroids", 1, 2), "1e999", "field 'centroids' must hold finite numbers"),
    ("nc_shrunk", ("shrunken_centroids", 0, 0), "-1e999",
     "field 'shrunken_centroids' must hold finite numbers"),
    ("nc_shrunk", ("s", 3), "1e999", "field 's' must hold finite numbers"),
    ("nc_shrunk", ("s0",), "1e999", "field 's0' must be finite"),
    ("tree", ("counts", 0, 0), "-5", "tree node 0: counts must not be negative"),
    ("tree", ("counts", 1), "[0, 0, 0]", "tree node 1: counts must not all be 0"),
], ids=["threshold_null", "threshold_string", "threshold_true", "threshold_overflow",
        "threshold_negative_overflow", "feature_true", "dense_knn_row_overflow",
        "nc_centroid_overflow", "nc_shrunken_centroid_overflow", "nc_s_overflow", "nc_s0_overflow",
        "tree_count_negative", "tree_counts_all_zero"])
def test_wrong_kinds_and_overflowing_numbers_are_refused(tmp_path, family, keys, literal, message):
    # 1e999 is a valid JSON number that Python reads as infinity; true and
    # null would read as 1.0 and NaN in a float array
    X, y = _data(11, binary=family == "tree")
    model = {"tree": lambda: tree_fit((X, y), max_depth=3, seed=0),
             "knn": lambda: knn_fit((X, y), k=3),
             "nc": lambda: nc_fit((X, y)),
             "nc_shrunk": lambda: nc_fit((X, y), shrink_threshold=0.3)}[family]()
    path = tmp_path / "model.json"
    save_model(path, model)
    load_model(path)
    _edit(path, keys, "<edited>")
    path.write_text(path.read_text().replace('"<edited>"', literal))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_model(path)
