"""The model-file layout, pinned key by key: a model class that gains, loses or
reorders a field changes this list, never the files silently."""

import json

import numpy as np
import pytest

from recidrisk.baseline import MEDIUM_CAUTIOUS
from recidrisk.knn import knn_fit
from recidrisk.model_io import load_model, save_model
from recidrisk.nearest_centroid import nc_fit
from recidrisk.trees import forest_fit, tree_fit

NC_KEYS = ["classes", "centroids", "overall_centroid", "s", "s0", "offsets", "shrunken_centroids",
           "metric", "p", "shrink_threshold"]
KNN_KEYS = ["k", "train_labels", "train_values"]
MATRIX_KEYS = ["encoding", "width", "rows"]
TREE_KEYS = ["feature", "threshold", "left", "right", "counts", "n_features", "criterion",
             "splitter", "max_depth"]
FOREST_KEYS = ["trees", "n_features", "criterion", "max_depth", "seed", "bootstrap"]


def _data(binary):
    rng = np.random.default_rng(3)
    X = rng.random((40, 4))
    return (X < 0.5).astype(float) if binary else X, rng.integers(0, 3, 40)


# name: (model of the data, binary or not; its family; the state's keys in file order)
MODELS = {
    "nc": (lambda data: nc_fit(data), False, "nc", NC_KEYS),
    "nc_shrunk": (lambda data: nc_fit(data, metric="minkowski", p=3.0, shrink_threshold=0.2), False,
                  "nc", NC_KEYS),
    "knn_active_columns": (lambda data: knn_fit(data, k=3), True, "knn", KNN_KEYS),
    "knn_dense": (lambda data: knn_fit(data, k=3), False, "knn", KNN_KEYS),
    "tree": (lambda data: tree_fit(data, splitter="random", max_depth=3, seed=1), True, "tree",
             TREE_KEYS),
    "forest": (lambda data: forest_fit(data, n_estimators=2, max_depth=2, seed=2), True, "forest",
               FOREST_KEYS),
    "rule_system": (lambda data: MEDIUM_CAUTIOUS, False, "rule_system", ["name", "mapping"]),
}


@pytest.mark.parametrize("name", MODELS)
def test_model_file_keys_in_order_and_resave_is_byte_identical(tmp_path, name):
    make, binary, family, keys = MODELS[name]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(first, make(_data(binary)), extra={"note": name})
    payload = json.loads(first.read_text())
    assert list(payload) == ["format", "version", "family", "state", "extra"]
    assert (payload["format"], payload["version"], payload["family"]) == ("recidrisk-model", 1, family)
    state = payload["state"]
    assert list(state) == keys
    if family == "knn":
        assert list(state["train_values"]) == MATRIX_KEYS
        assert state["train_values"]["encoding"] == ("active-columns" if binary else "dense")
    if family == "forest":
        assert [list(tree) for tree in state["trees"]] == [TREE_KEYS, TREE_KEYS]
    if name == "nc":
        assert [state[key] for key in ("s", "s0", "offsets", "shrunken_centroids")] == [None] * 4

    save_model(second, load_model(first), extra=payload["extra"])
    assert second.read_bytes() == first.read_bytes()
