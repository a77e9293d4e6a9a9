"""Trained-model serialization: a versioned JSON document per model.

A model's state is declared once, by its class: the file holds its dataclass
fields in declaration order, arrays as nested lists and a forest's member
trees as their own states. The k-NN state is the one exception: it keeps the
keys `k`, `train_labels`, `train_values`, and stores its training matrix,
one-hot in practice, as per-row active column indices (anything non-binary
falls back to dense lists). A rule system's state is its rule-system file.
Floats are emitted through Python's shortest round-trip repr, so centroid
and tree parameters reload exactly, and `dataset.json_text` writes the file,
refusing NaN and Infinity as loading does.

A learner's hyperparameter fields reload through `experiments.check_params`,
the check its configs and fits go through (a float among them must be
finite), and its data fields must agree: labels in 0..2, one per row, active
columns inside the width, arrays of the shapes the classes and width give,
their floats finite, and a tree node's counts neither negative nor all 0.
A tree has no node deeper than its max_depth, which would load as a tree
that predicts truncated, and a forest's member trees carry the forest's
n_features, criterion and max_depth and the best splitter, so the forest
predicts its members together in one descent.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .baseline import RuleSystem, rule_system_from_json, rule_system_to_json
from .dataset import N_LABELS, finite_float, json_text, read_json, require_type
from .experiments import check_params
from .knn import KNNModel
from .metrics import check_labels
from .nearest_centroid import NearestCentroidModel
from .trees import ForestModel, TreeModel, _node_depths

FORMAT_TAG = "recidrisk-model"
FORMAT_VERSION = 1


def _state(value):
    """A model's file state: its dataclass fields in declaration order, arrays
    as nested lists and member models (a forest's trees) as their own states."""
    if is_dataclass(value):
        return {f.name: _state(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_state(item) for item in value]
    return value


def _nc_restore(state: dict) -> NearestCentroidModel:
    check_params("nc", {key: state[key] for key in ("metric", "shrink_threshold", "p")}, "field")
    classes = _labels(state, "classes")
    if classes.size == 0 or (np.diff(classes) <= 0).any():
        raise ValueError("field 'classes' must hold distinct labels in ascending order")
    require_type("field 'centroids'", state["centroids"], list[list[float]])
    k, d = classes.size, len(state["centroids"][0]) if state["centroids"] else 0
    shrinkage = {"s": (d,), "offsets": (k, d), "shrunken_centroids": (k, d)}
    arrays = dict.fromkeys(shrinkage)
    if state["shrink_threshold"] is None:
        for key in ("s0", *shrinkage):
            if state[key] is not None:
                raise ValueError(f"field '{key}' must be null without a shrink_threshold")
    else:
        require_type("field 's0'", state["s0"], float)
        finite_float(state["s0"], "field 's0' must be finite")
        arrays = {key: _floats(state, key, shape) for key, shape in shrinkage.items()}
    return NearestCentroidModel(
        classes=classes,
        centroids=_floats(state, "centroids", (k, d)),
        overall_centroid=_floats(state, "overall_centroid", (d,)),
        s0=state["s0"],
        **arrays,
        metric=state["metric"],
        p=state["p"],
        shrink_threshold=state["shrink_threshold"],
    )


def _labels(state: dict, key: str) -> np.ndarray:
    """An int field of labels in 0..2, as an array."""
    require_type(f"field '{key}'", state[key], list[int])
    labels = np.asarray(state[key])  # not yet int64: an int beyond it must fail the check
    check_labels(f"field '{key}'", labels)
    return labels.astype(np.int64)


def _floats(state: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """A float field of the given shape, (d,) or (k, d), as an array."""
    value = state[key]
    require_type(f"field '{key}'", value, list[float] if len(shape) == 1 else list[list[float]])
    rows = value if len(shape) == 2 else []
    if len(value) != shape[0] or any(len(row) != shape[1] for row in rows):
        raise ValueError(f"field '{key}' must have shape {shape}")
    return finite_float(value, f"field '{key}' must hold finite numbers").reshape(shape)


def _matrix_state(values: np.ndarray) -> dict:
    if ((values == 0.0) | (values == 1.0)).all():
        return {
            "encoding": "active-columns",
            "width": values.shape[1],
            "rows": [np.nonzero(row)[0].tolist() for row in values],
        }
    return {"encoding": "dense", "width": values.shape[1], "rows": values.tolist()}


_ENCODINGS = ("active-columns", "dense")


def _matrix_restore(state: dict) -> np.ndarray:
    _require_fields(state, {"width": int, "rows": list})
    if state["encoding"] not in _ENCODINGS:
        raise ValueError(f"field 'encoding' must be one of {_ENCODINGS}")
    rows, width = state["rows"], state["width"]
    if state["encoding"] == "dense":
        return _floats(state, "rows", (len(rows), width))
    require_type("field 'rows'", rows, list[list[int]])
    row = np.repeat(np.arange(len(rows)), [len(cols) for cols in rows])
    col = np.array([c for cols in rows for c in cols])  # as in _labels, checked before int64
    if ((col < 0) | (col >= width)).any():
        raise ValueError(f"field 'rows': active columns must lie in [0, {width})")
    values = np.zeros((len(rows), width), dtype=np.float64)
    values[row, col.astype(np.int64)] = 1.0
    return values


def _knn_state(model: KNNModel) -> dict:
    return {
        "k": model.k,
        "train_labels": model.train_labels.tolist(),
        "train_values": _matrix_state(model.train_values),
    }


def _knn_restore(state: dict) -> KNNModel:
    labels = _labels(state, "train_labels")
    values = _matrix_restore(state["train_values"])
    if labels.size != values.shape[0]:
        raise ValueError(f"field 'train_labels' holds {labels.size} labels for "
                         f"{values.shape[0]} rows")
    check_params("knn", {"k": state["k"]}, "field", n_rows=labels.size)
    return KNNModel(train_values=values, train_labels=labels, k=state["k"])


def _require_fields(state: dict, annotations: dict) -> None:
    for name, annotation in annotations.items():
        require_type(f"field '{name}'", state[name], annotation)


def _node_array(values, key: str, kinds: str = "iu") -> np.ndarray:
    """A tree field as an array of JSON numbers of the dtype kinds given
    (integers by default). numpy reads true as 1 among numbers, so a bool is
    refused item by item."""
    array = np.asarray(values)
    items = itertools.chain.from_iterable(values) if array.ndim == 2 else values
    if array.size and (array.dtype.kind not in kinds or bool in map(type, items)):
        raise ValueError(f"tree field '{key}' must hold {'integers' if kinds == 'iu' else 'numbers'}")
    return array.astype(np.int64 if kinds == "iu" else np.float64)


def _check_nodes(bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise ValueError(f"tree node {int(np.argmax(bad))}: {what}")


def _check_depths(trees: list[TreeModel], max_depth: int | None, prefix: str = "") -> None:
    """Refuse a node deeper than `max_depth`, the trees' common cap; the
    message starts with `prefix` formatted with the tree's index."""
    if max_depth is None:
        return
    roots, depth = _node_depths(trees)
    bad = depth > max_depth
    if bad.any():
        k = int(np.argmax(bad))
        i = int(np.searchsorted(roots, k, side="right")) - 1
        raise ValueError(f"{prefix.format(i)}tree node {k - int(roots[i])}: depth {int(depth[k])} "
                         f"exceeds max_depth {max_depth}")


def _tree_restore(state: dict) -> TreeModel:
    _require_fields(state, {"n_features": int})
    check_params("tree", {key: state[key] for key in ("criterion", "splitter", "max_depth")},
                 "field")
    feature, left, right, counts = (_node_array(state[key], key)
                                    for key in ("feature", "left", "right", "counts"))
    threshold = finite_float(_node_array(state["threshold"], "threshold", "iuf"),
                             "tree field 'threshold' must hold finite numbers")
    n, n_features = len(feature), state["n_features"]
    if (n < 1 or any(a.shape != (n,) for a in (feature, threshold, left, right))
            or counts.shape != (n, N_LABELS)):
        raise ValueError(f"tree arrays must have one entry per node, counts {N_LABELS} per node")
    _check_nodes((feature < -1) | (feature >= n_features),
                 f"feature must lie in [-1, {n_features})")
    # every grown node holds at least one training row, and no label a negative count
    _check_nodes((counts < 0).any(axis=1), "counts must not be negative")
    _check_nodes(counts.sum(axis=1) == 0, "counts must not all be 0")
    leaf, nodes = feature == -1, np.arange(n)
    _check_nodes(leaf & ((left != -1) | (right != -1)), "a leaf's children must be -1")
    # children after their parent: every descent ends, at a leaf
    _check_nodes(~leaf & ((left <= nodes) | (right <= nodes) | (left >= n) | (right >= n)),
                 f"children must lie after the node and before {n}")
    return TreeModel(
        feature=feature.astype(np.int32),
        threshold=threshold,
        left=left.astype(np.int32),
        right=right.astype(np.int32),
        counts=counts,
        n_features=n_features,
        criterion=state["criterion"],
        splitter=state["splitter"],
        max_depth=state["max_depth"],
    )


def _lone_tree_restore(state: dict) -> TreeModel:
    tree = _tree_restore(state)
    _check_depths([tree], tree.max_depth)
    return tree


def _forest_restore(state: dict) -> ForestModel:
    _require_fields(state, {"trees": list, "n_features": int})
    params = {key: state[key] for key in ("criterion", "max_depth", "seed", "bootstrap")}
    check_params("forest", {**params, "n_estimators": len(state["trees"])}, "field")
    trees = [_tree_restore(t) for t in state["trees"]]
    # members grown by the forest: its width, criterion and depth cap, best splits
    like = {**{name: state[name] for name in ("n_features", "criterion", "max_depth")},
            "splitter": "best"}
    for i, tree in enumerate(trees):
        for name, forests in like.items():
            if getattr(tree, name) != forests:
                raise ValueError(f"forest tree {i}: {name} {json.dumps(getattr(tree, name))} "
                                 f"differs from the forest's {json.dumps(forests)}")
    _check_depths(trees, state["max_depth"], "forest tree {}: ")
    return ForestModel(
        trees=trees,
        n_features=state["n_features"],
        criterion=state["criterion"],
        max_depth=state["max_depth"],
        seed=state["seed"],
        bootstrap=state["bootstrap"],
    )


# family name: (model class, its file state, the restore that checks and rebuilds it)
_FAMILIES = {
    "nc": (NearestCentroidModel, _state, _nc_restore),
    "knn": (KNNModel, _knn_state, _knn_restore),
    "tree": (TreeModel, _state, _lone_tree_restore),
    "forest": (ForestModel, _state, _forest_restore),
    "rule_system": (RuleSystem, rule_system_to_json, rule_system_from_json),
}


def model_family(model) -> str:
    for family, (cls, _, _) in _FAMILIES.items():
        if isinstance(model, cls):
            return family
    raise TypeError(f"cannot serialize models of type {type(model).__name__}")


def save_model(path: str | Path, model, extra: dict | None = None) -> None:
    family = model_family(model)
    payload = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "family": family,
        "state": _FAMILIES[family][1](model),
    }
    if extra:
        payload["extra"] = extra
    Path(path).write_text(json_text(payload, indent=None))


def _restore(payload: dict):
    if payload.get("format") != FORMAT_TAG:
        raise ValueError(f"not a {FORMAT_TAG} file")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {payload.get('version')}")
    family = payload.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    return _FAMILIES[family][2](payload["state"])


def load_model(path: str | Path):
    return read_json(path, _restore)
