"""Code-backed feature matrices: each equals its dense twin under every
operation, malformed side data is refused, and NC train and evaluate never
hold an (n, width) float matrix."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recidrisk.cli import main
from recidrisk.dataset import (
    QUERY_CHUNK,
    FeatureMatrix,
    SplitSpec,
    kfold_indices,
    read_case_matrix,
    read_schema,
    risk_labels,
    split,
)
from recidrisk.experiments import EvalPlan, ModelConfig, threshold_sensitivity
from recidrisk.knn import knn_fit
from recidrisk.model_io import save_model
from recidrisk.nearest_centroid import nc_fit, nc_stats
from recidrisk.trees import forest_fit, tree_fit

FIELDS = ("values", "labels", "viogen_scores", "counts")


def twins(n: int, widths, seed: int) -> tuple[FeatureMatrix, FeatureMatrix]:
    """A code-backed matrix of n random rows, one active column per block of
    `widths`, and its dense twin, whose one-hot rows are set cell by cell."""
    rng = np.random.default_rng(seed)
    starts = np.concatenate(([0], np.cumsum(widths)[:-1]))
    codes = (rng.integers(0, widths, size=(n, len(widths))) + starts).astype(np.int16)
    dense = np.zeros((n, int(sum(widths))))
    for i, row in enumerate(codes):
        for column in row:
            dense[i, column] = 1.0
    side = (rng.integers(0, 3, n), rng.integers(0, 5, n), rng.integers(0, 9, n))
    return (FeatureMatrix(None, *side, codes=codes, width=int(sum(widths))),
            FeatureMatrix(dense, *side))


def assert_same(coded: FeatureMatrix, plain: FeatureMatrix) -> None:
    assert coded.codes is not None and plain.codes is None
    assert coded.shape == plain.shape and coded.n_rows == plain.n_rows
    for field in FIELDS:
        a, b = getattr(coded, field), getattr(plain, field)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b)


shapes = st.tuples(st.integers(2, 60), st.lists(st.integers(2, 5), min_size=1, max_size=6),
                   st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(shapes)
def test_code_backed_matrix_equals_its_dense_twin(shape):
    n, widths, seed = shape
    coded, plain = twins(n, widths, seed)
    assert_same(coded, plain)
    rng = np.random.default_rng(seed)
    picked = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))
    assert_same(coded.take(picked), plain.take(picked))
    spec = SplitSpec(0.5, seed=seed)
    for a, b in zip(split(coded, spec), split(plain, spec)):
        assert_same(a, b)
    k = int(rng.integers(2, n + 1))
    for train_idx, val_idx in kfold_indices(n, k, seed):
        assert_same(coded.take(train_idx), plain.take(train_idx))
        assert_same(coded.take(val_idx), plain.take(val_idx))
    for threshold in (2, 4):
        labels = risk_labels(coded.counts, threshold)
        relabelled = dataclasses.replace(coded, labels=labels)
        assert_same(relabelled, dataclasses.replace(plain, labels=labels))
        assert_same(coded.relabel(threshold), plain.relabel(threshold))
        assert np.array_equal(relabelled.codes, coded.codes)


def test_threshold_sensitivity_is_the_same_on_both_forms():
    coded, plain = twins(300, (3, 4, 2, 5, 3), seed=2)
    for family, params in (("nc", {"shrink_threshold": 0.5}), ("tree", {"max_depth": 4})):
        plan = EvalPlan(ModelConfig(family, params), SplitSpec(0.67, 3), seed=4)
        assert (threshold_sensitivity(coded, (2, 3, 5), plan)
                == threshold_sensitivity(plain, (2, 3, 5), plan))


@pytest.mark.parametrize("n", [5, 2 * QUERY_CHUNK + 1])
@pytest.mark.parametrize("deviations", [False, True])
def test_nc_stats_of_codes_equal_those_of_dense_rows(n, deviations):
    """Class sums over one-hot blocks built from the codes equal the dense
    block sums bit for bit, and so do the centroids, the overall centroid and s_j."""
    coded, plain = twins(n, (3, 5, 2, 4), seed=n)
    coded.labels[-1] = plain.labels[-1] = 2
    a, b = nc_stats(coded, deviations), nc_stats(plain, deviations)
    for field in ("classes", "counts", "centroids", "overall"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert (a.s is None) == (b.s is None) == (not deviations)
    if deviations:
        assert np.array_equal(a.s, b.s)


@pytest.mark.parametrize("metric, p, shrink", [("euclidean", 2.0, None), ("manhattan", 1.0, 0.3),
                                               ("minkowski", 3.0, 0.3)])
def test_nc_predict_of_codes_equals_that_of_dense_rows(metric, p, shrink):
    train_coded, train_plain = twins(200, (3, 5, 2, 4, 3), seed=7)
    model = nc_fit(train_coded, metric=metric, p=p, shrink_threshold=shrink)
    twin_model = nc_fit(train_plain, metric=metric, p=p, shrink_threshold=shrink)
    for n in (1, QUERY_CHUNK, 2 * QUERY_CHUNK + 1):
        coded, plain = twins(n, (3, 5, 2, 4, 3), seed=n)
        labels = model.predict(coded)
        assert labels.shape == (n,)
        assert np.array_equal(labels, model.predict(plain.values))
        assert np.array_equal(labels, twin_model.predict(plain))


def test_width_mismatch_message_is_the_same_on_both_forms():
    train, _ = twins(40, (3, 4), seed=1)
    coded, plain = twins(9, (3, 5), seed=2)
    models = (nc_fit(train), knn_fit(train, k=3), tree_fit(train, max_depth=2),
              forest_fit(train, n_estimators=2, max_depth=2))
    for model in models:
        messages = []
        for queries in (coded, plain, plain.values):
            with pytest.raises(ValueError) as caught:
                model.predict(queries)
            messages.append(str(caught.value))
        assert messages == ["expected width 7, got shape (9, 8)"] * 3


def test_evaluate_names_the_width_mismatch(tmp_path, capsys):
    """`evaluate` of a model on a corpus of another width: the message the
    dense rows gave, prefixed by the model's path."""
    demo, model = tmp_path / "demo", tmp_path / "model.json"
    assert main(["generate", "--n", "60", "--seed", "3", "--out-dir", str(demo)]) == 0
    save_model(model, nc_fit(twins(40, (3, 4), seed=1)[0]))
    assert main(["evaluate", "--model", str(model), "--data", str(demo / "cases.csv"),
                 "--schema", str(demo / "schema.json"), "--out-dir", str(tmp_path / "eval")]) == 1
    width = read_schema(demo / "schema.json").width
    assert capsys.readouterr().err == f"error: {model}: expected width 7, got shape (60, {width})\n"


MALFORMED = {
    "short_viogen_scores": (dict(viogen_scores=[0, 1, 2, 3, 4]),
                            r"^viogen_scores must hold one value per row: shape \(5,\) for 6 rows$"),
    "long_counts": (dict(counts=np.zeros(7, dtype=int)),
                    r"^counts must hold one value per row: shape \(7,\) for 6 rows$"),
    "label_7": (dict(labels=[0, 1, 5, 0, 1, 7]), r"^labels must lie in 0\.\.2$"),
    "negative_label": (dict(labels=[0, 1, -1, 0, 1, 2]), r"^labels must lie in 0\.\.2$"),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("form", ["dense", "codes"])
def test_malformed_side_data_is_refused(case, form):
    matrix = twins(6, (3, 4), seed=0)[0] if form == "codes" else FeatureMatrix(np.eye(6), np.ones(6))
    changes, message = MALFORMED[case]
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(matrix, **changes)


def test_replace_keeps_or_refuses_rows():
    """`replace` keeps a code-backed matrix's codes and refuses other rows
    given with them; dense rows of another width replace dense rows."""
    coded, plain = twins(6, (3, 4), seed=0)
    other = plain.values.copy()
    other[2] = 1.0  # every column of row 2 active
    with pytest.raises(ValueError, match=r"^values given with codes must be the codes' own rows$"):
        dataclasses.replace(coded, values=other)
    with pytest.raises(ValueError, match=r"^values given with codes must be the codes' own rows$"):
        dataclasses.replace(coded, values=plain.values[:, :5])
    assert np.array_equal(dataclasses.replace(coded, values=plain.values).codes, coded.codes)
    dense = dataclasses.replace(coded, codes=None, values=other)
    assert dense.codes is None and np.array_equal(dense.values, other)
    wider = dataclasses.replace(plain, values=np.ones((6, 9)))
    assert wider.shape == (6, 9) and wider.width == 9


@pytest.mark.parametrize("codes, width", [
    ([[0, 3], [2, 2]], 7),  # a column twice in one row
    ([[3, 0], [2, 4]], 7),  # columns out of order
    ([[0, 7], [2, 4]], 7),  # a column past the width
    ([[0, 3], [2, 4]], None),  # no width
    ([[0.0, 3.0], [2.0, 4.0]], 7),  # not integers
])
def test_malformed_codes_are_refused(codes, width):
    with pytest.raises(ValueError):
        FeatureMatrix(None, [0, 1], codes=np.array(codes), width=width)


def test_nc_train_and_evaluate_hold_no_float_matrix(tmp_path):
    """NC train and evaluate of a few thousand cases peak below half the bytes
    of their (n, width) float matrix."""
    n, data = 8000, tmp_path / "data"
    assert main(["generate", "--n", str(n), "--seed", "11", "--out-dir", str(data)]) == 0
    width = read_schema(data / "schema.json").width
    inputs = ["--data", str(data / "cases.csv"), "--schema", str(data / "schema.json")]
    runs = (["train", *inputs, "--family", "nc", "--params", '{"shrink_threshold": 1}',
             "--out-dir", str(tmp_path / "model")],
            ["evaluate", "--model", str(tmp_path / "model" / "model.json"), *inputs,
             "--out-dir", str(tmp_path / "eval")])
    for argv in runs:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * width * 8 / 2, (argv[0], peak)
    assert read_case_matrix(data / "cases.csv", read_schema(data / "schema.json")).codes is not None
