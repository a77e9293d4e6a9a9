"""Nearest centroid: fit formulas, shrinkage behavior, brute-force agreement."""

import tracemalloc

import numpy as np
import pytest

from recidrisk.dataset import QUERY_CHUNK, FeatureMatrix
from recidrisk.nearest_centroid import nc_fit, nc_stats


def brute_nc_predict(X_train, y_train, x, classes=None):
    """Independent oracle: recompute class means, linear-scan distances,
    break exact ties toward the higher label."""
    classes = sorted(set(y_train)) if classes is None else classes
    best_label, best_dist = None, None
    for label in classes:
        centroid = X_train[y_train == label].mean(axis=0)
        dist = float(np.sqrt(((x - centroid) ** 2).sum()))
        if best_dist is None or dist < best_dist or (dist == best_dist and label > best_label):
            best_label, best_dist = label, dist
    return best_label


def test_constant_class_centroids():
    X = np.array([[0.0], [0.0], [2.0], [2.0]])
    y = np.array([0, 0, 2, 2])
    model = nc_fit((X, y))
    assert model.classes.tolist() == [0, 2]
    assert model.centroids.tolist() == [[0.0], [2.0]]


def test_predict_nearer_centroid():
    X = np.array([[0.0], [0.0], [2.0], [2.0]])
    y = np.array([0, 0, 2, 2])
    model = nc_fit((X, y))
    assert model.predict([0.4]) == 0
    assert model.predict([1.9]) == 2


def test_exact_tie_goes_to_higher_risk():
    X = np.array([[0.0], [2.0]])
    y = np.array([0, 2])
    model = nc_fit((X, y))
    assert model.predict([1.0]) == 2


def test_minkowski_p2_equals_euclidean():
    rng = np.random.default_rng(3)
    X = rng.random((60, 8))
    y = rng.integers(0, 3, 60)
    queries = rng.random((40, 8))
    euclid = nc_fit((X, y), metric="euclidean").predict(queries)
    minkow = nc_fit((X, y), metric="minkowski", p=2.0).predict(queries)
    assert np.array_equal(euclid, minkow)


def test_manhattan_differs_when_it_should():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 3.0], [3.0, 3.0]])
    y = np.array([0, 0, 2, 2])
    model = nc_fit((X, y), metric="manhattan")
    assert model.predict([1.0, 1.0]) == 0
    assert model.predict([2.0, 2.0]) == 2


def test_zero_shrink_equals_no_shrink():
    rng = np.random.default_rng(4)
    X = rng.random((40, 6))
    y = rng.integers(0, 3, 40)
    plain = nc_fit((X, y))
    shrunk = nc_fit((X, y), shrink_threshold=0.0)
    assert np.allclose(plain.centroids, shrunk.shrunken_centroids, atol=1e-12)


def test_shrinkage_formula_by_hand():
    # two classes in 2-D, all pieces recomputed longhand
    X = np.array([[0.0, 1.0], [2.0, 1.0], [6.0, 2.0], [8.0, 4.0]])
    y = np.array([0, 2, 0, 2])  # deliberately interleaved
    delta = 0.3
    model = nc_fit((X, y), shrink_threshold=delta)
    classes = np.array([0, 2])
    n, k = 4, 2
    means = np.array([X[y == c].mean(axis=0) for c in classes])
    overall = X.mean(axis=0)
    resid = X - means[np.searchsorted(classes, y)]
    s = np.sqrt((resid**2).sum(axis=0) / (n - k))
    s0 = np.median(s)
    m = np.sqrt(1.0 / np.array([2, 2]) - 1.0 / n)
    d = (means - overall) / (m[:, None] * (s + s0))
    d_shrunk = np.sign(d) * np.maximum(np.abs(d) - delta, 0.0)
    expected = overall + m[:, None] * (s + s0) * d_shrunk
    assert np.allclose(model.shrunken_centroids, expected, atol=1e-12)
    assert np.allclose(model.s, s) and model.s0 == pytest.approx(s0)


def test_large_shrink_collapses_to_overall_centroid():
    rng = np.random.default_rng(5)
    X = rng.random((30, 5))
    y = rng.integers(0, 3, 30)
    probe = nc_fit((X, y), shrink_threshold=0.0)
    delta = float(np.abs(probe.offsets).max()) + 1.0
    model = nc_fit((X, y), shrink_threshold=delta)
    for row in model.shrunken_centroids:
        assert np.allclose(row, model.overall_centroid, atol=1e-12)
    # all centroids tie, so every prediction is the highest fitted class
    preds = model.predict(rng.random((20, 5)))
    assert (preds == model.classes.max()).all()


def test_shrinkage_monotone_feature_selection():
    rng = np.random.default_rng(6)
    X = rng.random((80, 12))
    y = rng.integers(0, 3, 80)
    selected = [
        set(np.nonzero(nc_fit((X, y), shrink_threshold=d).selected_features())[0])
        for d in (0.0, 0.1, 1.0)
    ]
    assert selected[2] <= selected[1] <= selected[0]


def test_shrinkage_requires_two_rows_per_class():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 0, 2])
    with pytest.raises(ValueError, match="class 2"):
        nc_fit((X, y), shrink_threshold=0.5)
    nc_fit((X, y))  # fine without shrinkage


def test_degenerate_constant_data_uses_s0_floor():
    X = np.zeros((6, 3))
    y = np.array([0, 0, 1, 1, 2, 2])
    model = nc_fit((X, y), shrink_threshold=1.0)
    assert np.isfinite(model.shrunken_centroids).all()


def test_width_mismatch_rejected():
    model = nc_fit((np.zeros((4, 3)), np.array([0, 0, 2, 2])))
    with pytest.raises(ValueError):
        model.predict(np.zeros((2, 4)))


def test_permuting_rows_leaves_centroids_unchanged():
    rng = np.random.default_rng(7)
    X = rng.random((50, 6))
    y = rng.integers(0, 3, 50)
    perm = rng.permutation(50)
    a = nc_fit((X, y))
    b = nc_fit((X[perm], y[perm]))
    assert np.allclose(a.centroids, b.centroids, atol=1e-12)


def test_brute_force_equivalence_random_datasets():
    rng = np.random.default_rng(8)
    for trial in range(30):
        n = int(rng.integers(6, 100))
        d = int(rng.integers(1, 20))
        X = rng.random((n, d))
        y = rng.integers(0, 3, n)
        model = nc_fit(FeatureMatrix(np.clip(X, 0, 1) * 0 + X, y))
        queries = rng.random((15, d))
        preds = model.predict(queries)
        for q, pred in zip(queries, preds):
            assert pred == brute_nc_predict(X, y, q, classes=model.classes.tolist())


@pytest.mark.parametrize("metric, p, shrink", [("euclidean", 2.0, None), ("manhattan", 1.0, 0.2),
                                               ("minkowski", 3.0, 0.2)])
def test_chunked_predict_equals_row_by_row(metric, p, shrink):
    """Queries spanning three predict blocks get the labels they get one at a time."""
    rng = np.random.default_rng(21)
    X = rng.random((90, 12))
    y = rng.integers(0, 3, 90)
    model = nc_fit((X, y), metric=metric, p=p, shrink_threshold=shrink)
    queries = rng.random((2 * QUERY_CHUNK + 1, 12))
    labels = model.predict(queries)
    assert labels.tolist() == [model.predict(q) for q in queries]
    if shrink is None and metric == "euclidean":
        assert labels.tolist() == [brute_nc_predict(X, y, q) for q in queries]


@pytest.mark.parametrize("deviations", [False, True])
def test_nc_stats_equal_the_whole_array_formulas(deviations):
    """Sums over row blocks equal one reduction over all rows, bit for bit. Class
    2 appears only in the last block, which holds the one row past two blocks."""
    rng = np.random.default_rng(5)
    n = 2 * QUERY_CHUNK + 1
    X = rng.normal(size=(n, 9)) * rng.uniform(0.1, 100.0, size=9)
    y = rng.integers(0, 2, n)
    y[-1] = 2
    stats = nc_stats((X, y), deviations=deviations)
    classes, y_idx = np.unique(y, return_inverse=True)
    centroids = np.array([X[y_idx == i].mean(axis=0) for i in range(classes.size)])
    assert np.array_equal(stats.classes, classes)
    assert np.array_equal(stats.counts, np.bincount(y_idx))
    assert np.array_equal(stats.centroids, centroids)
    assert np.array_equal(stats.overall, X.mean(axis=0))
    if deviations:
        within = X - centroids[y_idx]
        assert np.array_equal(stats.s, np.sqrt((within * within).sum(axis=0) / (n - classes.size)))
    else:
        assert stats.s is None


def test_nc_stats_allocate_less_than_the_training_matrix():
    """No temporary the size of the training rows: the peak of a fit with
    deviations stays below the matrix's own bytes."""
    rng = np.random.default_rng(6)
    X = rng.random((20 * QUERY_CHUNK, 64))
    y = rng.integers(0, 3, X.shape[0])
    tracemalloc.start()
    try:
        nc_stats((X, y), deviations=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes
