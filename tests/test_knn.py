"""k-NN: neighbor ranking, tie rules, degenerate k, bounded query blocks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recidrisk.knn import knn_fit, neighbor_labels, vote


def test_exact_match_nearest_neighbor():
    X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    y = np.array([0, 1, 2])
    model = knn_fit((X, y), k=1)
    for row, label in zip(X, y):
        assert model.predict(row) == label


def test_k_equal_n_gives_global_majority():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [50.0]])
    y = np.array([1, 1, 1, 0, 2])
    model = knn_fit((X, y), k=5)
    for q in ([0.0], [100.0], [-7.0]):
        assert model.predict(q) == 1


def test_vote_tie_goes_to_higher_risk():
    X = np.array([[0.0], [2.0]])
    y = np.array([0, 2])
    model = knn_fit((X, y), k=2)
    assert model.predict([1.0]) == 2
    assert model.predict([0.0]) == 2  # both neighbors always vote


def test_distance_tie_keeps_lower_training_index():
    # two identical rows with different labels: index order decides the k=1 vote
    X = np.array([[1.0, 1.0], [1.0, 1.0], [8.0, 8.0]])
    y = np.array([2, 0, 1])
    assert knn_fit((X, y), k=1).predict([1.0, 1.0]) == 2
    y_swapped = np.array([0, 2, 1])
    assert knn_fit((X, y_swapped), k=1).predict([1.0, 1.0]) == 0


def test_k_bounds_enforced():
    X, y = np.zeros((3, 2)), np.array([0, 1, 2])
    with pytest.raises(ValueError):
        knn_fit((X, y), k=4)
    with pytest.raises(ValueError):
        knn_fit((X, y), k=0)


def test_neighbor_table_serves_every_k():
    rng = np.random.default_rng(2)
    X = rng.random((40, 5))
    y = rng.integers(0, 3, 40)
    queries = rng.random((12, 5))
    ranked = neighbor_labels(X, y, queries, k_max=15)
    for k in (1, 3, 7, 15):
        direct = knn_fit((X, y), k=k).predict(queries)
        assert np.array_equal(vote(ranked, k), direct)


def test_brute_force_equivalence():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(5, 60))
        X = rng.random((n, 4))
        y = rng.integers(0, 3, n)
        k = int(rng.integers(1, n + 1))
        model = knn_fit((X, y), k=k)
        for q in rng.random((8, 4)):
            d = np.sqrt(((X - q) ** 2).sum(axis=1))
            ranked = sorted(range(n), key=lambda i: (d[i], i))[:k]
            counts = np.bincount(y[ranked], minlength=3)
            expected = max((0, 1, 2), key=lambda c: (counts[c], c))
            assert model.predict(q) == expected


@st.composite
def tied_rows(draw):
    """(train, queries) with many exact distance ties: few columns, training rows
    repeated from a small pool, cells that are 0/1 or a few dense values."""
    width = draw(st.integers(1, 4))
    cells = [0.0, 1.0] if draw(st.booleans()) else [-1.5, 0.0, 0.25, 0.5, 3.0]
    row = st.lists(st.sampled_from(cells), min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    queries = draw(st.lists(row, min_size=1, max_size=10))
    return np.array([pool[i] for i in picks]), np.array(queries)


@given(tied_rows())
@settings(max_examples=200, deadline=None)
def test_ranking_is_the_full_stable_sort_for_every_k(data):
    train, queries = data
    n = train.shape[0]
    index = np.arange(n)  # row indices as labels: the ranking itself is compared
    d2 = np.einsum("ij,ij->i", train, train)[None, :] - 2.0 * (queries @ train.T)
    full = np.argsort(d2, axis=1, kind="stable")
    for k_max in range(1, n + 1):
        assert np.array_equal(neighbor_labels(train, index, queries, k_max), full[:, :k_max])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_refused(bad):
    X, y = np.zeros((3, 2)), np.array([0, 1, 2])
    X_bad = X.copy()
    X_bad[1, 0] = bad
    with pytest.raises(ValueError, match="^kNN training values must be finite"):
        knn_fit((X_bad, y), k=1)
    with pytest.raises(ValueError, match="^kNN queries must be finite"):
        knn_fit((X, y), k=1).predict([[0.0, bad]])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^kNN distances must be finite"):
        neighbor_labels(X, y, np.array([[bad, 0.0]]), k_max=1)


@pytest.mark.parametrize("k_max", [0, -1, 4])
def test_k_max_outside_the_training_rows_is_refused(k_max):
    X, y = np.zeros((3, 2)), np.array([0, 1, 2])
    with pytest.raises(ValueError, match=rf"^k_max must satisfy 1 <= k_max <= 3, got {k_max}$"):
        neighbor_labels(X, y, np.zeros((2, 2)), k_max)


def test_traced_peak_does_not_grow_with_the_query_count():
    """Queries are ranked in blocks of at most 2**20 distance cells, so
    ranking 2,000 queries peaks within 1.5x of ranking 200, on an 8,000 x 30
    binary training part at k 20."""
    rng = np.random.default_rng(5)
    train = (rng.random((8000, 30)) < 0.5).astype(float)
    labels = rng.integers(0, 3, 8000)
    peaks = {}
    for n_queries in (200, 2000):
        queries = (rng.random((n_queries, 30)) < 0.5).astype(float)
        tracemalloc.start()
        try:
            neighbor_labels(train, labels, queries, k_max=20)
            peaks[n_queries] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] < 1.5 * peaks[200]
