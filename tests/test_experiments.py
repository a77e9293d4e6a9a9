"""Grid search, cross-validation and the comparison/sensitivity tables."""

import dataclasses
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recidrisk import experiments
from recidrisk.baseline import NAMED_RULE_SYSTEMS
from recidrisk.dataset import FeatureMatrix, SplitSpec, encode_cases, kfold, risk_labels, split
from recidrisk.experiments import (
    EvalPlan,
    ModelConfig,
    SearchSpace,
    compare_with_baseline,
    config_seed,
    cv_table,
    default_search_space,
    evaluate_space,
    fit_model,
    grid_search,
    nc_fine_space,
    nc_fine_tune,
    SensitivityRow,
    _predict_forest_group,
    rescore_row,
    threshold_sensitivity,
)
from recidrisk.metrics import MetricSpec, class_scores, confusion, police_protection
from recidrisk.nearest_centroid import NearestCentroidModel, nc_fit
from recidrisk.seeding import derive_seed


def cv_oracle(config, data, k, objective, master_seed):
    """Per-config k-fold: the folds, then a fresh fit of the one config per fold."""
    values = []
    for fold_idx, (fit_part, val_part) in enumerate(kfold(data, k, derive_seed(master_seed, "cv-folds"))):
        model = fit_model(config, fit_part, derive_seed(master_seed, "cv-fit", fold_idx))
        values.append(objective.evaluate(confusion(model.predict(val_part.values), val_part.labels)))
    return np.array(values)


def test_default_space_counts():
    space = default_search_space()
    by_family = {}
    for config in space.configs:
        by_family[config.family] = by_family.get(config.family, 0) + 1
    assert by_family == {"tree": 20, "forest": 50, "knn": 7, "nc": 18}
    assert len(space) == 95


def test_nc_fine_space_counts():
    space = nc_fine_space()
    assert len(space) == 27
    shrinks = {c.params["shrink_threshold"] for c in space.configs}
    assert {0.25, 0.75, 5} <= shrinks


@pytest.mark.parametrize("config", [
    ModelConfig("nc", {"metric": "euclidean", "shrink_threshold": 1}),
    ModelConfig("knn", {"k": 5}),
    ModelConfig("tree", {"max_depth": 4}),
    ModelConfig("forest", {"n_estimators": 3, "max_depth": 4}),
], ids=lambda config: config.family)
def test_one_predict_input_rule(small_split, config):
    train, test = small_split
    model = fit_model(config, train, seed=3)
    label = model.predict(test.values[0])
    assert np.ndim(label) == 0 and label == model.predict(test.values)[0]
    for bad in (test.values[:, :-1], test.values[0, :-1], test.values[0, 0]):
        with pytest.raises(ValueError, match=f"^expected width {train.width}, "):
            model.predict(bad)


def test_singleton_grid_matches_direct_run(small_split):
    train, test = small_split
    config = ModelConfig("nc", {"metric": "euclidean", "shrink_threshold": 1})
    table = grid_search(SearchSpace((config,)), train, test, "high_f1", master_seed=5)
    assert len(table.rows) == 1
    model = nc_fit(train, metric="euclidean", shrink_threshold=1)
    cm = confusion(model.predict(test.values), test.labels)
    assert table.rows[0].objective_value == MetricSpec("high_f1").evaluate(cm)
    assert table.rows[0].rank == 1


def test_minkowski_duplicate_rows_identical(small_split):
    train, test = small_split
    space = SearchSpace(
        (
            ModelConfig("nc", {"metric": "euclidean", "shrink_threshold": None}),
            ModelConfig("nc", {"metric": "minkowski", "shrink_threshold": None}),
        )
    )
    table = grid_search(space, train, test, "high_f1", master_seed=6)
    assert table.rows[0].objective_value == table.rows[1].objective_value
    assert table.rows[0].protection == table.rows[1].protection


def _tiny_space():
    return SearchSpace(
        (
            ModelConfig("nc", {"metric": "euclidean", "shrink_threshold": 0.5}),
            ModelConfig("nc", {"metric": "manhattan", "shrink_threshold": None}),
            ModelConfig("knn", {"k": 5}),
            ModelConfig("knn", {"k": 100000}),  # exceeds n: must become an error row
            ModelConfig("tree", {"criterion": "gini", "splitter": "best", "max_depth": 5}),
            ModelConfig("tree", {"criterion": "gini", "splitter": "best", "max_depth": None}),
            ModelConfig("tree", {"criterion": "entropy", "splitter": "random", "max_depth": 10}),
            ModelConfig("forest", {"criterion": "gini", "n_estimators": 3, "max_depth": 4}),
            ModelConfig("forest", {"criterion": "gini", "n_estimators": 7, "max_depth": None}),
            ModelConfig("forest", {"criterion": "entropy", "n_estimators": 5, "max_depth": 2}),
        )
    )


def test_grid_rows_and_error_marking(small_split):
    train, test = small_split
    table = grid_search(_tiny_space(), train, test, "police_protection", master_seed=7)
    assert len(table.rows) == len(_tiny_space())
    errors = [r for r in table.rows if r.error]
    assert len(errors) == 1
    assert errors[0].params["k"] == 100000
    assert errors[0].rank == len(table.rows)  # failures sort last
    values = [r.objective_value for r in table.rows if r.error is None]
    assert values == sorted(values, reverse=True)


def test_grid_deterministic_and_jobs_invariant(small_split):
    train, test = small_split
    a = grid_search(_tiny_space(), train, test, "high_f1", master_seed=8, jobs=1)
    b = grid_search(_tiny_space(), train, test, "high_f1", master_seed=8, jobs=8)
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.family, ra.canonical(), ra.rank) == (rb.family, rb.canonical(), rb.rank)
        assert ra.objective_value == rb.objective_value
        assert ra.high_f1 == rb.high_f1
        assert ra.weighted_f1 == rb.weighted_f1
        assert ra.protection == rb.protection


def test_every_row_rescoreable_from_scratch(small_split):
    train, test = small_split
    objective = MetricSpec("high_f1")
    table = grid_search(_tiny_space(), train, test, objective, master_seed=9)
    for row in table.rows:
        if row.error is not None:
            continue
        redo = rescore_row(row, train, test, objective, master_seed=9)
        assert redo.objective_value == row.objective_value
        assert redo.high_f1 == row.high_f1
        assert redo.weighted_f1 == row.weighted_f1
        assert redo.protection == row.protection


def test_config_seed_shared_across_prefix_dimensions():
    base = ModelConfig("forest", {"criterion": "gini", "n_estimators": 5, "max_depth": 10})
    more = ModelConfig("forest", {"criterion": "gini", "n_estimators": 500, "max_depth": None})
    other = ModelConfig("forest", {"criterion": "entropy", "n_estimators": 5, "max_depth": 10})
    assert config_seed(3, base) == config_seed(3, more)
    assert config_seed(3, base) != config_seed(3, other)


def test_cross_validate_constant_labels_zero_std():
    rng = np.random.default_rng(1)
    matrix = FeatureMatrix((rng.random((40, 4)) < 0.5).astype(float), np.ones(40, dtype=int))
    config = ModelConfig("nc", {})
    (row,) = cv_table(SearchSpace((config,)), matrix, k=5, master_seed=2).rows
    values = cv_oracle(config, matrix, 5, MetricSpec("police_protection"), 2)
    assert len(set(values)) == 1
    assert (row.mean, row.std) == (values.mean(), 0.0)


def test_cross_validate_two_folds_by_hand():
    # 4 rows, k=2: recompute both folds with the same derived fold split
    values = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    labels = np.array([0, 2, 0, 2])
    matrix = FeatureMatrix(values, labels)
    config = ModelConfig("nc", {})
    (row,) = cv_table(SearchSpace((config,)), matrix, k=2, objective="police_protection",
                      master_seed=4).rows

    folds = kfold(matrix, 2, derive_seed(4, "cv-folds"))
    expected = []
    for fit_part, val_part in folds:
        model = nc_fit(fit_part)
        cm = confusion(model.predict(val_part.values), val_part.labels)
        expected.append(police_protection(cm))
    assert list(cv_oracle(config, matrix, 2, MetricSpec("police_protection"), 4)) == expected
    assert (row.mean, row.std) == (np.mean(expected), np.std(expected))


NC_CONFIGS = st.tuples(
    st.sampled_from(["euclidean", "manhattan", "minkowski", "chebyshev"]),  # the last is invalid
    st.one_of(st.just({}), st.sampled_from([1, 2, 3, 1.0, 2.0, 3.0, 4.5]).map(lambda p: {"p": p})),
    st.sampled_from([None, 0, 0.0, 0.3, 1, 4.0]),
).map(lambda t: ModelConfig("nc", {"metric": t[0], **t[1], "shrink_threshold": t[2]}))


def _group_outcomes(space, train, test):
    """evaluate_space's rows with each score replaced by the labels it was computed from."""
    with mock.patch.object(experiments, "_score_row", lambda family, params, preds, *_: preds):
        rows = evaluate_space(space, train, test, MetricSpec("high_f1"), lambda config: 0)
    return [row.error if isinstance(row, experiments.ResultRow) else row for row in rows]


@settings(max_examples=60, deadline=None)
@given(configs=st.lists(NC_CONFIGS, min_size=1, max_size=10), n_classes=st.integers(1, 3),
       singleton=st.booleans(), width=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(configs=[ModelConfig("nc", {"metric": "minkowski", "p": p, "shrink_threshold": None})
                  for p in (3, 4.5)]
         + [ModelConfig("nc", {"shrink_threshold": shrink}) for shrink in (0, 0.3)],
         n_classes=3, singleton=False, width=6, seed=1)  # both pairs predict differently here
def test_nc_group_is_each_config_fitted_alone(configs, n_classes, singleton, width, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(2, 6, n_classes)
    if singleton:
        counts[0] = 1
    labels = np.repeat(np.sort(rng.choice(3, n_classes, replace=False)), counts)
    train = FeatureMatrix((rng.random((labels.size, width)) < 0.5).astype(float), rng.permutation(labels))
    test = FeatureMatrix((rng.random((20, width)) < 0.5).astype(float), rng.integers(0, 3, 20))
    for config, outcome in zip(configs, _group_outcomes(SearchSpace(tuple(configs)), train, test)):
        try:
            expected = nc_fit(train, **config.params).predict(test.values)
        except ValueError as exc:
            assert outcome == str(exc)
        else:
            assert isinstance(outcome, np.ndarray) and outcome.dtype == expected.dtype
            assert np.array_equal(outcome, expected)


@pytest.mark.parametrize("space, predicts", [
    (nc_fine_space(), 18),
    (SearchSpace(tuple(c for c in default_search_space().configs if c.family == "nc")), 12),
], ids=["nc_fine", "default_grid"])
def test_nc_group_shares_one_pass_and_predicts_once_per_model(small_split, monkeypatch, space,
                                                              predicts):
    train, test = small_split
    calls = {"stats": 0, "predict": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "nc_stats", counted("stats", experiments.nc_stats))
    monkeypatch.setattr(NearestCentroidModel, "predict", counted("predict", NearestCentroidModel.predict))
    rows = evaluate_space(space, train, test, MetricSpec("high_f1"), lambda config: 0)
    assert all(row.error is None for row in rows)
    assert calls == {"stats": 1, "predict": predicts}


def test_nc_fine_tune_table_shape(small_split):
    train, _ = small_split
    table = nc_fine_tune(train.take(np.arange(400)), k=4, master_seed=5)
    assert len(table.rows) == 27
    assert [row.rank for row in table.rows] == list(range(1, 28))
    means = [row.mean for row in table.rows]
    assert means == sorted(means, reverse=True)
    assert all(row.std >= 0 for row in table.rows)
    best = table.best_config()
    assert best.family == "nc" and "metric" in best.params


def test_compare_with_baseline_appends_rule_rows(small_split):
    train, test = small_split
    ml = grid_search(
        SearchSpace((ModelConfig("nc", {"metric": "euclidean", "shrink_threshold": 0.5}),)),
        train, test, "police_protection", master_seed=6,
    )
    combined = compare_with_baseline(list(NAMED_RULE_SYSTEMS.values()), ml, test)
    rule_rows = [r for r in combined.rows if r.family == "rule"]
    assert len(rule_rows) == 4
    assert {r.params["rule_system"] for r in rule_rows} == set(NAMED_RULE_SYSTEMS)
    assert [r.rank for r in combined.rows] == list(range(1, len(combined.rows) + 1))


def test_compare_with_baseline_perfect_predictor_scores_three(small_split):
    train, test = small_split
    perfect = FeatureMatrix(test.values, test.labels, viogen_scores=None)
    with pytest.raises(ValueError):
        compare_with_baseline(
            list(NAMED_RULE_SYSTEMS.values()),
            grid_search(SearchSpace((ModelConfig("nc", {}),)), train, test, "high_f1", 1),
            perfect,
        )


def test_threshold_sensitivity_rows(small_corpus):
    config, records = small_corpus
    plan = EvalPlan(
        ModelConfig("nc", {"metric": "euclidean", "shrink_threshold": 0.5}),
        SplitSpec(0.67, 3),
        seed=3,
    )
    rows = threshold_sensitivity(encode_cases(records, config.schema), (3, 4, 5), plan)
    assert [r.high_threshold for r in rows] == [3, 4, 5]
    for row in rows:
        assert 0.0 <= row.protection <= 3.0


def test_threshold_sensitivity_singleton_matches_direct(small_corpus):
    config, records = small_corpus
    plan = EvalPlan(ModelConfig("nc", {}), SplitSpec(0.67, 9), seed=11)
    row = threshold_sensitivity(encode_cases(records, config.schema), (3,), plan)[0]

    matrix = encode_cases(records, config.schema, high_threshold=3)
    train, test = split(matrix, plan.split)
    model = nc_fit(train)
    cm = confusion(model.predict(test.values), test.labels)
    assert row.protection == police_protection(cm)


def test_threshold_sensitivity_rejects_low_threshold(small_corpus):
    config, records = small_corpus
    plan = EvalPlan(ModelConfig("nc", {}))
    with pytest.raises(ValueError):
        threshold_sensitivity(encode_cases(records, config.schema), (1,), plan)


def test_threshold_sensitivity_empty_low_band(small_corpus):
    # counts only 0 or 4: at threshold 2 the Low band has no support, and the
    # zero-denominator convention keeps every metric defined
    config, records = small_corpus
    doctored = [
        dataclasses.replace(rec, recidivism_count=0 if rec.recidivism_count == 0 else 4)
        for rec in records
    ]
    plan = EvalPlan(ModelConfig("nc", {}), SplitSpec(0.67, 5), seed=5)
    row = threshold_sensitivity(encode_cases(doctored, config.schema), (2,), plan)[0]
    assert row.f1_low == 0.0
    assert 0.0 <= row.protection <= 3.0
    assert np.isfinite(row.weighted_f1)


def test_threshold_sensitivity_refuses_a_matrix_without_counts(small_matrix):
    bare = FeatureMatrix(small_matrix.values, small_matrix.labels, small_matrix.viogen_scores)
    assert bare.counts is None
    with pytest.raises(ValueError, match="^threshold sensitivity needs the follow-up counts"):
        threshold_sensitivity(bare, (3,), EvalPlan(ModelConfig("nc", {})))


def sensitivity_oracle(records, schema, thresholds, plan):
    """Per threshold: encode the records labelled at it, split, fit and score."""
    rows = []
    for threshold in thresholds:
        train, test = split(encode_cases(records, schema, high_threshold=threshold), plan.split)
        model = fit_model(plan.model, train, derive_seed(plan.seed, "sensitivity", threshold))
        cm = confusion(model.predict(test.values), test.labels)
        scores = class_scores(cm)
        rows.append(SensitivityRow(threshold, police_protection(cm), float(scores.f1[0]),
                                   float(scores.f1[1]), float(scores.f1[2]), scores.weighted_f1))
    return rows


def _outcome(compute):
    """The rows, or the message of the ValueError that refused them."""
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


SENSITIVITY_CONFIGS = [ModelConfig("nc", {}), ModelConfig("nc", {"shrink_threshold": 0.5}),
                       ModelConfig("knn", {"k": 1}), ModelConfig("knn", {"k": 3}),
                       ModelConfig("tree", {"max_depth": 3}), ModelConfig("tree", {"splitter": "random"})]


@settings(max_examples=40, deadline=None)
@given(counts=st.lists(st.integers(0, 8), min_size=12, max_size=60),
       thresholds=st.lists(st.integers(2, 7), min_size=1, max_size=6),
       config=st.sampled_from(SENSITIVITY_CONFIGS), seed=st.integers(0, 2**16))
@example(counts=[10**20] + [i % 6 for i in range(29)], thresholds=[3, 2, 3],
         config=SENSITIVITY_CONFIGS[0], seed=1)
def test_sensitivity_relabels_one_split_like_per_threshold_encoding(small_corpus, counts, thresholds,
                                                                  config, seed):
    schema, records = small_corpus[0].schema, small_corpus[1][: len(counts)]
    records = [dataclasses.replace(rec, recidivism_count=c) for rec, c in zip(records, counts)]
    plan = EvalPlan(config, SplitSpec(0.67, seed), seed=seed + 1)
    matrix = encode_cases(records, schema, high_threshold=thresholds[0])
    assert (_outcome(lambda: threshold_sensitivity(matrix, thresholds, plan))
            == _outcome(lambda: sensitivity_oracle(records, schema, thresholds, plan)))
    # the counts travel with every part, and label it by the matrix's threshold
    for part in (*split(matrix, plan.split), *(p for fold in kfold(matrix, 3, seed) for p in fold)):
        assert np.array_equal(part.labels, risk_labels(part.counts, thresholds[0]))


def test_cv_table_orders_by_objective(small_split):
    train, _ = small_split
    space = SearchSpace(
        (
            ModelConfig("nc", {"metric": "euclidean", "shrink_threshold": None}),
            ModelConfig("knn", {"k": 5}),
        )
    )
    table = cv_table(space, train.take(np.arange(300)), k=3, master_seed=7)
    assert len(table.rows) == 2
    assert table.rows[0].mean >= table.rows[1].mean


def _property_data():
    rng = np.random.default_rng(61)
    return FeatureMatrix((rng.random((45, 8)) < 0.4).astype(float), rng.integers(0, 3, 45))


def _maybe(key, values):
    """A strategy for {key: value} or {} (the fit function's default)."""
    return st.one_of(st.just({}), st.sampled_from(values).map(lambda v: {key: v}))


def _config(family, *parts):
    return st.tuples(*parts).map(lambda dicts: ModelConfig(family, {k: v for d in dicts for k, v in d.items()}))


# each family can draw one value its rule rejects: minkowski p 0.5, k 40 (above the
# grid's 30 training rows), max_depth 0 and n_estimators 0
CONFIGS = st.one_of(
    _config("nc", _maybe("metric", ["euclidean", "manhattan", "minkowski"]),
            _maybe("shrink_threshold", [None, 0.1, 0.5, 2.0]), _maybe("p", [1.0, 2.0, 3.0, 0.5])),
    _config("knn", st.one_of(st.integers(1, 12), st.just(40)).map(lambda k: {"k": k})),
    _config("tree", _maybe("criterion", ["gini", "entropy"]), _maybe("splitter", ["best", "random"]),
            _maybe("max_depth", [None, 1, 2, 3, 5, 0])),
    _config("forest", _maybe("criterion", ["gini", "entropy"]), _maybe("n_estimators", [1, 2, 3, 6, 0]),
            _maybe("max_depth", [None, 1, 2, 4]), _maybe("bootstrap", [True, False])),
)


@settings(max_examples=25, deadline=None)
@given(configs=st.lists(CONFIGS, min_size=1, max_size=6), duplicate=st.booleans(),
       k=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
@example(configs=[ModelConfig("nc", {"shrink_threshold": 0.1})], duplicate=False, k=2, seed=258)
def test_cv_table_is_the_per_config_oracle_and_jobs_invariant(configs, duplicate, k, seed):
    # seed 258 leaves one fold's fit part a single class-1 row, which shrinkage rejects
    space = SearchSpace(tuple(configs + configs[:1] if duplicate else configs))
    data = _property_data()
    objective = MetricSpec("police_protection")
    expected, rejected = [], None
    for config in space.configs:
        try:
            values = cv_oracle(config, data, k, objective, seed)
        except ValueError as exc:  # the first config rejected on a fold fails the table
            rejected = f"{config.family} [{config.canonical()}]: {exc}"
            break
        expected.append((config.family, config.canonical(), values.mean(), values.std()))
    if rejected is not None:
        for jobs in (1, 3):
            with pytest.raises(ValueError) as raised:
                cv_table(space, data, k=k, master_seed=seed, jobs=jobs)
            assert str(raised.value) == rejected
    else:
        table = cv_table(space, data, k=k, master_seed=seed)
        expected.sort(key=lambda r: (-r[2], r[0], r[1]))
        assert [(r.family, r.canonical(), r.mean, r.std) for r in table.rows] == expected
        assert [r.rank for r in table.rows] == list(range(1, len(space) + 1))
        assert cv_table(space, data, k=k, master_seed=seed, jobs=3) == table

    train, test = data.take(np.arange(30)), data.take(np.arange(30, 45))
    grid = grid_search(space, train, test, objective, master_seed=seed)
    assert grid_search(space, train, test, objective, master_seed=seed, jobs=3) == grid
    for row in grid.rows:
        if row.error is not None:
            with pytest.raises(ValueError) as raised:
                rescore_row(row, train, test, objective, master_seed=seed)
            assert str(raised.value) == row.error
        else:
            assert rescore_row(row, train, test, objective, master_seed=seed) == replace(row, rank=0)


@pytest.mark.parametrize("family, bad, good", [
    ("knn", {"k": 0}, {"k": 3}),
    ("knn", {"k": -1}, {"k": 3}),
    ("tree", {"criterion": "gini", "max_depth": 0}, {"criterion": "gini", "max_depth": 3}),
    ("forest", {"criterion": "gini", "n_estimators": 0}, {"criterion": "gini", "n_estimators": 2}),
    ("knn", lambda train: {"k": train.n_rows + 1}, {"k": 3}),
], ids=["knn_k_0", "knn_k_negative", "tree_depth_0", "forest_no_trees", "knn_k_above_rows"])
def test_invalid_config_is_an_error_row(small_split, family, bad, good):
    train, test = small_split
    config = ModelConfig(family, bad(train) if callable(bad) else bad)
    with pytest.raises(ValueError) as rejected:
        fit_model(config, train)
    sibling = ModelConfig(family, good)  # same group, must still be scored
    calls, predict = [], experiments._PREDICTORS[family]

    def spy(configs, train, test, seed):
        calls.append((configs, seed))
        return predict(configs, train, test, seed)

    with mock.patch.dict(experiments._PREDICTORS, {family: spy}):
        table = grid_search(SearchSpace((config, sibling)), train, test, "high_f1", master_seed=3)
        by_params = {row.canonical(): row for row in table.rows}
        assert by_params[config.canonical()].error == str(rejected.value)
        assert by_params[config.canonical()].objective_value is None
        assert by_params[sibling.canonical()].error is None
        with pytest.raises(ValueError, match=rf"^{family} \[{config.canonical()}\]: "):
            cv_table(SearchSpace((sibling, config)), train.take(np.arange(300)), k=3)
    # the rejected config never reaches the group's predictor, which gets one seed
    assert len(calls) == 1 + 3
    assert all(configs == [sibling] and type(seed) is int for configs, seed in calls)


@pytest.mark.parametrize("family, params", [
    ("tree", {"maxdepth": 5}),
    ("forest", {"n_estimator": 5}),
    ("nc", {"seed": 1}),
    ("knn", {}),
    ("knn", {"k": "5"}),
    ("knn", {"k": True}),
    ("tree", {"max_depth": 2.5}),
    ("forest", {"bootstrap": "no"}),
    ("nc", {"metric": "minkowski", "p": float("inf")}),
    ("nc", {"shrink_threshold": float("nan")}),
    ("nc", {"shrink_threshold": -float("inf")}),
])
def test_config_names_only_fit_parameters(family, params):
    with pytest.raises(ValueError, match=rf"^{family} \[.*\]: ((unknown|missing) parameter"
                                         rf"|parameter '\w+' must be (int|int \| None|bool|finite)$)"):
        ModelConfig(family, params)


def test_config_types_follow_the_fit_annotations():
    # an int is a float, None only where the annotation allows it; nothing is converted
    config = ModelConfig("nc", {"metric": "manhattan", "shrink_threshold": 1, "p": 3})
    assert config.params == {"metric": "manhattan", "shrink_threshold": 1, "p": 3}
    assert config.canonical() == "metric=manhattan, p=3, shrink_threshold=1"
    ModelConfig("forest", {"max_depth": None, "bootstrap": False, "n_estimators": 2})
    with pytest.raises(ValueError, match=r"^nc \[p=none\]: parameter 'p' must be float$"):
        ModelConfig("nc", {"p": None})
    with pytest.raises(ValueError, match=r"^tree \[criterion=1\]: parameter 'criterion' must be str$"):
        ModelConfig("tree", {"criterion": 1})


def test_cv_table_holds_one_fold_at_a_time():
    """k = 10 folds of NC tuning peak below 3x the input matrix's bytes: each
    fold's parts are copied when it runs, not all ten folds' up front."""
    rng = np.random.default_rng(8)
    data = FeatureMatrix(rng.random((12000, 40)), rng.integers(0, 3, 12000))
    space = SearchSpace(tuple(ModelConfig("nc", {"shrink_threshold": shrink}) for shrink in (None, 0.5)))
    tracemalloc.start()
    try:
        cv_table(space, data, k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * data.values.nbytes


def test_forest_group_predicts_members_in_bounded_chunks(small_matrix):
    """A forest group's traced peak at 200 members stays within 1.5x its peak
    at 20: members are predicted in chunks of at most trees.batch_size of the
    test rows, not all together, on a 268 x 250 train part."""
    train, test = split(small_matrix.take(np.arange(400)), SplitSpec(0.67, seed=31))
    assert train.shape == (268, 250)
    peaks = {}
    for size in (20, 200):
        configs = [ModelConfig("forest", {"n_estimators": size, "max_depth": depth})
                   for depth in (5, None)]
        tracemalloc.start()
        try:
            _predict_forest_group(configs, train, test, 0)
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] < 1.5 * peaks[20]
