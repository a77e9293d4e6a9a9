"""Model selection: exhaustive grids, k-fold tuning and ranked tables, on one engine.

`evaluate_space` scores every config of a search space on one (train, test)
pair, in groups that share work: one set of class statistics for every NC
metric and shrink threshold, one neighbor ranking for every k, one full-depth
tree for all of its depth caps, and a forest's member trees for every smaller
ensemble. Grid search calls it once; k-fold tuning draws the folds once, as
row indices, and calls it per fold on that fold's parts. Every config is
checked once, before grouping, so a group holds only configs its family's
rule accepts. A seed rule gives every config of a group the same fit seed,
and the group's work gets that one seed, which makes the sharing exact: the
grid's rule derives it from the hyperparameters that reach the sampler (so
any one grid point refitted alone reproduces its row), the k-fold rule from
the fold.

A config's hyperparameters, with their defaults and types, are its family's
fit function's parameters; a config naming any other, or giving a value of
another type than the parameter's annotation, is rejected, and a value the
family's rule (the checks its fit function makes first) rejects makes an
error row. `check_params` is the one check of a dict of hyperparameters: for
configs, for the configs `evaluate_space` groups and for model files.

`threshold_sensitivity` splits an encoded matrix once, since a split depends
only on the row count and the seed, and for each High threshold relabels both
parts from the follow-up counts the matrix carries.
"""

from __future__ import annotations

import inspect
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import knn, nearest_centroid, trees
from .baseline import RuleSystem
from .dataset import (
    FeatureMatrix,
    SplitSpec,
    finite_float,
    fmt_float,
    kfold_indices,
    require_type,
    split,
    write_table,
)
from .knn import knn_fit, neighbor_labels, vote
from .metrics import MetricSpec, class_scores, confusion, police_protection
from .nearest_centroid import distance_of, nc_fit, nc_shrink, nc_stats
from .seeding import derive_seed
from .trees import forest_fit, forest_members, prefix_votes, tree_fit

_FIT_NAMES = {"nc": "nc_fit", "knn": "knn_fit", "tree": "tree_fit", "forest": "forest_fit"}
FAMILIES = tuple(_FIT_NAMES)

# Each fit function's parameters after the training data, with their defaults
# and annotated types: the one list of hyperparameters. `seed` among them is
# passed by the caller.
_FIT_PARAMS = {
    family: dict(list(inspect.signature(globals()[fit], eval_str=True).parameters.items())[1:])
    for family, fit in _FIT_NAMES.items()
}

# Each family's value rule: the checks its fit function makes first. A rule
# takes fit parameters by name, and kNN's also the training-row count n_rows.
_RULES = {"nc": nearest_centroid._validate, "knn": knn._validate, "tree": trees._validate,
          "forest": trees._validate}
_RULE_ARGS = {family: tuple(inspect.signature(rule).parameters) for family, rule in _RULES.items()}


def check_params(family: str, params: dict, kind: str, n_rows: int | None = None,
                 config: bool = False) -> None:
    """Check a dict of `family`'s hyperparameters as its fit function takes them:
    the names, each value's type against the fit annotation (ValueError("<kind>
    '<name>' must be <type>"), `kind` being "parameter" or "field"), that a
    value of a float parameter is a finite float (ValueError("<kind> '<name>'
    must be finite"), also for an int beyond the float range), then the
    values by the family's rule on `n_rows` training rows, with the fit's own
    message. A config (`config=True`) is checked for names and types only, and
    may not name `seed`, which its caller passes."""
    fit_params = _FIT_PARAMS[family]
    names = [name for name in fit_params if not (config and name == "seed")]
    unknown = sorted(set(params) - set(names))
    missing = [name for name in names if name not in params
               and fit_params[name].default is inspect.Parameter.empty]
    if unknown or missing:
        problem = (f"unknown {kind}(s) {', '.join(unknown)}" if unknown
                   else f"missing {kind}(s) {', '.join(missing)}")
        raise ValueError(f"{problem}; {family} takes {', '.join(names)}")
    for name, value in params.items():
        annotation = fit_params[name].annotation
        require_type(f"{kind} '{name}'", value, annotation)
        if value is not None and float in getattr(annotation, "__args__", (annotation,)):
            finite_float(value, f"{kind} '{name}' must be finite")
    if not config:
        values = {name: params.get(name, p.default) for name, p in fit_params.items()}
        values["n_rows"] = n_rows
        _RULES[family](**{name: values[name] for name in _RULE_ARGS[family] if name in values})


@dataclass(frozen=True)
class ModelConfig:
    family: str
    params: dict

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        try:
            check_params(self.family, self.params, "parameter", config=True)
        except ValueError as exc:
            raise ValueError(f"{self.family} [{self.canonical()}]: {exc}") from None

    def canonical(self) -> str:
        return _canonical_params(self.params)

    def value(self, name: str):
        """The value of a hyperparameter: as given, else its fit function's default."""
        return self.params.get(name, _FIT_PARAMS[self.family][name].default)


def _canonical_params(params: dict) -> str:
    parts = []
    for key in sorted(params):
        value = params[key]
        parts.append(f"{key}={'none' if value is None else value}")
    return ", ".join(parts)


def fit_model(config: ModelConfig, train: FeatureMatrix, seed: int = 0):
    """Fit with the family's fit function; returns a model exposing predict()."""
    # looked up at call time, so a wrapper installed on this module's name sees every fit
    fit = globals()[_FIT_NAMES[config.family]]
    if "seed" in _FIT_PARAMS[config.family]:
        return fit(train, **config.params, seed=seed)
    return fit(train, **config.params)


def _group_key(config: ModelConfig) -> tuple:
    """Configs with equal keys sample identically: they share one seed and their work.

    Depth caps and ensemble-size prefixes reuse the same random stream, which
    is what makes the structure sharing of the group predictors exact rather
    than approximate.
    """
    if config.family == "tree":
        return ("tree", config.value("criterion"), config.value("splitter"))
    if config.family == "forest":
        return ("forest", config.value("criterion"),
                "bootstrap" if config.value("bootstrap") else "plain")
    return (config.family,)


def config_seed(master_seed: int, config: ModelConfig) -> int:
    """Seed for one grid point, the same for every config of its group."""
    return derive_seed(master_seed, *_group_key(config))


def parallel_map(fn, items, jobs: int = 1) -> list:
    """`[fn(item) for item in items]`, computed on up to `jobs` threads."""
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Search spaces.

_DT_DEPTHS = (5, 10, 50, 100, None)
_RF_ESTIMATORS = (1, 5, 10, 100, 500)
_KNN_KS = (2, 5, 10, 20, 50, 100, 200)
_NC_METRICS = ("euclidean", "minkowski", "manhattan")
_NC_SHRINKS = (0.1, 0.5, 1, 10, 20, None)
_NC_SHRINKS_FINE = (0.1, 0.25, 0.5, 0.75, 1, 5, 10, 20, None)


@dataclass(frozen=True)
class SearchSpace:
    configs: tuple[ModelConfig, ...]

    def __post_init__(self):
        if not self.configs:
            raise ValueError("search space is empty")

    def __len__(self) -> int:
        return len(self.configs)


def default_search_space() -> SearchSpace:
    configs = []
    for criterion in ("entropy", "gini"):
        for splitter in ("best", "random"):
            for depth in _DT_DEPTHS:
                configs.append(
                    ModelConfig("tree", {"criterion": criterion, "splitter": splitter, "max_depth": depth})
                )
    for criterion in ("entropy", "gini"):
        for n_estimators in _RF_ESTIMATORS:
            for depth in _DT_DEPTHS:
                configs.append(
                    ModelConfig(
                        "forest",
                        {"criterion": criterion, "n_estimators": n_estimators, "max_depth": depth},
                    )
                )
    for k in _KNN_KS:
        configs.append(ModelConfig("knn", {"k": k}))
    for metric in _NC_METRICS:
        for shrink in _NC_SHRINKS:
            configs.append(ModelConfig("nc", {"metric": metric, "shrink_threshold": shrink}))
    return SearchSpace(tuple(configs))


def nc_fine_space() -> SearchSpace:
    return SearchSpace(
        tuple(
            ModelConfig("nc", {"metric": metric, "shrink_threshold": shrink})
            for metric in _NC_METRICS
            for shrink in _NC_SHRINKS_FINE
        )
    )


# ---------------------------------------------------------------------------
# Ranked result tables.

@dataclass
class ResultRow:
    family: str
    params: dict
    objective_value: float | None
    high_f1: float | None
    weighted_f1: float | None
    protection: float | None
    error: str | None = None
    rank: int = 0

    def config(self) -> ModelConfig:
        return ModelConfig(self.family, dict(self.params))

    def canonical(self) -> str:
        return _canonical_params(self.params)


@dataclass
class ResultTable:
    objective: MetricSpec
    rows: list[ResultRow] = field(default_factory=list)


def rank_rows(rows: list, objective: MetricSpec, value: str = "objective_value") -> list:
    """Rows best first by their `value` attribute; rows without one (failures)
    last; ties by family, then params. Ranks are numbered from 1."""
    sign = -1.0 if objective.higher_is_better else 1.0

    def key(row):
        v = getattr(row, value)
        return (v is None, 0.0 if v is None else sign * v, row.family, row.canonical())

    return [replace(row, rank=i + 1) for i, row in enumerate(sorted(rows, key=key))]


RESULT_COLUMNS = ("rank", "family", "params", "objective", "high_f1", "weighted_f1",
                  "police_protection", "error")


def write_result_table(path: str | Path, table: ResultTable, manifest: str | None = None) -> None:
    rows = (
        [row.rank, row.family, row.canonical(),
         *map(fmt_float, (row.objective_value, row.high_f1, row.weighted_f1, row.protection)),
         row.error or ""]
        for row in table.rows
    )
    write_table(path, RESULT_COLUMNS, rows, manifest,
                comments=[f"objective: {table.objective.label()}"])


def format_result_table(table: ResultTable) -> str:
    header = ("rank", "family", "params", "objective", "high_f1", "wgt_f1", "protection")
    lines = [[str(r.rank), r.family, r.canonical(),
              _fmt6(r.objective_value), _fmt6(r.high_f1), _fmt6(r.weighted_f1), _fmt6(r.protection)]
             for r in table.rows]
    widths = [max(len(h), *(len(line[i]) for line in lines)) if lines else len(h)
              for i, h in enumerate(header)]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for line in lines:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(out)


def _fmt6(value) -> str:
    return "-" if value is None else f"{value:.6f}"


# ---------------------------------------------------------------------------
# Evaluation: grid search and k-fold tuning.

def _score_row(family: str, params: dict, preds: np.ndarray, truths: np.ndarray,
               objective: MetricSpec) -> ResultRow:
    cm = confusion(preds, truths)
    scores = class_scores(cm)
    return ResultRow(
        family=family,
        params=dict(params),
        objective_value=objective.evaluate(cm),
        high_f1=float(scores.f1[2]),
        weighted_f1=scores.weighted_f1,
        protection=police_protection(cm),
    )


def _predict_nc(configs, train, test, seed):
    """Every metric and shrink threshold from one set of class statistics, and one
    prediction per distinct model: minkowski of order 2 or 1 is euclidean or manhattan.
    The test part's float rows are built once, for every model."""
    try:
        stats = nc_stats(train, deviations=any(c.value("shrink_threshold") is not None
                                               for c in configs))
    except ValueError as exc:
        return [str(exc)] * len(configs)
    test_rows, models, out = test.values, {}, []
    for config in configs:
        metric, shrink, p = (config.value(name) for name in ("metric", "shrink_threshold", "p"))
        distance = distance_of(metric, p)
        key = (distance, p if distance == "minkowski" else None, shrink)
        if key not in models:
            try:
                models[key] = nc_shrink(stats, metric, shrink, p).predict(test_rows)
            except ValueError as exc:
                models[key] = str(exc)
        out.append(models[key])
    return out


def _predict_knn(configs, train, test, seed):
    """Every k from one ranking of the neighbors."""
    ranked = neighbor_labels(train.values, train.labels, test,
                             max(config.params["k"] for config in configs))
    return [vote(ranked, config.params["k"]) for config in configs]


def _predict_tree_group(configs, train, test, seed):
    """All depth caps of one (criterion, splitter) pair from a single fit."""
    full = tree_fit(train, criterion=configs[0].value("criterion"),
                    splitter=configs[0].value("splitter"), max_depth=None, seed=seed)
    return full.predict_at_depths(test, [config.value("max_depth") for config in configs])


def _predict_forest_group(configs, train, test, seed):
    """One (criterion, bootstrap) group: every (n_estimators, max_depth) point is
    a vote prefix over shared full-depth members, from one `prefix_votes` pass."""
    criterion, bootstrap = configs[0].value("criterion"), configs[0].value("bootstrap")
    points = [(c.value("n_estimators"), c.value("max_depth")) for c in configs]
    sizes, depths = zip(*points)
    members = forest_members(train.values, train.labels, criterion, None, seed,
                             range(max(sizes)), bootstrap)
    labels = prefix_votes(members, test.values, sizes, depths)
    return [labels[point] for point in points]


# per family: `(configs, train, test, seed)` -> one outcome per config of a group,
# its predicted labels, or why the group's shared work failed for it
_PREDICTORS = {"nc": _predict_nc, "knn": _predict_knn, "tree": _predict_tree_group,
               "forest": _predict_forest_group}


def evaluate_space(
    space: SearchSpace,
    train: FeatureMatrix,
    test: FeatureMatrix,
    objective: MetricSpec,
    seed_of,
    jobs: int = 1,
) -> list[ResultRow]:
    """Fit every config of `space` on `train` and score it on `test`.

    Returns one row per config, in space order. Each config is checked once,
    before grouping: one its family's rule rejects on `train` gets an error
    row with the rule's message and joins no group. A group's predictor sees
    only its accepted configs and one fit seed, `seed_of` of the first of them;
    `seed_of(config)` must be the same for every config of a group. Groups run
    on up to `jobs` threads.
    """
    if train.width != test.width:
        raise ValueError("train and test encoded widths differ")
    outcomes = [None] * len(space)
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(space.configs):
        try:
            check_params(config.family, config.params, "parameter", train.n_rows)
        except ValueError as exc:
            outcomes[i] = str(exc)
        else:
            groups.setdefault(_group_key(config), []).append(i)

    def run(positions):
        configs = [space.configs[i] for i in positions]
        return _PREDICTORS[configs[0].family](configs, train, test, seed_of(configs[0]))

    for positions, group in zip(groups.values(), parallel_map(run, groups.values(), jobs)):
        for i, outcome in zip(positions, group):
            outcomes[i] = outcome
    return [ResultRow(config.family, dict(config.params), None, None, None, None, error=outcome)
            if isinstance(outcome, str) else
            _score_row(config.family, config.params, outcome, test.labels, objective)
            for config, outcome in zip(space.configs, outcomes)]


def grid_search(
    space: SearchSpace,
    train: FeatureMatrix,
    test: FeatureMatrix,
    objective: str | MetricSpec = "high_f1",
    master_seed: int = 0,
    jobs: int = 1,
) -> ResultTable:
    """Train and score every grid point; failures become marked rows."""
    if isinstance(objective, str):
        objective = MetricSpec(objective)
    rows = evaluate_space(space, train, test, objective,
                          lambda config: config_seed(master_seed, config), jobs)
    return ResultTable(objective, rank_rows(rows, objective))


def rescore_row(row: ResultRow, train: FeatureMatrix, test: FeatureMatrix,
                objective: MetricSpec, master_seed: int) -> ResultRow:
    """Fit one table row's config from scratch; must reproduce its scores."""
    config = row.config()
    model = fit_model(config, train, config_seed(master_seed, config))
    return _score_row(config.family, config.params, model.predict(test), test.labels, objective)


@dataclass
class CVRow:
    family: str
    params: dict
    mean: float
    std: float
    rank: int = 0

    def canonical(self) -> str:
        return _canonical_params(self.params)


@dataclass
class CVTable:
    objective: MetricSpec
    k: int
    rows: list[CVRow]

    def best_config(self) -> ModelConfig:
        top = self.rows[0]
        return ModelConfig(top.family, dict(top.params))


def cv_table(
    space: SearchSpace,
    data: FeatureMatrix,
    k: int = 10,
    objective: str | MetricSpec = "police_protection",
    master_seed: int = 0,
    jobs: int = 1,
) -> CVTable:
    """Tuning table: k-fold mean/std per config, ranked by mean.

    The folds are drawn once, as row indices, and each is evaluated like a
    grid, every config of a fold fitted with that fold's seed. A fold's train
    and validation parts are copied out of `data` when the fold runs and
    dropped when it ends, so at most `jobs` folds' parts are in memory at
    once. A config rejected on any fold raises ValueError("<family>
    [<params>]: <error>"). Folds run on up to `jobs` threads.
    """
    if isinstance(objective, str):
        objective = MetricSpec(objective)
    folds = kfold_indices(data.n_rows, k, derive_seed(master_seed, "cv-folds"))

    def run(fold_idx):
        train_idx, val_idx = folds[fold_idx]
        seed = derive_seed(master_seed, "cv-fit", fold_idx)
        return evaluate_space(space, data.take(train_idx), data.take(val_idx), objective,
                              lambda config: seed)

    rows = []
    for config, fold_rows in zip(space.configs, zip(*parallel_map(run, range(k), jobs))):
        for row in fold_rows:
            if row.error is not None:
                raise ValueError(f"{config.family} [{config.canonical()}]: {row.error}")
        values = np.array([row.objective_value for row in fold_rows])
        rows.append(CVRow(config.family, dict(config.params), float(values.mean()),
                          float(values.std(ddof=0))))
    return CVTable(objective, k, rank_rows(rows, objective, "mean"))


def nc_fine_tune(data: FeatureMatrix, k: int = 10, master_seed: int = 0) -> CVTable:
    """Fine shrink grid tuned by k-fold police protection."""
    return cv_table(nc_fine_space(), data, k, "police_protection", master_seed)


CV_COLUMNS = ("rank", "family", "params", "mean", "std", "k", "objective")


def write_cv_table(path: str | Path, table: CVTable, manifest: str | None = None) -> None:
    rows = (
        [row.rank, row.family, row.canonical(), fmt_float(row.mean), fmt_float(row.std),
         table.k, table.objective.label()]
        for row in table.rows
    )
    write_table(path, CV_COLUMNS, rows, manifest)


# ---------------------------------------------------------------------------
# Baseline comparison and threshold sensitivity.

def compare_with_baseline(
    rule_systems: list[RuleSystem], ml_table: ResultTable, test: FeatureMatrix
) -> ResultTable:
    """Side-by-side table: rule-system rows appended under the same test split."""
    if test.viogen_scores is None:
        raise ValueError("test rows carry no baseline assessment scores")
    rows = list(ml_table.rows)
    for rs in rule_systems:
        rows.append(_score_row("rule", {"rule_system": rs.name}, rs.apply_many(test.viogen_scores),
                               test.labels, ml_table.objective))
    return ResultTable(ml_table.objective, rank_rows(rows, ml_table.objective))


@dataclass(frozen=True)
class EvalPlan:
    model: ModelConfig
    split: SplitSpec = SplitSpec()
    seed: int = 0


@dataclass(frozen=True)
class SensitivityRow:
    high_threshold: int
    protection: float
    f1_no: float
    f1_low: float
    f1_high: float
    weighted_f1: float


def threshold_sensitivity(matrix: FeatureMatrix, thresholds, plan: EvalPlan) -> list[SensitivityRow]:
    """Relabel both parts of one split, retrain and rescore, once per High threshold."""
    thresholds = list(thresholds)
    if any(t < 2 for t in thresholds):
        raise ValueError("every threshold must be >= 2")
    if matrix.counts is None:
        raise ValueError("threshold sensitivity needs the follow-up counts of encoded cases")
    parts = split(matrix, plan.split)
    rows = []
    for threshold in thresholds:
        train, test = (part.relabel(threshold) for part in parts)
        model = fit_model(plan.model, train, derive_seed(plan.seed, "sensitivity", threshold))
        cm = confusion(model.predict(test), test.labels)
        scores = class_scores(cm)
        rows.append(
            SensitivityRow(
                high_threshold=threshold,
                protection=police_protection(cm),
                f1_no=float(scores.f1[0]),
                f1_low=float(scores.f1[1]),
                f1_high=float(scores.f1[2]),
                weighted_f1=scores.weighted_f1,
            )
        )
    return rows


SENSITIVITY_COLUMNS = ("high_threshold", "police_protection", "f1_no", "f1_low", "f1_high",
                       "weighted_f1")


def write_sensitivity(path: str | Path, rows: list[SensitivityRow],
                      manifest: str | None = None) -> None:
    cells = (
        [row.high_threshold,
         *map(fmt_float, (row.protection, row.f1_no, row.f1_low, row.f1_high, row.weighted_f1))]
        for row in rows
    )
    write_table(path, SENSITIVITY_COLUMNS, cells, manifest)
