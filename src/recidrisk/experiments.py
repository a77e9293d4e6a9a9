"""Model selection machinery: exhaustive grids, k-fold tuning, ranked tables.

Grid evaluation exploits structure instead of refitting every point from
scratch: one full-depth tree stands in for all of its depth-capped variants,
a forest's member trees are shared across every smaller ensemble size, and
one neighbor ranking serves every k. Config seeds are derived from the
hyperparameters that actually reach the sampler, so re-fitting any single
grid point in isolation reproduces its table row exactly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .baseline import RuleSystem
from .dataset import (
    CaseRecord,
    FeatureMatrix,
    QuestionnaireSchema,
    SplitSpec,
    encode_cases,
    fmt_float,
    kfold,
    split,
    top_label,
    write_table,
)
from .knn import knn_fit, neighbor_labels, vote
from .metrics import MetricSpec, class_scores, confusion, police_protection
from .nearest_centroid import nc_fit
from .seeding import derive_seed
from .trees import _forest_tree, forest_fit, tree_fit

FAMILIES = ("nc", "knn", "tree", "forest")


@dataclass(frozen=True)
class ModelConfig:
    family: str
    params: dict

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")

    def canonical(self) -> str:
        return _canonical_params(self.params)


def _canonical_params(params: dict) -> str:
    parts = []
    for key in sorted(params):
        value = params[key]
        parts.append(f"{key}={'none' if value is None else value}")
    return ", ".join(parts)


def fit_model(config: ModelConfig, train: FeatureMatrix, seed: int = 0):
    """Uniform fit dispatch; returns a model exposing predict()."""
    params = dict(config.params)
    if config.family == "nc":
        return nc_fit(
            train,
            metric=params.pop("metric", "euclidean"),
            shrink_threshold=params.pop("shrink_threshold", None),
            p=params.pop("p", 2.0),
        )
    if config.family == "knn":
        return knn_fit(train, k=params.pop("k"))
    if config.family == "tree":
        return tree_fit(
            train,
            criterion=params.pop("criterion", "gini"),
            splitter=params.pop("splitter", "best"),
            max_depth=params.pop("max_depth", None),
            seed=seed,
        )
    return forest_fit(
        train,
        criterion=params.pop("criterion", "gini"),
        n_estimators=params.pop("n_estimators", 100),
        max_depth=params.pop("max_depth", None),
        seed=seed,
        bootstrap=params.pop("bootstrap", True),
    )


def config_seed(master_seed: int, config: ModelConfig) -> int:
    """Seed for one grid point, shared by every config that samples identically.

    Depth caps and ensemble-size prefixes reuse the same random stream, which
    is what makes the structure sharing above exact rather than approximate.
    """
    if config.family == "tree":
        return derive_seed(
            master_seed, "tree", config.params["criterion"], config.params.get("splitter", "best")
        )
    if config.family == "forest":
        return derive_seed(
            master_seed,
            "forest",
            config.params["criterion"],
            "bootstrap" if config.params.get("bootstrap", True) else "plain",
        )
    return derive_seed(master_seed, config.family)


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

    def sorted_ranked(self) -> "ResultTable":
        sign = -1.0 if self.objective.higher_is_better else 1.0
        rows = sorted(
            self.rows,
            key=lambda r: (
                r.error is not None,
                sign * r.objective_value if r.objective_value is not None else 0.0,
                r.family,
                r.canonical(),
            ),
        )
        ranked = [replace(r, rank=i + 1) for i, r in enumerate(rows)]
        return ResultTable(self.objective, ranked)


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
# Grid search.

def _score_row(config: ModelConfig, preds: np.ndarray, truths: np.ndarray,
               objective: MetricSpec) -> ResultRow:
    cm = confusion(preds, truths)
    scores = class_scores(cm)
    return ResultRow(
        family=config.family,
        params=dict(config.params),
        objective_value=objective.evaluate(cm),
        high_f1=float(scores.f1[2]),
        weighted_f1=scores.weighted_f1,
        protection=police_protection(cm),
    )


def _error_row(config: ModelConfig, message: str) -> ResultRow:
    return ResultRow(config.family, dict(config.params), None, None, None, None, error=message)


def _eval_nc(configs, train, test, objective, master_seed):
    rows = []
    for config in configs:
        try:
            model = fit_model(config, train, config_seed(master_seed, config))
            rows.append(_score_row(config, model.predict(test.values), test.labels, objective))
        except ValueError as exc:
            rows.append(_error_row(config, str(exc)))
    return rows


def _eval_knn(configs, train, test, objective, master_seed):
    valid = [c for c in configs if c.params["k"] <= train.n_rows]
    rows = []
    if valid:
        k_max = max(c.params["k"] for c in valid)
        ranked = neighbor_labels(train.values, train.labels, test.values, k_max)
    for config in configs:
        k = config.params["k"]
        if k > train.n_rows:
            rows.append(_error_row(config, f"k={k} exceeds {train.n_rows} training rows"))
        else:
            rows.append(_score_row(config, vote(ranked, k), test.labels, objective))
    return rows


def _eval_tree_group(configs, train, test, objective, master_seed):
    """All depth caps of one (criterion, splitter) pair from a single fit."""
    first = configs[0]
    seed = config_seed(master_seed, first)
    full = tree_fit(
        train,
        criterion=first.params["criterion"],
        splitter=first.params.get("splitter", "best"),
        max_depth=None,
        seed=seed,
    )
    depths = [c.params.get("max_depth") for c in configs]
    preds = full.predict_at_depths(test.values, depths)
    return [
        _score_row(config, pred, test.labels, objective) for config, pred in zip(configs, preds)
    ]


def _eval_forest_group(configs, train, test, objective, master_seed):
    """One (criterion, bootstrap) group: every (n_estimators, max_depth) point
    is a vote prefix over shared full-depth member trees."""
    first = configs[0]
    criterion = first.params["criterion"]
    bootstrap = first.params.get("bootstrap", True)
    seed = config_seed(master_seed, first)
    depths = sorted({c.params.get("max_depth") for c in configs}, key=lambda d: (d is None, d))
    sizes = sorted({c.params["n_estimators"] for c in configs})
    votes = {d: np.zeros((test.n_rows, 3), dtype=np.int64) for d in depths}
    labels_at = {}
    for i in range(max(sizes)):
        tree = _forest_tree(train.values, train.labels, criterion, None, seed, i, bootstrap)
        per_depth = tree.predict_at_depths(test.values, depths)
        for d, pred in zip(depths, per_depth):
            votes[d][np.arange(test.n_rows), pred] += 1
        if i + 1 in sizes:
            for d in depths:
                labels_at[(i + 1, d)] = top_label(votes[d])
    return [
        _score_row(
            c, labels_at[(c.params["n_estimators"], c.params.get("max_depth"))], test.labels, objective
        )
        for c in configs
    ]


def _group_tasks(space: SearchSpace, train, test, objective, master_seed):
    nc_configs = [c for c in space.configs if c.family == "nc"]
    knn_configs = [c for c in space.configs if c.family == "knn"]
    tree_groups: dict[tuple, list] = {}
    forest_groups: dict[tuple, list] = {}
    for c in space.configs:
        if c.family == "tree":
            tree_groups.setdefault(
                (c.params["criterion"], c.params.get("splitter", "best")), []
            ).append(c)
        elif c.family == "forest":
            forest_groups.setdefault(
                (c.params["criterion"], c.params.get("bootstrap", True)), []
            ).append(c)
    tasks = []
    if nc_configs:
        tasks.append(lambda cs=nc_configs: _eval_nc(cs, train, test, objective, master_seed))
    if knn_configs:
        tasks.append(lambda cs=knn_configs: _eval_knn(cs, train, test, objective, master_seed))
    for key in sorted(tree_groups):
        tasks.append(
            lambda cs=tree_groups[key]: _eval_tree_group(cs, train, test, objective, master_seed)
        )
    for key in sorted(forest_groups, key=str):
        tasks.append(
            lambda cs=forest_groups[key]: _eval_forest_group(cs, train, test, objective, master_seed)
        )
    return tasks


def grid_search(
    space: SearchSpace,
    train: FeatureMatrix,
    test: FeatureMatrix,
    objective: str | MetricSpec = "high_f1",
    master_seed: int = 0,
    jobs: int = 1,
) -> ResultTable:
    """Train and score every grid point; failures become marked rows."""
    if train.width != test.width:
        raise ValueError("train and test encoded widths differ")
    if isinstance(objective, str):
        objective = MetricSpec(objective)
    tasks = _group_tasks(space, train, test, objective, master_seed)
    if jobs <= 1:
        chunks = [task() for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(lambda task: task(), tasks))
    rows = [row for chunk in chunks for row in chunk]
    return ResultTable(objective, rows).sorted_ranked()


def rescore_row(row: ResultRow, train: FeatureMatrix, test: FeatureMatrix,
                objective: MetricSpec, master_seed: int) -> ResultRow:
    """Fit one table row's config from scratch; must reproduce its scores."""
    config = row.config()
    model = fit_model(config, train, config_seed(master_seed, config))
    return _score_row(config, model.predict(test.values), test.labels, objective)


# ---------------------------------------------------------------------------
# Cross-validation.

@dataclass(frozen=True)
class CVResult:
    mean: float
    std: float
    fold_values: tuple[float, ...]


def cross_validate(
    config: ModelConfig,
    data: FeatureMatrix,
    k: int = 10,
    objective: str | MetricSpec = "police_protection",
    master_seed: int = 0,
) -> CVResult:
    if isinstance(objective, str):
        objective = MetricSpec(objective)
    folds = kfold(data, k, derive_seed(master_seed, "cv-folds"))
    values = []
    for fold_idx, (fit_part, val_part) in enumerate(folds):
        model = fit_model(config, fit_part, derive_seed(master_seed, "cv-fit", fold_idx))
        cm = confusion(model.predict(val_part.values), val_part.labels)
        values.append(objective.evaluate(cm))
    values = np.array(values)
    return CVResult(float(values.mean()), float(values.std(ddof=0)), tuple(values))


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
    """Tuning table: k-fold mean/std per config, ranked by mean."""
    if isinstance(objective, str):
        objective = MetricSpec(objective)

    def run(config):
        result = cross_validate(config, data, k, objective, master_seed)
        return CVRow(config.family, dict(config.params), result.mean, result.std)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run, space.configs))
    else:
        rows = [run(config) for config in space.configs]
    sign = -1.0 if objective.higher_is_better else 1.0
    rows.sort(key=lambda r: (sign * r.mean, r.family, r.canonical()))
    for i, row in enumerate(rows):
        row.rank = i + 1
    return CVTable(objective, k, rows)


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
        preds = rs.apply_many(test.viogen_scores)
        cm = confusion(preds, test.labels)
        scores = class_scores(cm)
        rows.append(
            ResultRow(
                family="rule",
                params={"rule_system": rs.name},
                objective_value=ml_table.objective.evaluate(cm),
                high_f1=float(scores.f1[2]),
                weighted_f1=scores.weighted_f1,
                protection=police_protection(cm),
            )
        )
    return ResultTable(ml_table.objective, rows).sorted_ranked()


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


def threshold_sensitivity(
    records: list[CaseRecord],
    schema: QuestionnaireSchema,
    thresholds,
    plan: EvalPlan,
) -> list[SensitivityRow]:
    """Relabel, retrain and rescore once per candidate High threshold."""
    thresholds = list(thresholds)
    if any(t < 2 for t in thresholds):
        raise ValueError("every threshold must be >= 2")
    rows = []
    for threshold in thresholds:
        matrix = encode_cases(records, schema, high_threshold=threshold)
        train, test = split(matrix, plan.split)
        model = fit_model(plan.model, train, derive_seed(plan.seed, "sensitivity", threshold))
        cm = confusion(model.predict(test.values), test.labels)
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
