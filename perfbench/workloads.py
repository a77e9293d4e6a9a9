"""The four workloads: inputs made from the seed, the timed CLI commands, the work
unit, and the output checks.

Every command goes through `recidrisk.cli.main`, exactly as the README's shell
lines would. The checks use oracles that do not share the code path under
test: a separate CSV reader, a recount of labels, a brute-force neighbour
search, the exact expectation of the hybrid from the (f0, f1, truth) count
tensor, and a brute scan of each resource curve.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SIZES = {
    # Sized so one iteration takes a few seconds on 2 cores; see README.md.
    "full": {
        "grid_select": {"n": 400},
        "cv_tune": {"n": 4000},
        "hybrid_decide": {"n": 3000, "n_runs": 40, "grid_size": 200},
        "ingest": {"n": 20000},
    },
    # For the self-test only: every layer still runs, in well under a second each.
    "tiny": {
        "grid_select": {"n": 150},
        "cv_tune": {"n": 300},
        "hybrid_decide": {"n": 300, "n_runs": 4, "grid_size": 21},
        "ingest": {"n": 400},
    },
}

TAUS = (0.1, 0.5, 1.0, 5.0)
PROFILE_RUNS = 50  # the sweep's default resource_profile run count
NC_PRESET = '{"metric": "euclidean", "shrink_threshold": 5}'
SWEEP_ML = {"metric": "euclidean", "shrink_threshold": 0.1}  # the sweep's default ML source
GRID_SEED = 7
SE_LIMIT = 6.0  # hybrid means must lie within this many exact standard errors


@dataclass
class Context:
    """Where a workload run keeps its files, and what it was asked to run."""

    dir: Path
    seed: int
    size: dict

    @property
    def data(self) -> Path:
        return self.dir / "data"

    def out(self, name: str) -> Path:
        return self.dir / "out" / name

    def data_args(self, data: Path | None = None) -> list[str]:
        data = self.data if data is None else data
        return ["--data", str(data / "cases.csv"), "--schema", str(data / "schema.json")]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    setup: Callable | None  # (ctx, run) -> None; makes the input files
    iteration: Callable  # (ctx, run) -> None; the timed commands
    work: Callable  # ctx -> work units per iteration
    checks: Callable  # ctx -> iterable of (check name, ok, detail)
    predicted: tuple[str, ...]  # layers expected to have the largest self time


def generate_corpus(ctx: Context, run) -> None:
    run("generate", "--n", str(ctx.size["n"]), "--seed", str(ctx.seed), "--out-dir", str(ctx.data))


# ---------------------------------------------------------------------------
# Shared oracle helpers.

def read_table(path: Path) -> list[dict]:
    """Delimited output read with the csv module alone: skips `#` lines."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def load_split(data: Path):
    from recidrisk.dataset import SplitSpec, encode_cases, read_cases, read_schema, split

    matrix = encode_cases(read_cases(data / "cases.csv"), read_schema(data / "schema.json"))
    return split(matrix, SplitSpec(0.67, 0))


def confusion_oracle(preds, truths):
    from recidrisk.metrics import ConfusionMatrix

    cells = np.asarray(preds, dtype=np.int64) * 3 + np.asarray(truths, dtype=np.int64)
    return ConfusionMatrix(np.bincount(cells, minlength=9).reshape(3, 3))


def _rng(ctx: Context, tag: int) -> np.random.Generator:
    return np.random.default_rng([ctx.seed, tag])


# ---------------------------------------------------------------------------
# grid_select: exhaustive default-space grid search; trees dominate.

def grid_iteration(ctx: Context, run) -> None:
    run("gridsearch", *ctx.data_args(), "--objective", "high_f1", "--seed", str(GRID_SEED),
        "--jobs", "1", "--out-dir", str(ctx.out("grid")))


def grid_work(ctx: Context) -> int:
    from recidrisk.baseline import NAMED_RULE_SYSTEMS
    from recidrisk.experiments import default_search_space

    return len(default_search_space()) + len(NAMED_RULE_SYSTEMS)


def grid_checks(ctx: Context):
    from recidrisk.baseline import NAMED_RULE_SYSTEMS
    from recidrisk.experiments import ResultRow, default_search_space, rescore_row
    from recidrisk.metrics import MetricSpec

    rows = read_table(ctx.out("grid") / "results.csv")
    configs = {(c.family, c.canonical()): c for c in default_search_space().configs}
    expected = set(configs) | {("rule", f"rule_system={name}") for name in NAMED_RULE_SYSTEMS}
    got = [(r["family"], r["params"]) for r in rows]
    yield "grid.row_count", len(rows) == len(expected), f"{len(rows)} rows, want {len(expected)}"
    yield "grid.each_config_once", len(set(got)) == len(got) and set(got) == expected, ""

    train, test = load_split(ctx.data)
    want_errors = {key for key, c in configs.items() if c.family == "knn" and c.params["k"] > train.n_rows}
    errors = [key for key, r in zip(got, rows) if r["error"]]
    scored = [float(r["objective"]) for r in rows if not r["error"]]
    ranked = (
        [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))
        and all(a >= b for a, b in zip(scored, scored[1:]))
        and all(not r["error"] for r in rows[: len(scored)])
        and set(errors) == want_errors
    )
    yield "grid.ranked_by_objective", ranked, f"{len(errors)} error rows"

    objective = MetricSpec("high_f1")
    fields = (("objective", "objective_value"), ("high_f1", "high_f1"),
              ("weighted_f1", "weighted_f1"), ("police_protection", "protection"))
    if rows[0]["family"] == "rule":
        rule = NAMED_RULE_SYSTEMS[rows[0]["params"].split("=", 1)[1]]
        cm = confusion_oracle(rule.apply_many(test.viogen_scores), test.labels)
        yield "grid.top_rule_row_reproduces", objective.evaluate(cm) == float(rows[0]["objective"]), ""
    top_ml = next(r for r in rows if r["family"] != "rule" and not r["error"])
    forests = [r for r in rows if r["family"] == "forest" and r["params"].endswith("n_estimators=10")]
    forest = forests[int(_rng(ctx, 1).integers(len(forests)))]
    for label, row in (("top", top_ml), ("forest", forest)):
        config = configs[(row["family"], row["params"])]
        fresh = rescore_row(ResultRow(config.family, dict(config.params), None, None, None, None),
                            train, test, objective, GRID_SEED)
        same = all(float(row[col]) == getattr(fresh, attr) for col, attr in fields)
        yield f"grid.{label}_row_reproduces", same, f"{row['family']} [{row['params']}]"


# ---------------------------------------------------------------------------
# cv_tune: 10-fold tuning of the fine NC grid plus one kNN config.

KNN_K = 20
CV_K = 10


def cv_iteration(ctx: Context, run) -> None:
    run("crossval", *ctx.data_args(), "--space", "nc-fine", "--k", str(CV_K),
        "--out-dir", str(ctx.out("cv_nc")))
    run("crossval", *ctx.data_args(), "--family", "knn", "--params", json.dumps({"k": KNN_K}),
        "--k", str(CV_K), "--out-dir", str(ctx.out("cv_knn")))


def cv_work(ctx: Context) -> int:
    from recidrisk.experiments import nc_fine_space

    return (len(nc_fine_space()) + 1) * CV_K


def brute_knn_label(train_bits: np.ndarray, labels: np.ndarray, query_bits: np.ndarray, k: int) -> int:
    """Majority of the k rows nearest by (distance, row index); ties go to the higher label."""
    dist = (train_bits != query_bits).sum(axis=1)  # squared Euclidean distance of 0/1 rows
    nearest = np.lexsort((np.arange(dist.size), dist))[:k]
    votes = np.bincount(labels[nearest], minlength=3)
    return max(range(3), key=lambda c: (votes[c], c))


def cv_checks(ctx: Context):
    from recidrisk.dataset import kfold
    from recidrisk.experiments import nc_fine_space
    from recidrisk.knn import knn_fit
    from recidrisk.seeding import derive_seed

    rows = read_table(ctx.out("cv_nc") / "cv_table.csv")
    means = [float(r["mean"]) for r in rows]
    want = sorted(c.canonical() for c in nc_fine_space().configs)
    yield "cv.row_count", len(rows) == len(want), f"{len(rows)} rows"
    yield "cv.each_config_once", sorted(r["params"] for r in rows) == want, ""
    yield "cv.sorted", (
        [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))
        and all(a >= b for a, b in zip(means, means[1:]))
    ), ""
    knn_rows = read_table(ctx.out("cv_knn") / "cv_table.csv")
    all_means = means + [float(r["mean"]) for r in knn_rows]
    yield "cv.means_in_range", (
        all(0.0 <= m <= 3.0 for m in all_means)
        and all(float(r["std"]) >= 0 and int(r["k"]) == CV_K for r in rows + knn_rows)
        and [(r["family"], r["params"]) for r in knn_rows] == [("knn", f"k={KNN_K}")]
    ), ""

    train, _ = load_split(ctx.data)
    fit_part, val_part = kfold(train, CV_K, derive_seed(0, "cv-folds"))[0]
    sample = _rng(ctx, 2).choice(val_part.n_rows, size=min(100, val_part.n_rows), replace=False)
    queries = val_part.values[sample]
    got = knn_fit(fit_part, KNN_K).predict(queries)
    bits = fit_part.values != 0
    want_labels = [brute_knn_label(bits, fit_part.labels, q != 0, KNN_K) for q in queries]
    yield "cv.knn_matches_brute_force", list(got) == want_labels, f"{len(sample)} queries"


# ---------------------------------------------------------------------------
# hybrid_decide: Monte Carlo hybrid sweeps, then decide_mu per curve.

def _curve_path(ctx: Context, tau: float) -> Path:
    return ctx.out("sweep") / f"resource_sweep_tau{tau:g}.csv"


def read_curve(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = read_table(path)
    return np.array([float(r["mu"]) for r in rows]), np.array([float(r["mean"]) for r in rows])


def isotonic_brute(values: np.ndarray) -> np.ndarray:
    """Non-decreasing least-squares fit by the max-min formula over block averages."""
    n = values.size
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    j, k = np.arange(n)[:, None], np.arange(n)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        avg = (prefix[k + 1] - prefix[j]) / (k - j + 1)
    return np.array([avg[: i + 1, i:].min(axis=1).max() for i in range(n)])


def pick_r0(values: np.ndarray, fraction: float) -> float:
    """Midpoint between two adjacent distinct curve levels, so no level sits near r0."""
    levels = np.unique(values)
    if levels.size > 1:
        levels = levels[np.concatenate([[True], np.diff(levels) > 1e-9 * np.abs(levels).max()])]
    if levels.size < 2:  # a flat curve: just above its one level
        return float(levels[0] + 1e-6 * abs(levels[0]) + 1e-12)
    i = min(int(fraction * (levels.size - 1)), levels.size - 2)
    return float((levels[i] + levels[i + 1]) / 2)


def _decisions(ctx: Context) -> list[tuple[str, float, float, bool]]:
    """(out dir name, tau, r0, monotone) per decide call, from the curves just written."""
    fractions = _rng(ctx, 3).uniform(0.25, 0.75, size=len(TAUS) + 1)
    out = []
    for tau, fraction in zip(TAUS, fractions):
        out.append((f"decide_tau{tau:g}", tau, pick_r0(read_curve(_curve_path(ctx, tau))[1], fraction), False))
    means = read_curve(_curve_path(ctx, 0.5))[1]
    out.append(("decide_monotone", 0.5, pick_r0(isotonic_brute(means), fractions[-1]), True))
    return out


def hybrid_iteration(ctx: Context, run) -> None:
    sweep = ctx.out("sweep")
    taus = [arg for tau in TAUS for arg in ("--tau", f"{tau:g}")]
    run("sweep", *ctx.data_args(), "--n-runs", str(ctx.size["n_runs"]),
        "--grid-size", str(ctx.size["grid_size"]), *taus, "--out-dir", str(sweep))
    for name, tau, r0, monotone in _decisions(ctx):
        run("decide", "--curve", str(_curve_path(ctx, tau)), "--r0", repr(r0),
            *(["--monotone"] if monotone else []),
            "--protection-curve", str(sweep / "protection_sweep.csv"), "--out-dir", str(ctx.out(name)))


def hybrid_work(ctx: Context) -> int:
    return ctx.size["n_runs"] * ctx.size["grid_size"] * (1 + len(TAUS)) + PROFILE_RUNS


def _step_probs(gap: int, mu: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(label offset, probability over mu) of the hybrid's Binomial(|gap|, mu) walk."""
    sign, n = int(np.sign(gap)), abs(gap)
    pmf = {0: [np.ones_like(mu)],
           1: [1 - mu, mu],
           2: [(1 - mu) ** 2, 2 * mu * (1 - mu), mu ** 2]}[n]
    return [(sign * steps, p) for steps, p in enumerate(pmf)]


def exact_resource(tensor: np.ndarray, mu: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and per-execution variance of police_resource(tau) along mu."""
    weight = np.zeros((3, 3))  # [pred, truth] overload weights
    weight[1, 0], weight[2, 1], weight[2, 0] = 1.0, tau, 1.0 + tau
    mean, var = np.zeros_like(mu), np.zeros_like(mu)
    for a in range(3):
        for b in range(3):
            steps = _step_probs(b - a, mu)
            for t in range(3):
                count = tensor[a, b, t]
                if count:
                    m1 = sum(p * weight[a + off, t] for off, p in steps)
                    m2 = sum(p * weight[a + off, t] ** 2 for off, p in steps)
                    mean += count * m1
                    var += count * (m2 - m1 * m1)
    norm = 2.0 * tensor.sum() * (1.0 + tau)
    return mean / norm, np.maximum(var, 0.0) / norm ** 2


def hybrid_checks(ctx: Context):
    from recidrisk.baseline import CAUTIOUS
    from recidrisk.experiments import ModelConfig, fit_model
    from recidrisk.metrics import police_protection, police_resource
    from recidrisk.seeding import derive_seed

    train, test = load_split(ctx.data)
    f0 = CAUTIOUS.apply_many(test.viogen_scores)
    f1 = fit_model(ModelConfig("nc", SWEEP_ML), train, derive_seed(0, "sweep-ml")).predict(test.values)
    truths = test.labels
    cm0, cm1 = confusion_oracle(f0, truths), confusion_oracle(f1, truths)
    tensor = np.bincount(f0 * 9 + f1 * 3 + truths, minlength=27).reshape(3, 3, 3)

    _, prot = read_curve(ctx.out("sweep") / "protection_sweep.csv")
    yield "hybrid.protection_endpoints_exact", (
        prot[0] == police_protection(cm0) and prot[-1] == police_protection(cm1)), ""
    n_runs = ctx.size["n_runs"]
    for tau in TAUS:
        mu, means = read_curve(_curve_path(ctx, tau))
        yield f"hybrid.resource_endpoints_exact.tau{tau:g}", (
            means[0] == police_resource(cm0, tau) and means[-1] == police_resource(cm1, tau)), ""
        expect, var = exact_resource(tensor, mu, tau)
        z = np.abs(means - expect) / np.maximum(np.sqrt(var / n_runs), 1e-300)
        close = np.abs(means - expect) <= SE_LIMIT * np.sqrt(var / n_runs) + 1e-12
        yield (f"hybrid.resource_within_{SE_LIMIT:g}_se.tau{tau:g}", bool(close.all()),
               f"max |z| {float(z[var > 0].max(initial=0.0)):.2f} over {mu.size} points")

    for name, tau, r0, monotone in _decisions(ctx):
        decision = json.loads((ctx.out(name) / "decision.json").read_text())
        mu, means = read_curve(_curve_path(ctx, tau))
        target = isotonic_brute(means) if monotone else means
        fits = np.nonzero(target <= r0)[0]
        mu0 = float(mu[fits.max()]) if fits.size else 0.0
        idx = int(np.argmin(np.abs(mu - mu0)))
        yield f"hybrid.{name}_matches_brute_scan", (
            decision["mu0"] == mu0 and decision["r0"] == r0
            and decision["resource_at_mu0"] == means[idx]
            and decision["protection_at_mu0"] == prot[idx]
        ), f"mu0 {decision['mu0']} want {mu0} at r0 {r0!r}"


# ---------------------------------------------------------------------------
# ingest: write a large case file, then read and encode it twice.

def ingest_iteration(ctx: Context, run) -> None:
    gen, model = ctx.out("gen"), ctx.out("model")
    run("generate", "--n", str(ctx.size["n"]), "--seed", str(ctx.seed), "--out-dir", str(gen))
    run("train", *ctx.data_args(gen), "--family", "nc", "--params", NC_PRESET, "--out-dir", str(model))
    run("evaluate", "--model", str(model / "model.json"), *ctx.data_args(gen),
        "--out-dir", str(ctx.out("eval")))


def ingest_checks(ctx: Context):
    from recidrisk.dataset import decode_row, encode_cases, read_cases, read_schema
    from recidrisk.model_io import load_model
    from recidrisk.synthgen import demo_config, generate

    gen = ctx.out("gen")
    schema = read_schema(gen / "schema.json")
    records = read_cases(gen / "cases.csv")

    # regenerate, and score the baseline by hand: option position over (options - 1)
    thresholds = json.loads((gen / "viogen.json").read_text())["thresholds"]
    width = {q.question_id: len(q.options) - 1 for q in schema.questions}
    position = {q.question_id: {o: j for j, o in enumerate(q.options)} for q in schema.questions}
    expected = []
    for rec in generate(demo_config(n_cases=ctx.size["n"], seed=ctx.seed)):
        score = sum(position[q][r] / width[q] for q, r in rec.responses.items() if r is not None)
        expected.append((rec.case_id, rec.responses, rec.recidivism_count,
                         sum(1 for t in thresholds if t < score)))
    got = [(r.case_id, r.responses, r.recidivism_count, r.viogen_score) for r in records]
    yield "ingest.read_back_equals_generated", got == expected, f"{len(got)} records"

    matrix = encode_cases(records, schema)
    blocks = np.add.reduceat(matrix.values, [schema.offsets[q.question_id] for q in schema.questions],
                             axis=1)
    yield "ingest.one_column_per_question", (
        bool(np.isin(matrix.values, (0.0, 1.0)).all()) and bool((blocks == 1.0).all())), ""
    sample = _rng(ctx, 4).choice(len(records), size=min(50, len(records)), replace=False)
    yield "ingest.decode_round_trip", all(
        decode_row(matrix.values[i], schema) == records[i].responses for i in sample), ""
    recount = [0, 0, 0]
    for rec in records:
        recount[0 if rec.recidivism_count == 0 else 1 if rec.recidivism_count < 3 else 2] += 1
    yield "ingest.label_counts", np.bincount(matrix.labels, minlength=3).tolist() == recount, str(recount)

    # evaluate's reported protection against precision_No + f1_Low + recall_High by hand
    counts = confusion_oracle(load_model(ctx.out("model") / "model.json").predict(matrix.values),
                              matrix.labels).counts
    def ratio(num, den):  # 0/0 counts as 0, as in the metric definitions
        return num / den if den else 0.0

    p_low, r_low = ratio(counts[1, 1], counts[1].sum()), ratio(counts[1, 1], counts[:, 1].sum())
    protection = (ratio(counts[0, 0], counts[0].sum()) + ratio(2 * p_low * r_low, p_low + r_low)
                  + ratio(counts[2, 2], counts[:, 2].sum()))
    reported = {r["metric"]: float(r["value"]) for r in read_table(ctx.out("eval") / "metrics.csv")}
    yield "ingest.evaluate_protection", (
        abs(reported["police_protection"] - protection) <= 1e-12), f"{reported['police_protection']}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid_select", "configs", generate_corpus, grid_iteration, grid_work, grid_checks,
                 ("trees",)),
        Workload("cv_tune", "fold_fits", generate_corpus, cv_iteration, cv_work, cv_checks,
                 ("nearest_centroid", "knn", "dataset")),
        Workload("hybrid_decide", "mc_runs", generate_corpus, hybrid_iteration, hybrid_work,
                 hybrid_checks, ("hybrid", "metrics")),
        Workload("ingest", "cases", None, ingest_iteration, lambda ctx: ctx.size["n"], ingest_checks,
                 ("synthgen", "dataset")),
    )
}
