"""Command-line pipeline: generate, train, evaluate, gridsearch, crossval,
sweep, decide, sensitivity.

Every run writes its outputs plus a manifest echoing the fully resolved
configuration, the seeds, and fingerprints of the input files; two runs with
identical manifests produce byte-identical outputs. Delimited outputs open
with a comment line naming the manifest that produced them, JSON outputs
carry a `manifest` key.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import NAMED_RULE_SYSTEMS, RuleSystem, get_rule_system
from .dataset import (
    FeatureMatrix,
    SplitSpec,
    comment_lines,
    encode_cases,
    fmt_float,
    read_cases,
    read_json,
    read_schema,
    split,
    write_cases,
    write_table,
)
from .experiments import (
    EvalPlan,
    ModelConfig,
    SearchSpace,
    compare_with_baseline,
    cv_table,
    default_search_space,
    fit_model,
    format_result_table,
    grid_search,
    nc_fine_space,
    parallel_map,
    threshold_sensitivity,
    write_cv_table,
    write_result_table,
    write_sensitivity,
)
from .hybrid import MetricSpec, decide_mu, mu_sweep, read_sweep, resource_profile, write_sweep
from .metrics import class_scores, confusion, police_protection, police_resource
from .model_io import load_model, model_family, save_model
from .seeding import derive_seed
from .synthgen import (
    attach_viogen_scores,
    config_to_json,
    demo_config,
    generate,
    read_config,
    score_thresholds,
    severity_weights,
)

MANIFEST_NAME = "manifest.json"

_DEFAULT_TAUS = (0.1, 0.5, 1.0, 5.0)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict, outputs: list) -> None:
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": config,
        "inputs": {name: {"path": str(p), "sha256": _sha256(Path(p))} for name, p in inputs.items()},
        "outputs": sorted(outputs),
    }
    with open(out_dir / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["manifest"] = MANIFEST_NAME
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _out_dir(args, command: str) -> Path:
    out = Path(args.out_dir if args.out_dir else f"runs/{command}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve(args, defaults: dict) -> dict:
    """Layer resolution: defaults, then config file, then explicit flags."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        file_values = read_json(args.config, dict)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise SystemExit(f"config error: unknown keys {sorted(unknown)} in {args.config}")
        resolved.update(file_values)
    for key in defaults:
        value = getattr(args, key, None)
        # None means "flag not given"; False likewise for store_true flags,
        # which argparse cannot set explicitly, so a file-set True survives
        if value is not None and value is not False:
            resolved[key] = value
    return resolved


def _parse_params(text) -> dict:
    if text is None:
        return {}
    if isinstance(text, dict):
        return text
    params = json.loads(text)
    if not isinstance(params, dict):
        raise SystemExit("params error: expected a JSON object")
    return params


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args) -> int:
    out = _out_dir(args, "generate")
    if args.config:
        config = read_config(args.config)
        if args.n is not None or args.seed is not None or args.separation is not None:
            raise SystemExit("config error: --n/--seed/--separation overrides apply to --demo only")
    else:
        config = demo_config(
            n_cases=args.n if args.n is not None else 20000,
            seed=args.seed if args.seed is not None else demo_config().seed,
            separation=args.separation if args.separation is not None else 0.35,
        )
    records = generate(config)
    viogen_payload = None
    if not args.no_viogen:
        weights = severity_weights(config.schema)
        thresholds = score_thresholds(records, weights)
        records = attach_viogen_scores(records, weights, thresholds)
        viogen_payload = {
            "weights": {f"{qid}|{opt}": w for (qid, opt), w in sorted(weights.items())},
            "thresholds": list(thresholds),
        }

    cases_path = out / "cases.csv"
    write_cases(cases_path, records, config.schema, manifest=MANIFEST_NAME)
    _write_json(out / "schema.json", config.schema.to_json())
    _write_json(out / "generator_config.json", config_to_json(config))
    outputs = ["cases.csv", "schema.json", "generator_config.json"]
    if viogen_payload is not None:
        _write_json(out / "viogen.json", viogen_payload)
        outputs.append("viogen.json")
    resolved = {
        "n_cases": config.n_cases,
        "seed": config.seed,
        "missing_rate": config.missing_rate,
        "profiles": [p.name for p in config.profiles],
        "with_viogen": not args.no_viogen,
    }
    inputs = {"generator_config": args.config} if args.config else {}
    _write_manifest(out, "generate", resolved, inputs, outputs)
    print(f"generated {len(records)} cases into {cases_path}")
    return 0


# ---------------------------------------------------------------------------
# train / evaluate

_TRAIN_DEFAULTS = {
    "family": "nc",
    "params": {"metric": "euclidean", "shrink_threshold": 0.1},
    "train_fraction": 0.67,
    "split_seed": 0,
    "seed": 0,
    "high_threshold": 3,
}


def cmd_train(args) -> int:
    out = _out_dir(args, "train")
    cfg = _resolve(args, _TRAIN_DEFAULTS)
    cfg["params"] = _parse_params(cfg["params"])
    matrix = _load_matrix_cfg(args, cfg)
    train_part, test_part = split(matrix, SplitSpec(cfg["train_fraction"], cfg["split_seed"]))
    config = ModelConfig(cfg["family"], cfg["params"])
    model = fit_model(config, train_part, derive_seed(cfg["seed"], "train"))
    save_model(out / "model.json", model, extra={"config": _jsonable(cfg), "manifest": MANIFEST_NAME})
    cm = confusion(model_predictions(model, test_part), test_part.labels)
    _write_metric_report(out / "holdout_metrics.csv", "model", cm, _DEFAULT_TAUS)
    _write_manifest(out, "train", _jsonable(cfg),
                    {"data": args.data, "schema": args.schema},
                    ["model.json", "holdout_metrics.csv"])
    print(f"trained {config.family} [{config.canonical()}]; "
          f"holdout police protection {police_protection(cm):.4f}")
    return 0


def _load_matrix_cfg(args, cfg) -> FeatureMatrix:
    schema = read_schema(args.schema)
    records = read_cases(args.data)
    return encode_cases(records, schema, high_threshold=cfg.get("high_threshold", 3))


def model_predictions(model, part: FeatureMatrix) -> np.ndarray:
    if isinstance(model, RuleSystem):
        if part.viogen_scores is None:
            raise SystemExit("data error: rule-system models need a viogen_score column")
        return model.apply_many(part.viogen_scores)
    return model.predict(part.values)


def _write_metric_report(path: Path, model_id: str, cm, taus) -> None:
    scores = class_scores(cm)
    rows = []
    for idx, name in enumerate(("no", "low", "high")):
        rows.append((f"precision_{name}", scores.precision[idx]))
        rows.append((f"recall_{name}", scores.recall[idx]))
        rows.append((f"f1_{name}", scores.f1[idx]))
    rows.append(("weighted_f1", scores.weighted_f1))
    rows.append(("macro_f1", scores.macro_f1))
    rows.append(("police_protection", police_protection(cm)))
    for tau in taus:
        rows.append((f"police_resource_tau={tau:g}", police_resource(cm, tau)))
    write_table(path, ("model", "metric", "value"),
                ((model_id, name, fmt_float(value)) for name, value in rows), MANIFEST_NAME)


_EVALUATE_DEFAULTS = {"high_threshold": 3, "taus": list(_DEFAULT_TAUS)}


def cmd_evaluate(args) -> int:
    out = _out_dir(args, "evaluate")
    cfg = _resolve(args, _EVALUATE_DEFAULTS)
    model = load_model(args.model)
    matrix = _load_matrix_cfg(args, cfg)
    cm = confusion(model_predictions(model, matrix), matrix.labels)
    _write_metric_report(out / "metrics.csv", Path(args.model).stem, cm, cfg["taus"])
    _write_manifest(out, "evaluate", _jsonable(cfg),
                    {"model": args.model, "data": args.data, "schema": args.schema},
                    ["metrics.csv"])
    print(f"evaluated {model_family(model)}: police protection {police_protection(cm):.4f}")
    return 0


# ---------------------------------------------------------------------------
# gridsearch / crossval

_GRID_DEFAULTS = {
    "objective": "high_f1",
    "space": "default",
    "train_fraction": 0.67,
    "split_seed": 0,
    "seed": 0,
    "jobs": 1,
    "high_threshold": 3,
    "with_baseline": True,
}


def _space_by_name(name: str) -> SearchSpace:
    if name == "default":
        return default_search_space()
    if name == "nc-fine":
        return nc_fine_space()
    raise SystemExit(f"config error: unknown search space {name!r}")


def cmd_gridsearch(args) -> int:
    out = _out_dir(args, "gridsearch")
    cfg = _resolve(args, _GRID_DEFAULTS)
    if args.no_baseline:
        cfg["with_baseline"] = False
    matrix = _load_matrix_cfg(args, cfg)
    train_part, test_part = split(matrix, SplitSpec(cfg["train_fraction"], cfg["split_seed"]))
    table = grid_search(
        _space_by_name(cfg["space"]),
        train_part,
        test_part,
        objective=cfg["objective"],
        master_seed=cfg["seed"],
        jobs=cfg["jobs"],
    )
    if cfg["with_baseline"] and test_part.viogen_scores is not None:
        table = compare_with_baseline(list(NAMED_RULE_SYSTEMS.values()), table, test_part)
    write_result_table(out / "results.csv", table, manifest=MANIFEST_NAME)
    (out / "results.txt").write_text(comment_lines(MANIFEST_NAME) + format_result_table(table) + "\n")
    _write_manifest(out, "gridsearch", _jsonable(cfg),
                    {"data": args.data, "schema": args.schema}, ["results.csv", "results.txt"])
    top = table.rows[0]
    print(f"gridsearch: {len(table.rows)} rows; best {top.family} [{top.canonical()}] "
          f"{table.objective.label()}={top.objective_value:.4f}")
    return 0


_CROSSVAL_DEFAULTS = {
    "space": "nc-fine",
    "family": None,
    "params": None,
    "k": 10,
    "objective": "police_protection",
    "train_fraction": 0.67,
    "split_seed": 0,
    "seed": 0,
    "jobs": 1,
    "high_threshold": 3,
}


def cmd_crossval(args) -> int:
    out = _out_dir(args, "crossval")
    cfg = _resolve(args, _CROSSVAL_DEFAULTS)
    matrix = _load_matrix_cfg(args, cfg)
    train_part, _ = split(matrix, SplitSpec(cfg["train_fraction"], cfg["split_seed"]))
    if cfg["family"]:
        space = SearchSpace((ModelConfig(cfg["family"], _parse_params(cfg["params"])),))
    else:
        space = _space_by_name(cfg["space"])
    table = cv_table(space, train_part, k=cfg["k"], objective=cfg["objective"],
                     master_seed=cfg["seed"], jobs=cfg["jobs"])
    write_cv_table(out / "cv_table.csv", table, manifest=MANIFEST_NAME)
    _write_manifest(out, "crossval", _jsonable(cfg),
                    {"data": args.data, "schema": args.schema}, ["cv_table.csv"])
    top = table.rows[0]
    print(f"crossval: best {top.family} [{top.canonical()}] mean={top.mean:.4f} std={top.std:.4f}")
    return 0


# ---------------------------------------------------------------------------
# sweep / decide / sensitivity

_SWEEP_DEFAULTS = {
    "rule_system": "cautious",
    "ml_family": "nc",
    "ml_params": {"metric": "euclidean", "shrink_threshold": 0.1},
    "auto_ml": False,
    "k": 10,
    "grid_size": 200,
    "n_runs": 10,
    "taus": list(_DEFAULT_TAUS),
    "profile_mu": 0.9,
    "profile_runs": 50,
    "train_fraction": 0.67,
    "split_seed": 0,
    "seed": 0,
    "jobs": 1,
    "high_threshold": 3,
}


def cmd_sweep(args) -> int:
    out = _out_dir(args, "sweep")
    cfg = _resolve(args, _SWEEP_DEFAULTS)
    matrix = _load_matrix_cfg(args, cfg)
    if matrix.viogen_scores is None:
        raise SystemExit("data error: sweep needs a viogen_score column for the baseline source")
    train_part, test_part = split(matrix, SplitSpec(cfg["train_fraction"], cfg["split_seed"]))

    if cfg["auto_ml"]:
        tuning = cv_table(nc_fine_space(), train_part, k=cfg["k"],
                          objective="police_protection", master_seed=cfg["seed"])
        ml_config = tuning.best_config()
        cfg["ml_family"], cfg["ml_params"] = ml_config.family, dict(ml_config.params)
    else:
        ml_config = ModelConfig(cfg["ml_family"], _parse_params(cfg["ml_params"]))
    model = fit_model(ml_config, train_part, derive_seed(cfg["seed"], "sweep-ml"))

    rule = get_rule_system(cfg["rule_system"])
    f0 = rule.apply_many(test_part.viogen_scores)
    f1 = model.predict(test_part.values)
    truths = test_part.labels

    # protection curve plus one resource curve per tau; independent tasks with
    # their own derived seeds, so the worker count cannot change the output
    tasks = [
        (
            "protection_sweep.csv",
            MetricSpec("police_protection"),
            derive_seed(cfg["seed"], "sweep-protection"),
        )
    ]
    for tau_idx, tau in enumerate(cfg["taus"]):
        tasks.append(
            (
                f"resource_sweep_tau{tau:g}.csv",
                MetricSpec("police_resource", float(tau)),
                derive_seed(cfg["seed"], "sweep-resource", tau_idx),
            )
        )

    def run_curve(task):
        _, metric, seed = task
        return mu_sweep(f0, f1, truths, metric, grid_size=cfg["grid_size"],
                        n_runs=cfg["n_runs"], master_seed=seed)

    curves = parallel_map(run_curve, tasks, cfg["jobs"])
    outputs = []
    for (name, _, _), curve in zip(tasks, curves):
        write_sweep(out / name, curve, manifest=MANIFEST_NAME)
        outputs.append(name)
    protection = curves[0]

    profile = resource_profile(
        f0, f1, truths, cfg["profile_mu"], cfg["taus"],
        n_runs=cfg["profile_runs"], master_seed=derive_seed(cfg["seed"], "profile"),
    )
    write_table(
        out / "resource_profile.csv",
        ("tau", "mu", "mean", "std", "ci_half_width", "min", "q1", "median", "q3", "max", "n_runs"),
        (
            [fmt_float(x) for x in (summary.tau, cfg["profile_mu"], summary.mean, summary.std,
                                     summary.ci_half_width, *summary.quantiles)]
            + [cfg["profile_runs"]]
            for summary in profile
        ),
        MANIFEST_NAME,
    )
    outputs.append("resource_profile.csv")

    _write_manifest(out, "sweep", _jsonable(cfg),
                    {"data": args.data, "schema": args.schema}, outputs)
    print(f"sweep: protection mu=0 {protection.means[0]:.4f} -> mu=1 {protection.means[-1]:.4f} "
          f"({len(cfg['taus'])} resource curves)")
    return 0


_DECIDE_DEFAULTS = {"r0": None, "monotone": False}


def cmd_decide(args) -> int:
    out = _out_dir(args, "decide")
    cfg = _resolve(args, _DECIDE_DEFAULTS)
    if cfg["r0"] is None:
        raise SystemExit("config error: decide needs --r0")
    curve = read_sweep(args.curve)
    if curve.metric.name != "police_resource":
        raise SystemExit(f"data error: {args.curve} is a {curve.metric.name} curve, "
                         "decide needs a police_resource curve")
    mu0 = decide_mu(curve, cfg["r0"], monotone=cfg["monotone"])
    report = {
        "mu0": mu0,
        "r0": cfg["r0"],
        "tau": curve.metric.tau,
        "monotone": cfg["monotone"],
        "resource_at_mu0": float(curve.means[np.argmin(np.abs(curve.grid - mu0))]),
    }
    inputs = {"curve": args.curve}
    if args.protection_curve:
        protection = read_sweep(args.protection_curve)
        idx0 = int(np.argmin(np.abs(protection.grid - mu0)))
        report["protection_at_mu0"] = float(protection.means[idx0])
        report["protection_at_zero"] = float(protection.means[0])
        inputs["protection_curve"] = args.protection_curve
    _write_json(out / "decision.json", report)
    _write_manifest(out, "decide", _jsonable(cfg), inputs, ["decision.json"])
    print(f"decide: mu0 = {mu0:.6g} (tau={curve.metric.tau:g}, r0={cfg['r0']:g})")
    return 0


_SENSITIVITY_DEFAULTS = {
    "thresholds": [3, 4, 5],
    "family": "nc",
    "params": {"metric": "euclidean", "shrink_threshold": 0.1},
    "train_fraction": 0.67,
    "split_seed": 0,
    "seed": 0,
}


def cmd_sensitivity(args) -> int:
    out = _out_dir(args, "sensitivity")
    cfg = _resolve(args, _SENSITIVITY_DEFAULTS)
    if isinstance(cfg["thresholds"], str):
        cfg["thresholds"] = [int(t) for t in cfg["thresholds"].split(",")]
    schema = read_schema(args.schema)
    records = read_cases(args.data)
    plan = EvalPlan(
        ModelConfig(cfg["family"], _parse_params(cfg["params"])),
        SplitSpec(cfg["train_fraction"], cfg["split_seed"]),
        seed=cfg["seed"],
    )
    rows = threshold_sensitivity(records, schema, cfg["thresholds"], plan)
    write_sensitivity(out / "sensitivity.csv", rows, manifest=MANIFEST_NAME)
    _write_manifest(out, "sensitivity", _jsonable(cfg),
                    {"data": args.data, "schema": args.schema}, ["sensitivity.csv"])
    for row in rows:
        print(f"threshold {row.high_threshold}: protection {row.protection:.4f}")
    return 0


# ---------------------------------------------------------------------------
# wiring

def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _add_common(parser, with_jobs=False):
    parser.add_argument("--config", help="JSON file with command defaults")
    parser.add_argument("--seed", type=int, default=None)
    if with_jobs:
        parser.add_argument("--jobs", type=int, default=None,
                            help="parallel worker bound (results are jobs-invariant)")
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--train-fraction", type=float, default=None, dest="train_fraction")
    parser.add_argument("--split-seed", type=int, default=None, dest="split_seed")
    parser.add_argument("--high-threshold", type=int, default=None, dest="high_threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recidrisk",
        description="Risk brackets from questionnaire data: encoding, classifiers, "
                    "police-oriented metrics, hybrid tuning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic corpus")
    p.add_argument("--config", help="generator config JSON (defaults to the demo mixture)")
    p.add_argument("--demo", action="store_true", help="use the shipped demo config (default)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--separation", type=float, default=None)
    p.add_argument("--no-viogen", action="store_true", dest="no_viogen")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit one model on the train split")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--family", default=None)
    p.add_argument("--params", default=None, help="hyperparameters as a JSON object")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on a case file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--tau", type=float, action="append", default=None, dest="taus")
    p.add_argument("--config", help="JSON file with command defaults")
    p.add_argument("--high-threshold", type=int, default=None, dest="high_threshold")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gridsearch", help="exhaustive hyperparameter search")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--objective", default=None,
                   choices=("high_f1", "weighted_f1", "police_protection"))
    p.add_argument("--space", default=None, choices=("default", "nc-fine"))
    p.add_argument("--no-baseline", action="store_true", dest="no_baseline")
    _add_common(p, with_jobs=True)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("crossval", help="k-fold tuning table")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--space", default=None, choices=("default", "nc-fine"))
    p.add_argument("--family", default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--objective", default=None)
    _add_common(p, with_jobs=True)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("sweep", help="hybrid-weight sweeps of protection and resource")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--rule-system", default=None, dest="rule_system")
    p.add_argument("--ml-family", default=None, dest="ml_family")
    p.add_argument("--ml-params", default=None, dest="ml_params")
    p.add_argument("--auto-ml", action="store_true", dest="auto_ml",
                   help="pick the ML source by k-fold police protection")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--grid-size", type=int, default=None, dest="grid_size")
    p.add_argument("--n-runs", type=int, default=None, dest="n_runs")
    p.add_argument("--tau", type=float, action="append", default=None, dest="taus")
    p.add_argument("--profile-mu", type=float, default=None, dest="profile_mu")
    p.add_argument("--profile-runs", type=int, default=None, dest="profile_runs")
    _add_common(p, with_jobs=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("decide", help="largest hybrid weight within a resource budget")
    p.add_argument("--curve", required=True, help="resource sweep CSV")
    p.add_argument("--r0", type=float, default=None)
    p.add_argument("--monotone", action="store_true")
    p.add_argument("--protection-curve", default=None, dest="protection_curve")
    p.add_argument("--config", help="JSON file with command defaults")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("sensitivity", help="High-threshold sensitivity table")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--thresholds", default=None, help="comma-separated, each >= 2")
    p.add_argument("--family", default=None)
    p.add_argument("--params", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sensitivity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
