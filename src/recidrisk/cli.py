"""Command-line pipeline: generate, train, evaluate, gridsearch, crossval,
sweep, decide, sensitivity.

Every run writes its outputs plus a manifest echoing the fully resolved
configuration, the seeds, and fingerprints of the input files; two runs with
identical manifests produce byte-identical outputs. Delimited outputs open
with a comment line naming the manifest that produced them, JSON outputs
carry a `manifest` key.

Each command's input files and options are declared once, in `COMMANDS`; the
flags, the defaults, the check of a `--config` file and the config recorded
in the manifest all come from those declarations.

`--jobs` (gridsearch, crossval) bounds the worker count and never changes a
result. `sweep` draws one set of hybrid executions per mu point, from one
seed, and scores the protection curve and every resource curve on it.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from dataclasses import dataclass
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
    require_type,
    split,
    write_cases,
    write_table,
)
from .experiments import (
    FAMILIES,
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
    DEMO_SEED,
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


@dataclass(frozen=True)
class Option:
    """A command option, declared once: the config key, the flag `--<name>`
    (`-` for `_`) unless `flag` names another, the default and the type."""

    name: str
    default: object
    type: object  # int, float, str, bool, dict, list[int] or list[float]; a None default admits None
    choices: tuple = ()
    flag: str | None = None  # a bool option's flag sets the opposite of its default
    help: str | None = None
    check: object = None  # check(what, value) raises ValueError for a value the type admits


@dataclass(frozen=True)
class Input:
    """An input file flag; its path and fingerprint go to the manifest's inputs."""

    name: str
    required: bool = True
    flag: str | None = None
    help: str | None = None


@dataclass(frozen=True)
class Command:
    help: str
    inputs: tuple[Input, ...]
    options: tuple[Option, ...]
    config_file: bool = True  # takes `--config`, a JSON object of option values


def _flag(item) -> str:
    return item.flag or "--" + item.name.replace("_", "-")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


_FROM_TEXT = {int: int, float: float, str: str, dict: json.loads, list[int]: _int_list}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, args, config: dict, outputs: list) -> None:
    inputs = {i.name: getattr(args, i.name) for i in COMMANDS[args.command].inputs}
    manifest = {
        "command": args.command,
        "package_version": __version__,
        "config": config,
        "inputs": {name: {"path": str(p), "sha256": _sha256(Path(p))}
                   for name, p in inputs.items() if p is not None},
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


def _out_dir(args) -> Path:
    """The output directory, without the files an earlier run of this command listed.

    A directory whose manifest records another command is refused, so a
    directory never holds files its manifest does not list.
    """
    out = Path(args.out_dir)
    manifest = out / MANIFEST_NAME
    if manifest.exists():
        def listed_outputs(payload) -> list[str]:
            if payload["command"] != args.command:
                raise ValueError(f"holds a {payload['command']} run")
            require_type("field 'outputs'", payload["outputs"], list[str])
            for name in payload["outputs"]:
                if name in ("", ".", "..") or Path(name).name != name or (out / name).is_dir():
                    raise ValueError(f"output {name!r} is not a file name in {out}")
            return payload["outputs"]

        for name in read_json(manifest, listed_outputs):
            (out / name).unlink(missing_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve(args, command: Command) -> dict:
    """Each option's value: its flag if given, else its `--config` field, else its default.

    File fields and flags alike are checked against the option's type and
    choices, and an int given for a float becomes a float, so a value reaches
    the manifest the same way from either.
    """
    options = {o.name: o for o in command.options}

    def checked(values: dict, what) -> dict:
        unknown = sorted(set(values) - set(options))
        if unknown:
            raise ValueError(f"unknown field(s) {', '.join(unknown)}; "
                             f"{args.command} takes {', '.join(options)}")
        result = {}
        for name, value in values.items():
            option = options[name]
            require_type(what(option), value,
                         option.type if option.default is not None else option.type | None)
            if option.choices and value is not None and value not in option.choices:
                raise ValueError(f"{what(option)} must be one of {', '.join(option.choices)}")
            if option.type is float and value is not None:
                value = float(value)
            elif option.type == list[float]:
                value = [float(v) for v in value]
            if option.check:
                option.check(what(option), value)
            result[name] = value
        return result

    cfg = {name: copy.deepcopy(o.default) for name, o in options.items()}
    if command.config_file and args.config:
        cfg.update(read_json(args.config, lambda values: checked(values, lambda o: f"field '{o.name}'")))
    cfg.update(checked({name: getattr(args, name) for name in options if name in args}, _flag))
    return cfg


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args, cfg) -> int:
    if args.generator_config:
        if any(name in args for name in ("n", "seed", "separation")):
            raise ValueError("--n/--seed/--separation apply to the demo config only, not with --config")
        config = read_config(args.generator_config)
    else:
        config = demo_config(n_cases=cfg["n"], seed=cfg["seed"], separation=cfg["separation"])
    out = _out_dir(args)
    records = generate(config)
    viogen_payload = None
    if cfg["with_viogen"]:
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
        "with_viogen": cfg["with_viogen"],
    }
    _write_manifest(out, args, resolved, outputs)
    print(f"generated {len(records)} cases into {cases_path}")
    return 0


# ---------------------------------------------------------------------------
# train / evaluate

def cmd_train(args, cfg) -> int:
    config = ModelConfig(cfg["family"], cfg["params"])
    matrix = _load_matrix(args, cfg)
    out = _out_dir(args)
    train_part, test_part = split(matrix, SplitSpec(cfg["train_fraction"], cfg["split_seed"]))
    model = fit_model(config, train_part, derive_seed(cfg["seed"], "train"))
    save_model(out / "model.json", model, extra={"config": cfg, "manifest": MANIFEST_NAME})
    cm = confusion(model.predict(test_part.values), test_part.labels)
    _write_metric_report(out / "holdout_metrics.csv", "model", cm, _DEFAULT_TAUS)
    _write_manifest(out, args, cfg, ["model.json", "holdout_metrics.csv"])
    print(f"trained {config.family} [{config.canonical()}]; "
          f"holdout police protection {police_protection(cm):.4f}")
    return 0


def _load_matrix(args, cfg) -> FeatureMatrix:
    schema = read_schema(args.schema)
    records = read_cases(args.data)
    return encode_cases(records, schema, high_threshold=cfg["high_threshold"])


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


def cmd_evaluate(args, cfg) -> int:
    model = load_model(args.model)
    matrix = _load_matrix(args, cfg)
    if isinstance(model, RuleSystem):
        if matrix.viogen_scores is None:
            raise ValueError(f"{args.data}: rule-system models need a viogen_score column")
        predictions = model.apply_many(matrix.viogen_scores)
    else:
        predictions = model.predict(matrix.values)
    out = _out_dir(args)
    cm = confusion(predictions, matrix.labels)
    _write_metric_report(out / "metrics.csv", Path(args.model).stem, cm, cfg["taus"])
    _write_manifest(out, args, cfg, ["metrics.csv"])
    print(f"evaluated {model_family(model)}: police protection {police_protection(cm):.4f}")
    return 0


# ---------------------------------------------------------------------------
# gridsearch / crossval

_SPACES = {"default": default_search_space, "nc-fine": nc_fine_space}


def cmd_gridsearch(args, cfg) -> int:
    matrix = _load_matrix(args, cfg)
    out = _out_dir(args)
    train_part, test_part = split(matrix, SplitSpec(cfg["train_fraction"], cfg["split_seed"]))
    table = grid_search(
        _SPACES[cfg["space"]](),
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
    _write_manifest(out, args, cfg, ["results.csv", "results.txt"])
    top = table.rows[0]
    print(f"gridsearch: {len(table.rows)} rows; best {top.family} [{top.canonical()}] "
          f"{table.objective.label()}={top.objective_value:.4f}")
    return 0


def cmd_crossval(args, cfg) -> int:
    if cfg["family"]:
        space = SearchSpace((ModelConfig(cfg["family"], cfg["params"] or {}),))
    else:
        space = _SPACES[cfg["space"]]()
    matrix = _load_matrix(args, cfg)
    out = _out_dir(args)
    train_part, _ = split(matrix, SplitSpec(cfg["train_fraction"], cfg["split_seed"]))
    table = cv_table(space, train_part, k=cfg["k"], objective=cfg["objective"],
                     master_seed=cfg["seed"], jobs=cfg["jobs"])
    write_cv_table(out / "cv_table.csv", table, manifest=MANIFEST_NAME)
    _write_manifest(out, args, cfg, ["cv_table.csv"])
    top = table.rows[0]
    print(f"crossval: best {top.family} [{top.canonical()}] mean={top.mean:.4f} std={top.std:.4f}")
    return 0


# ---------------------------------------------------------------------------
# sweep / decide / sensitivity

def cmd_sweep(args, cfg) -> int:
    matrix = _load_matrix(args, cfg)
    if matrix.viogen_scores is None:
        raise ValueError(f"{args.data}: sweep needs a viogen_score column for the baseline source")
    out = _out_dir(args)
    train_part, test_part = split(matrix, SplitSpec(cfg["train_fraction"], cfg["split_seed"]))

    if cfg["auto_ml"]:
        tuning = cv_table(nc_fine_space(), train_part, k=cfg["k"],
                          objective="police_protection", master_seed=cfg["seed"])
        ml_config = tuning.best_config()
        cfg["ml_family"], cfg["ml_params"] = ml_config.family, dict(ml_config.params)
    else:
        ml_config = ModelConfig(cfg["ml_family"], cfg["ml_params"])
    model = fit_model(ml_config, train_part, derive_seed(cfg["seed"], "sweep-ml"))

    rule = get_rule_system(cfg["rule_system"])
    f0 = rule.apply_many(test_part.viogen_scores)
    f1 = model.predict(test_part.values)
    truths = test_part.labels

    # the protection curve and one resource curve per tau, all scoring the same executions
    outputs = ["protection_sweep.csv", *(f"resource_sweep_tau{tau:g}.csv" for tau in cfg["taus"])]
    metrics = [MetricSpec("police_protection"),
               *(MetricSpec("police_resource", tau) for tau in cfg["taus"])]
    curves = mu_sweep(f0, f1, truths, metrics, grid_size=cfg["grid_size"], n_runs=cfg["n_runs"],
                      master_seed=derive_seed(cfg["seed"], "sweep"))
    for name, curve in zip(outputs, curves):
        write_sweep(out / name, curve, manifest=MANIFEST_NAME)
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

    _write_manifest(out, args, cfg, outputs)
    print(f"sweep: protection mu=0 {protection.means[0]:.4f} -> mu=1 {protection.means[-1]:.4f} "
          f"({len(cfg['taus'])} resource curves)")
    return 0


def cmd_decide(args, cfg) -> int:
    if cfg["r0"] is None:
        raise ValueError("decide needs --r0")
    curve = read_sweep(args.curve)
    if curve.metric.name != "police_resource":
        raise ValueError(f"{args.curve}: holds a {curve.metric.name} curve, "
                         "decide needs a police_resource curve")
    protection = None
    if args.protection_curve:
        protection = read_sweep(args.protection_curve)
        if protection.metric.name != "police_protection":
            raise ValueError(f"{args.protection_curve}: holds a {protection.metric.name} curve, "
                             "--protection-curve needs a police_protection curve")
        if not np.array_equal(protection.grid, curve.grid):
            raise ValueError(f"{args.protection_curve}: its mu grid differs from {args.curve}'s")
    mu0 = decide_mu(curve, cfg["r0"], monotone=cfg["monotone"])
    idx0 = int(np.argmin(np.abs(curve.grid - mu0)))
    report = {
        "mu0": mu0,
        "r0": cfg["r0"],
        "tau": curve.metric.tau,
        "monotone": cfg["monotone"],
        "resource_at_mu0": float(curve.means[idx0]),
    }
    if protection is not None:
        report["protection_at_mu0"] = float(protection.means[idx0])
        report["protection_at_zero"] = float(protection.means[0])
    out = _out_dir(args)
    _write_json(out / "decision.json", report)
    _write_manifest(out, args, cfg, ["decision.json"])
    print(f"decide: mu0 = {mu0:.6g} (tau={curve.metric.tau:g}, r0={cfg['r0']:g})")
    return 0


def cmd_sensitivity(args, cfg) -> int:
    plan = EvalPlan(
        ModelConfig(cfg["family"], cfg["params"]),
        SplitSpec(cfg["train_fraction"], cfg["split_seed"]),
        seed=cfg["seed"],
    )
    schema = read_schema(args.schema)
    records = read_cases(args.data)
    out = _out_dir(args)
    rows = threshold_sensitivity(records, schema, cfg["thresholds"], plan)
    write_sensitivity(out / "sensitivity.csv", rows, manifest=MANIFEST_NAME)
    _write_manifest(out, args, cfg, ["sensitivity.csv"])
    for row in rows:
        print(f"threshold {row.high_threshold}: protection {row.protection:.4f}")
    return 0


def _distinct_taus(what: str, taus: list[float]) -> None:
    """Taus name their outputs by `tau{tau:g}` (sweep curve files, report rows),
    so two taus with one name would write over each other."""
    names = [f"{tau:g}" for tau in taus]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"{what} holds {taus[names.index(name)]!r} and {taus[i]!r}, "
                             f"which share the output name tau{name}")


def _at_least(low: int):
    def check(what: str, value: int) -> None:
        if value < low:
            raise ValueError(f"{what} must be >= {low}")
    return check


def _unit_interval(what: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1]")


# ---------------------------------------------------------------------------
# wiring: every command's inputs and options, declared once

_NC_DEFAULT = {"metric": "euclidean", "shrink_threshold": 0.1}
_OBJECTIVES = ("high_f1", "weighted_f1", "police_protection")
_DATA = (Input("data"), Input("schema"))
_SPLIT = (Option("train_fraction", 0.67, float), Option("split_seed", 0, int), Option("seed", 0, int))
_HIGH_THRESHOLD = Option("high_threshold", 3, int)
_JOBS = Option("jobs", 1, int, help="parallel worker bound (results are jobs-invariant)")
_TAUS = Option("taus", list(_DEFAULT_TAUS), list[float], flag="--tau", check=_distinct_taus)
_PARAMS_HELP = "hyperparameters as a JSON object"

COMMANDS = {
    "generate": Command(
        "emit a synthetic corpus",
        (Input("generator_config", required=False, flag="--config",
               help="generator config JSON (defaults to the demo mixture)"),),
        (Option("n", 20000, int), Option("seed", DEMO_SEED, int), Option("separation", 0.35, float),
         Option("with_viogen", True, bool, flag="--no-viogen")),
        config_file=False,
    ),
    "train": Command("fit one model on the train split", _DATA, (
        Option("family", "nc", str, FAMILIES),
        Option("params", _NC_DEFAULT, dict, help=_PARAMS_HELP),
        *_SPLIT, _HIGH_THRESHOLD,
    )),
    "evaluate": Command("score a saved model on a case file", (Input("model"), *_DATA),
                        (_HIGH_THRESHOLD, _TAUS)),
    "gridsearch": Command("exhaustive hyperparameter search", _DATA, (
        Option("objective", "high_f1", str, _OBJECTIVES),
        Option("space", "default", str, tuple(_SPACES)),
        *_SPLIT, _JOBS, _HIGH_THRESHOLD,
        Option("with_baseline", True, bool, flag="--no-baseline"),
    )),
    "crossval": Command("k-fold tuning table", _DATA, (
        Option("space", "nc-fine", str, tuple(_SPACES)),
        Option("family", None, str, FAMILIES),
        Option("params", None, dict, help=_PARAMS_HELP),
        Option("k", 10, int),
        Option("objective", "police_protection", str),
        *_SPLIT, _JOBS, _HIGH_THRESHOLD,
    )),
    "sweep": Command("hybrid-weight sweeps of protection and resource", _DATA, (
        Option("rule_system", "cautious", str),
        Option("ml_family", "nc", str, FAMILIES),
        Option("ml_params", _NC_DEFAULT, dict, help=_PARAMS_HELP),
        Option("auto_ml", False, bool, help="pick the ML source by k-fold police protection"),
        Option("k", 10, int),
        Option("grid_size", 200, int, check=_at_least(2)),
        Option("n_runs", 10, int, check=_at_least(1)),
        _TAUS,
        Option("profile_mu", 0.9, float, check=_unit_interval),
        Option("profile_runs", 50, int, check=_at_least(1)),
        *_SPLIT, _HIGH_THRESHOLD,
    )),
    "decide": Command(
        "largest hybrid weight within a resource budget",
        (Input("curve", help="resource sweep CSV"),
         Input("protection_curve", required=False, help="protection sweep CSV on the same mu grid")),
        (Option("r0", None, float), Option("monotone", False, bool)),
    ),
    "sensitivity": Command("High-threshold sensitivity table", _DATA, (
        Option("thresholds", [3, 4, 5], list[int], help="comma-separated, each >= 2"),
        Option("family", "nc", str, FAMILIES),
        Option("params", _NC_DEFAULT, dict, help=_PARAMS_HELP),
        *_SPLIT,
    )),
}


def _add_option(parser, option: Option) -> None:
    # not given -> absent from the namespace, so the layers below it show through
    kwargs = {"dest": option.name, "default": argparse.SUPPRESS, "help": option.help}
    if option.type is bool:
        parser.add_argument(_flag(option), action="store_const", const=not option.default, **kwargs)
    elif option.type == list[float]:
        parser.add_argument(_flag(option), action="append", type=float, **kwargs)
    else:
        parser.add_argument(_flag(option), type=_FROM_TEXT[option.type],
                            choices=option.choices or None, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recidrisk",
        description="Risk brackets from questionnaire data: encoding, classifiers, "
                    "police-oriented metrics, hybrid tuning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for item in command.inputs:
            p.add_argument(_flag(item), dest=item.name, required=item.required, help=item.help)
        if command.config_file:
            p.add_argument("--config", help="JSON object of option values, keyed by the option "
                                            "names with _ for -; flags win")
        for option in command.options:
            _add_option(p, option)
        p.add_argument("--out-dir", default=f"runs/{name}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args, COMMANDS[args.command])
        # looked up when the command runs, so a wrapper installed on the module attribute sees it
        return globals()[f"cmd_{args.command}"](args, cfg)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
