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

A command only reads, checks and computes: `cmd_<name>(args, cfg)` returns
the manifest's config, its outputs as a dict of file name to writer
`write(path)`, and its summary line. `main` alone then clears or creates
`--out-dir`, runs the writers and writes the manifest from the same dict, so
a run that fails leaves the directory as it was and a manifest lists exactly
the files written.

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import NAMED_RULE_SYSTEMS, RuleSystem, classify_scores, get_rule_system
from .dataset import (
    FeatureMatrix,
    SplitSpec,
    comment_lines,
    finite_float,
    fmt_float,
    json_text,
    read_case_matrix,
    read_json,
    read_schema,
    require_known_fields,
    require_type,
    split,
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
    nc_fine_tune,
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
    code_scores,
    config_to_json,
    demo_config,
    generate_codes,
    read_config,
    severity_weights,
    thresholds_from_quantiles,
    write_case_codes,
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
    check: object = None  # check(what, value) raises ValueError for a non-None value the type admits


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
    (out_dir / MANIFEST_NAME).write_text(json_text(manifest, sort_keys=True))


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
    the manifest the same way from either. Every float must be finite: a
    flag's `inf` or `nan`, a file's `1e999` and an integer beyond the float
    range are refused.
    """
    options = {o.name: o for o in command.options}

    def checked(values: dict, what) -> dict:
        require_known_fields(values, options, args.command)
        result = {}
        for name, value in values.items():
            option = options[name]
            require_type(what(option), value,
                         option.type if option.default is not None else option.type | None)
            if option.choices and value is not None and value not in option.choices:
                raise ValueError(f"{what(option)} must be one of {', '.join(option.choices)}")
            if option.type is float and value is not None:
                value = finite_float(value, f"{what(option)} must be finite")
            elif option.type == list[float]:
                value = finite_float(value, f"{what(option)} values must be finite").tolist()
            if option.check and value is not None:
                option.check(what(option), value)
            result[name] = value
        return result

    cfg = {name: copy.deepcopy(o.default) for name, o in options.items()}
    if command.config_file and args.config:
        cfg.update(read_json(args.config, lambda values: checked(values, lambda o: f"field '{o.name}'")))
    cfg.update(checked({name: getattr(args, name) for name in options if name in args}, _flag))
    return cfg


def _text(text: str):
    return lambda path: path.write_text(text)


def _json(payload: dict):
    return _text(json_text({**payload, "manifest": MANIFEST_NAME}))


def _table(columns, rows: list):
    return lambda path: write_table(path, columns, rows, MANIFEST_NAME)


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args, cfg):
    if args.generator_config:
        if any(name in args for name in ("n", "seed", "separation")):
            raise ValueError("--n/--seed/--separation apply to the demo config only, not with --config")
        config = read_config(args.generator_config)
    else:
        config = demo_config(n_cases=cfg["n"], seed=cfg["seed"], separation=cfg["separation"])
    codes, counts = generate_codes(config)
    outputs, classes = {}, None
    if cfg["with_viogen"]:
        weights = severity_weights(config.schema)
        scores = code_scores(config.schema, codes, weights)
        thresholds = thresholds_from_quantiles(scores)
        classes = classify_scores(scores, thresholds)
        outputs["viogen.json"] = _json({
            "weights": {f"{qid}|{opt}": w for (qid, opt), w in sorted(weights.items())},
            "thresholds": list(thresholds),
        })
    outputs["cases.csv"] = lambda path: write_case_codes(path, config.schema, codes, counts, classes,
                                                         MANIFEST_NAME)
    outputs["schema.json"] = _json(config.schema.to_json())
    outputs["generator_config.json"] = _json(config_to_json(config))
    resolved = {
        "n_cases": config.n_cases,
        "seed": config.seed,
        "missing_rate": config.missing_rate,
        "profiles": [p.name for p in config.profiles],
        "with_viogen": cfg["with_viogen"],
    }
    return resolved, outputs, f"generated {len(counts)} cases into {Path(args.out_dir, 'cases.csv')}"


# ---------------------------------------------------------------------------
# train / evaluate

def cmd_train(args, cfg):
    config = ModelConfig(cfg["family"], cfg["params"])
    train_part, test_part = _load_split(args, cfg)
    model = fit_model(config, train_part, derive_seed(cfg["seed"], "train"))
    cm = confusion(model.predict(test_part.values), test_part.labels)
    extra = {"config": cfg, "manifest": MANIFEST_NAME}
    outputs = {"model.json": lambda path: save_model(path, model, extra=extra),
               "holdout_metrics.csv": _metric_report("model", cm, _DEFAULT_TAUS)}
    return cfg, outputs, (f"trained {config.family} [{config.canonical()}]; "
                          f"holdout police protection {police_protection(cm):.4f}")


def _load_matrix(args, cfg) -> FeatureMatrix:
    return read_case_matrix(args.data, read_schema(args.schema), high_threshold=cfg["high_threshold"])


def _load_split(args, cfg) -> tuple[FeatureMatrix, FeatureMatrix]:
    """The train and test parts of the case file. The full matrix is gone once
    this returns, so a command holds only its parts."""
    return split(_load_matrix(args, cfg), SplitSpec(cfg["train_fraction"], cfg["split_seed"]))


def _metric_report(model_id: str, cm, taus):
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
    return _table(("model", "metric", "value"),
                  [(model_id, name, fmt_float(value)) for name, value in rows])


def cmd_evaluate(args, cfg):
    model = load_model(args.model)
    matrix = _load_matrix(args, cfg)
    if isinstance(model, RuleSystem):
        if matrix.viogen_scores is None:
            raise ValueError(f"{args.data}: rule-system models need a viogen_score column")
        predictions = model.apply_many(matrix.viogen_scores)
    else:
        try:
            predictions = model.predict(matrix.values)
        except ValueError as exc:  # the model's width does not fit the data
            raise ValueError(f"{args.model}: {exc}") from None
    cm = confusion(predictions, matrix.labels)
    return cfg, {"metrics.csv": _metric_report(Path(args.model).stem, cm, cfg["taus"])}, (
        f"evaluated {model_family(model)}: police protection {police_protection(cm):.4f}")


# ---------------------------------------------------------------------------
# gridsearch / crossval

_SPACES = {"default": default_search_space, "nc-fine": nc_fine_space}


def cmd_gridsearch(args, cfg):
    train_part, test_part = _load_split(args, cfg)
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
    outputs = {"results.csv": lambda path: write_result_table(path, table, manifest=MANIFEST_NAME),
               "results.txt": _text(comment_lines(MANIFEST_NAME) + format_result_table(table) + "\n")}
    top = table.rows[0]
    return cfg, outputs, (f"gridsearch: {len(table.rows)} rows; best {top.family} [{top.canonical()}] "
                          f"{table.objective.label()}={top.objective_value:.4f}")


def cmd_crossval(args, cfg):
    if cfg["family"]:
        space = SearchSpace((ModelConfig(cfg["family"], cfg["params"] or {}),))
    elif cfg["params"] is not None:
        raise ValueError("crossval takes params only with a family, not with a space")
    else:
        space = _SPACES[cfg["space"]]()
    train_part = _load_split(args, cfg)[0]
    table = cv_table(space, train_part, k=cfg["k"], objective=cfg["objective"],
                     master_seed=cfg["seed"], jobs=cfg["jobs"])
    top = table.rows[0]
    return cfg, {"cv_table.csv": lambda path: write_cv_table(path, table, manifest=MANIFEST_NAME)}, (
        f"crossval: best {top.family} [{top.canonical()}] mean={top.mean:.4f} std={top.std:.4f}")


# ---------------------------------------------------------------------------
# sweep / decide / sensitivity

def cmd_sweep(args, cfg):
    train_part, test_part = _load_split(args, cfg)
    if test_part.viogen_scores is None:
        raise ValueError(f"{args.data}: {args.command} needs a viogen_score column for the "
                         "baseline source")

    if cfg["auto_ml"]:
        ml_config = nc_fine_tune(train_part, cfg["k"], cfg["seed"]).best_config()
        cfg["ml_family"], cfg["ml_params"] = ml_config.family, dict(ml_config.params)
    else:
        ml_config = ModelConfig(cfg["ml_family"], cfg["ml_params"])
    model = fit_model(ml_config, train_part, derive_seed(cfg["seed"], "sweep-ml"))

    rule = get_rule_system(cfg["rule_system"])
    f0 = rule.apply_many(test_part.viogen_scores)
    f1 = model.predict(test_part.values)
    truths = test_part.labels

    # the protection curve and one resource curve per tau, all scoring the same executions
    metrics = [MetricSpec("police_protection"),
               *(MetricSpec("police_resource", tau) for tau in cfg["taus"])]
    curves = mu_sweep(f0, f1, truths, metrics, grid_size=cfg["grid_size"], n_runs=cfg["n_runs"],
                      master_seed=derive_seed(cfg["seed"], "sweep"))
    outputs = {
        ("protection_sweep.csv" if c.metric.tau is None else f"resource_sweep_tau{c.metric.tau:g}.csv"):
            lambda path, c=c: write_sweep(path, c, manifest=MANIFEST_NAME)
        for c in curves}

    profile = resource_profile(
        f0, f1, truths, cfg["profile_mu"], cfg["taus"],
        n_runs=cfg["profile_runs"], master_seed=derive_seed(cfg["seed"], "profile"),
    )
    outputs["resource_profile.csv"] = _table(
        ("tau", "mu", "mean", "std", "ci_half_width", "min", "q1", "median", "q3", "max", "n_runs"),
        [
            [fmt_float(x) for x in (summary.tau, cfg["profile_mu"], summary.mean, summary.std,
                                     summary.ci_half_width, *summary.quantiles)]
            + [cfg["profile_runs"]]
            for summary in profile
        ],
    )
    protection = curves[0]
    return cfg, outputs, (f"sweep: protection mu=0 {protection.means[0]:.4f} -> "
                          f"mu=1 {protection.means[-1]:.4f} ({len(cfg['taus'])} resource curves)")


def cmd_decide(args, cfg):
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
    return cfg, {"decision.json": _json(report)}, (
        f"decide: mu0 = {mu0:.6g} (tau={curve.metric.tau:g}, r0={cfg['r0']:g})")


def cmd_sensitivity(args, cfg):
    plan = EvalPlan(
        ModelConfig(cfg["family"], cfg["params"]),
        SplitSpec(cfg["train_fraction"], cfg["split_seed"]),
        seed=cfg["seed"],
    )
    rows = threshold_sensitivity(read_case_matrix(args.data, read_schema(args.schema)),
                                 cfg["thresholds"], plan)
    outputs = {"sensitivity.csv": lambda path: write_sensitivity(path, rows, manifest=MANIFEST_NAME)}
    return cfg, outputs, "\n".join(f"threshold {row.high_threshold}: protection {row.protection:.4f}"
                                   for row in rows)


def _taus(nonempty: bool = False):
    """Taus are penalties, so >= 0. They name their outputs by `tau{tau:g}`
    (sweep curve files, report rows), so two taus with one name would write
    over each other."""
    def check(what: str, taus: list[float]) -> None:
        _each_at_least(0, nonempty)(what, taus)
        names = [f"{tau:g}" for tau in taus]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"{what} holds {taus[names.index(name)]!r} and {taus[i]!r}, "
                                 f"which share the output name tau{name}")
    return check


def _at_least(low: int):
    def check(what: str, value: int) -> None:
        if value < low:
            raise ValueError(f"{what} must be >= {low}")
    return check


def _each_at_least(low: int, nonempty: bool = False):
    def check(what: str, values: list) -> None:
        if nonempty and not values:
            raise ValueError(f"{what} must not be empty")
        if any(value < low for value in values):
            raise ValueError(f"{what} values must be >= {low}")
    return check


def _unit_interval(what: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1]")


def _open_unit_interval(what: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{what} must lie in (0, 1)")


# ---------------------------------------------------------------------------
# wiring: every command's inputs and options, declared once

_NC_DEFAULT = {"metric": "euclidean", "shrink_threshold": 0.1}
_OBJECTIVES = ("high_f1", "weighted_f1", "police_protection")
_DATA = (Input("data"), Input("schema"))
_SPLIT = (Option("train_fraction", 0.67, float, check=_open_unit_interval),
          Option("split_seed", 0, int), Option("seed", 0, int))
_HIGH_THRESHOLD = Option("high_threshold", 3, int, check=_at_least(2))
_JOBS = Option("jobs", 1, int, check=_at_least(1),
               help="parallel worker bound (results are jobs-invariant)")
_TAUS = Option("taus", list(_DEFAULT_TAUS), list[float], flag="--tau", check=_taus())
_PARAMS_HELP = "hyperparameters as a JSON object"

COMMANDS = {
    "generate": Command(
        "emit a synthetic corpus",
        (Input("generator_config", required=False, flag="--config",
               help="generator config JSON (defaults to the demo mixture)"),),
        (Option("n", 20000, int, check=_at_least(1)), Option("seed", DEMO_SEED, int),
         Option("separation", 0.35, float, check=_unit_interval),
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
        Option("k", 10, int, check=_at_least(2)),
        Option("objective", "police_protection", str),
        *_SPLIT, _JOBS, _HIGH_THRESHOLD,
    )),
    "sweep": Command("hybrid-weight sweeps of protection and resource", _DATA, (
        Option("rule_system", "cautious", str),
        Option("ml_family", "nc", str, FAMILIES),
        Option("ml_params", _NC_DEFAULT, dict, help=_PARAMS_HELP),
        Option("auto_ml", False, bool, help="pick the ML source by k-fold police protection"),
        Option("k", 10, int, check=_at_least(2)),
        Option("grid_size", 200, int, check=_at_least(2)),
        Option("n_runs", 10, int, check=_at_least(1)),
        # a sweep's resource profile holds one row per tau, and a table without rows is no table
        replace(_TAUS, check=_taus(nonempty=True)),
        Option("profile_mu", 0.9, float, check=_unit_interval),
        Option("profile_runs", 50, int, check=_at_least(1)),
        *_SPLIT, _HIGH_THRESHOLD,
    )),
    "decide": Command(
        "largest hybrid weight within a resource budget",
        (Input("curve", help="resource sweep CSV"),
         Input("protection_curve", required=False, help="protection sweep CSV on the same mu grid")),
        (Option("r0", None, float, check=_at_least(0)), Option("monotone", False, bool)),
    ),
    "sensitivity": Command("High-threshold sensitivity table", _DATA, (
        Option("thresholds", [3, 4, 5], list[int], help="comma-separated, each >= 2",
               check=_each_at_least(2, nonempty=True)),
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
        config, outputs, summary = globals()[f"cmd_{args.command}"](args, cfg)
        out = _out_dir(args)
        for name, write in outputs.items():
            write(out / name)
        _write_manifest(out, args, config, list(outputs))
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
