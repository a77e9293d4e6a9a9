"""CLI pipeline: each subcommand end to end on a small corpus."""

import csv
import json
import shutil
import subprocess
import sys

import pytest

from recidrisk.cli import main
from recidrisk.dataset import CaseRecord, Question, QuestionnaireSchema, write_schema
from recidrisk.hybrid import read_sweep
from recidrisk.synthgen import demo_config, write_config

from oracles import write_cases


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = main(["generate", "--n", "900", "--seed", "99", "--out-dir", str(out)])
    assert code == 0
    return out


def test_generate_outputs(generated):
    for name in ("cases.csv", "schema.json", "generator_config.json", "viogen.json",
                 "manifest.json"):
        assert (generated / name).exists()
    manifest = json.loads((generated / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["config"]["n_cases"] == 900
    lines = (generated / "cases.csv").read_text().splitlines()
    assert lines[0] == "# manifest: manifest.json"
    assert lines[1].startswith("case_id,recidivism_count,viogen_score")
    # JSON outputs name their manifest too
    for name in ("schema.json", "generator_config.json", "viogen.json"):
        assert json.loads((generated / name).read_text())["manifest"] == "manifest.json"


def test_generate_reruns_are_byte_identical(tmp_path, generated):
    again = tmp_path / "again"
    assert main(["generate", "--n", "900", "--seed", "99", "--out-dir", str(again)]) == 0
    for name in ("cases.csv", "schema.json", "generator_config.json", "viogen.json",
                 "manifest.json"):
        assert (again / name).read_bytes() == (generated / name).read_bytes()


def test_train_and_evaluate(generated, tmp_path):
    train_dir = tmp_path / "train"
    code = main([
        "train", "--data", str(generated / "cases.csv"), "--schema", str(generated / "schema.json"),
        "--family", "nc", "--params", '{"metric": "euclidean", "shrink_threshold": 0.5}',
        "--out-dir", str(train_dir),
    ])
    assert code == 0
    assert (train_dir / "model.json").exists()
    report = (train_dir / "holdout_metrics.csv").read_text()
    assert report.startswith("# manifest: manifest.json")
    assert "police_protection" in report

    eval_dir = tmp_path / "eval"
    code = main([
        "evaluate", "--model", str(train_dir / "model.json"),
        "--data", str(generated / "cases.csv"), "--schema", str(generated / "schema.json"),
        "--tau", "0.5", "--out-dir", str(eval_dir),
    ])
    assert code == 0
    text = (eval_dir / "metrics.csv").read_text()
    assert "police_resource_tau=0.5" in text


def test_gridsearch_nc_fine(generated, tmp_path):
    out = tmp_path / "grid"
    code = main([
        "gridsearch", "--data", str(generated / "cases.csv"),
        "--schema", str(generated / "schema.json"),
        "--space", "nc-fine", "--objective", "police_protection",
        "--seed", "3", "--out-dir", str(out),
    ])
    assert code == 0
    lines = [l for l in (out / "results.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 1 + 27 + 4  # header + nc fine grid + four rule systems
    assert (out / "results.txt").exists()


def test_crossval_single_config(generated, tmp_path):
    out = tmp_path / "cv"
    code = main([
        "crossval", "--data", str(generated / "cases.csv"),
        "--schema", str(generated / "schema.json"),
        "--family", "nc", "--params", '{"metric": "euclidean", "shrink_threshold": 1}',
        "--k", "5", "--out-dir", str(out),
    ])
    assert code == 0
    lines = (out / "cv_table.csv").read_text().splitlines()
    assert lines[1].startswith("rank") or lines[0].startswith("#")


def test_sweep_and_decide(generated, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--data", str(generated / "cases.csv"),
        "--schema", str(generated / "schema.json"),
        "--grid-size", "12", "--n-runs", "3", "--tau", "0.5", "--tau", "2.0",
        "--profile-runs", "8", "--seed", "5", "--auto-ml", "--k", "3", "--out-dir", str(out),
    ])
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["auto_ml"] is True
    protection = read_sweep(out / "protection_sweep.csv")
    assert len(protection) == 12
    resource = read_sweep(out / "resource_sweep_tau0.5.csv")
    assert resource.metric.tau == 0.5
    profile = (out / "resource_profile.csv").read_text().splitlines()
    assert len(profile) == 2 + 2  # manifest comment, header, one row per tau
    for row in profile[2:]:
        assert all(float(cell) >= 0 for cell in row.split(","))  # plain numbers only

    decide_dir = tmp_path / "decide"
    code = main([
        "decide", "--curve", str(out / "resource_sweep_tau0.5.csv"), "--r0", "1.0",
        "--protection-curve", str(out / "protection_sweep.csv"), "--monotone",
        "--out-dir", str(decide_dir),
    ])
    assert code == 0
    report = json.loads((decide_dir / "decision.json").read_text())
    assert report["mu0"] == 1.0  # budget above the metric bound never binds
    assert report["monotone"] is True
    assert "protection_at_mu0" in report


def test_decide_rejects_protection_curve_input(generated, tmp_path, capsys):
    out = tmp_path / "sweep2"
    main([
        "sweep", "--data", str(generated / "cases.csv"),
        "--schema", str(generated / "schema.json"),
        "--grid-size", "5", "--n-runs", "2", "--tau", "1.0", "--out-dir", str(out),
    ])
    capsys.readouterr()
    curve = out / "protection_sweep.csv"
    code = main(["decide", "--curve", str(curve), "--r0", "0.1", "--out-dir", str(tmp_path / "d2")])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {curve}: holds a police_protection curve")


def test_sensitivity(generated, tmp_path):
    out = tmp_path / "sens"
    code = main([
        "sensitivity", "--data", str(generated / "cases.csv"),
        "--schema", str(generated / "schema.json"),
        "--thresholds", "3,4", "--out-dir", str(out),
    ])
    assert code == 0
    lines = [l for l in (out / "sensitivity.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 3  # header + one row per threshold


def test_config_file_with_cli_override(generated, tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"thresholds": [3], "family": "nc",
                                       "params": {"metric": "manhattan",
                                                  "shrink_threshold": None}}))
    out = tmp_path / "sens2"
    code = main([
        "sensitivity", "--data", str(generated / "cases.csv"),
        "--schema", str(generated / "schema.json"),
        "--config", str(config_path), "--thresholds", "4", "--out-dir", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["thresholds"] == [4]  # flag beats file
    assert manifest["config"]["params"]["metric"] == "manhattan"


CURVE_HEADER = "mu,mean,std,ci_lo,ci_hi,metric,tau,n_runs\n"
RESOURCE_CURVE = (CURVE_HEADER + "0.0,0.1,0.0,0.1,0.1,police_resource,0.5,3\n"
                  "1.0,0.2,0.0,0.2,0.2,police_resource,0.5,3\n")


@pytest.fixture(scope="module")
def trained(generated, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    assert main(["train", "--data", str(generated / "cases.csv"),
                 "--schema", str(generated / "schema.json"), "--out-dir", str(out)]) == 0
    return out / "model.json"


BEYOND_FLOAT = 10**400  # a JSON integer that no float holds

# name: (command, --config fields, the message that follows `error: <config path>: `)
CONFIG_ERRORS = {
    "train_params_list": ("train", {"params": [1]}, "field 'params' must be dict\n"),
    "train_seed_string": ("train", {"seed": "x"}, "field 'seed' must be int\n"),
    "evaluate_taus_number": ("evaluate", {"taus": 0.5}, "field 'taus' must be list[float]\n"),
    "decide_r0_string": ("decide", {"r0": "0.1"}, "field 'r0' must be float | None\n"),
    "crossval_k_string": ("crossval", {"k": "3"}, "field 'k' must be int\n"),
    "gridsearch_unknown_space": ("gridsearch", {"space": "bogus"},
                                 "field 'space' must be one of default, nc-fine\n"),
    "sweep_auto_ml_string": ("sweep", {"auto_ml": "yes"}, "field 'auto_ml' must be bool\n"),
    "train_unknown_field": ("train", {"family": "nc", "depth": 3},
                            "unknown field(s) depth; train takes family, params, "),
    "sweep_taus_repeated": ("sweep", {"taus": [0.5, 0.5]},
                            "field 'taus' holds 0.5 and 0.5, which share the output name tau0.5\n"),
    "sweep_taus_equal_to_6_digits": ("sweep", {"taus": [0.1, 0.1000001]},
                                     "field 'taus' holds 0.1 and 0.1000001, which share the output "
                                     "name tau0.1\n"),
    "sweep_grid_size_1": ("sweep", {"grid_size": 1}, "field 'grid_size' must be >= 2\n"),
    "sweep_n_runs_0": ("sweep", {"n_runs": 0}, "field 'n_runs' must be >= 1\n"),
    "sweep_profile_runs_0": ("sweep", {"profile_runs": 0}, "field 'profile_runs' must be >= 1\n"),
    "sweep_profile_mu_1.5": ("sweep", {"profile_mu": 1.5}, "field 'profile_mu' must lie in [0, 1]\n"),
    "sweep_jobs": ("sweep", {"jobs": 2}, "unknown field(s) jobs; sweep takes rule_system, "),
    "train_fraction_1.5": ("train", {"train_fraction": 1.5}, "field 'train_fraction' must lie in (0, 1)\n"),
    "gridsearch_train_fraction_0": ("gridsearch", {"train_fraction": 0},
                                    "field 'train_fraction' must lie in (0, 1)\n"),
    "evaluate_taus_negative": ("evaluate", {"taus": [0.5, -1]}, "field 'taus' values must be >= 0\n"),
    "sweep_taus_negative": ("sweep", {"taus": [-1]}, "field 'taus' values must be >= 0\n"),
    "sweep_taus_empty": ("sweep", {"taus": []}, "field 'taus' must not be empty\n"),
    "sensitivity_thresholds_empty": ("sensitivity", {"thresholds": []},
                                     "field 'thresholds' must not be empty\n"),
    "sensitivity_thresholds_1": ("sensitivity", {"thresholds": [3, 1]},
                                 "field 'thresholds' values must be >= 2\n"),
    "train_high_threshold_1": ("train", {"high_threshold": 1}, "field 'high_threshold' must be >= 2\n"),
    "crossval_k_1": ("crossval", {"k": 1}, "field 'k' must be >= 2\n"),
    "sweep_k_1": ("sweep", {"auto_ml": True, "k": 1}, "field 'k' must be >= 2\n"),
    "decide_r0_negative": ("decide", {"r0": -1}, "field 'r0' must be >= 0\n"),
    # written as 1e999, a JSON number that reads as infinity
    "evaluate_taus_overflow": ("evaluate", {"taus": [0.5, float("inf")]},
                               "field 'taus' values must be finite\n"),
    "sweep_taus_overflow": ("sweep", {"taus": [float("inf")]}, "field 'taus' values must be finite\n"),
    "decide_r0_overflow": ("decide", {"r0": float("inf")}, "field 'r0' must be finite\n"),
    # an integer literal beyond the float range, which float() cannot convert
    "evaluate_taus_beyond_float": ("evaluate", {"taus": [BEYOND_FLOAT]},
                                   "field 'taus' values must be finite\n"),
}


def _argv(command, generated, curve, model=None):
    """A runnable command line for `command` on the generated corpus."""
    data = ["--data", str(generated / "cases.csv"), "--schema", str(generated / "schema.json")]
    if command == "generate":
        return ["generate"]
    if command == "decide":
        return ["decide", "--curve", str(curve)]
    if command == "evaluate":
        return ["evaluate", "--model", str(model), *data]
    return [command, *data]


# command: flags of a quick run, whose output directory the refused runs below reuse
QUICK_RUNS = {
    "generate": ["--n", "50"],
    "train": [],
    "evaluate": [],
    "gridsearch": ["--space", "nc-fine"],
    "crossval": ["--family", "nc", "--k", "3"],
    "sweep": ["--grid-size", "3", "--n-runs", "1", "--profile-runs", "2"],
    "decide": ["--r0", "0.1"],
    "sensitivity": ["--thresholds", "3"],
}


@pytest.fixture(scope="module")
def earlier_runs(generated, trained, tmp_path_factory):
    """command -> the output directory of its quick run."""
    root = tmp_path_factory.mktemp("earlier")
    curve = root / "resource.csv"
    curve.write_text(RESOURCE_CURVE)
    for command, flags in QUICK_RUNS.items():
        assert main(_argv(command, generated, curve, trained) + flags
                    + ["--out-dir", str(root / command)]) == 0
    return root


def _refused(argv, earlier_runs, tmp_path, capsys) -> str:
    """Run `argv` (no --out-dir) into a new directory and into a copy of an
    earlier run of its command; both must fail with one line and touch
    nothing. Returns the error line."""
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()
    reused = shutil.copytree(earlier_runs / argv[0], tmp_path / "reused")
    before = {p.name: p.read_bytes() for p in reused.iterdir()}
    assert main(argv + ["--out-dir", str(reused)]) == 1
    assert capsys.readouterr().err == err
    assert {p.name: p.read_bytes() for p in reused.iterdir()} == before
    return err


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_config_file_errors_are_oneline(generated, trained, earlier_runs, tmp_path, capsys, case):
    command, fields, message = CONFIG_ERRORS[case]
    config = tmp_path / "config.json"
    # json.dumps writes infinity as the constant Infinity, which read_json refuses
    config.write_text(json.dumps(fields).replace("Infinity", "1e999"))
    curve = tmp_path / "resource.csv"
    curve.write_text(RESOURCE_CURVE)
    argv = _argv(command, generated, curve, trained) + ["--config", str(config)]
    assert _refused(argv, earlier_runs, tmp_path, capsys).startswith(f"error: {config}: {message}")


def test_evaluate_takes_an_empty_tau_list(generated, trained, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"taus": []}))
    out = tmp_path / "eval"
    assert main(_argv("evaluate", generated, None, trained) + ["--config", str(config),
                                                               "--out-dir", str(out)]) == 0
    text = (out / "metrics.csv").read_text()
    assert "police_protection" in text and "police_resource" not in text
    assert json.loads((out / "manifest.json").read_text())["config"]["taus"] == []


# command: (flags, the same values as --config fields)
EQUIVALENT = {
    "train": (["--family", "tree", "--params", '{"max_depth": 3}', "--train-fraction", "0.5",
               "--split-seed", "2", "--seed", "4", "--high-threshold", "4"],
              {"family": "tree", "params": {"max_depth": 3}, "train_fraction": 0.5, "split_seed": 2,
               "seed": 4, "high_threshold": 4}),
    "crossval": (["--family", "knn", "--params", '{"k": 5}', "--k", "3", "--objective", "high_f1",
                  "--jobs", "2"],
                 {"family": "knn", "params": {"k": 5}, "k": 3, "objective": "high_f1", "jobs": 2}),
    "sweep": (["--rule-system", "lax", "--ml-family", "knn", "--ml-params", '{"k": 7}', "--grid-size", "5",
               "--n-runs", "2", "--tau", "0.5", "--tau", "2", "--profile-mu", "1", "--profile-runs", "3"],
              {"rule_system": "lax", "ml_family": "knn", "ml_params": {"k": 7}, "grid_size": 5, "n_runs": 2,
               "taus": [0.5, 2], "profile_mu": 1, "profile_runs": 3}),
    "sensitivity": (["--thresholds", "3,5", "--params", '{"metric": "manhattan", "shrink_threshold": null}'],
                    {"thresholds": [3, 5], "params": {"metric": "manhattan", "shrink_threshold": None}}),
    "decide": (["--r0", "1", "--monotone"], {"r0": 1, "monotone": True}),
}


@pytest.mark.parametrize("command", EQUIVALENT)
def test_flags_and_config_file_give_the_same_run(generated, tmp_path, command):
    flags, fields = EQUIVALENT[command]
    curve = tmp_path / "resource.csv"
    curve.write_text(RESOURCE_CURVE)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fields))
    by_flags, by_file = tmp_path / "flags", tmp_path / "file"
    argv = _argv(command, generated, curve)
    assert main(argv + flags + ["--out-dir", str(by_flags)]) == 0
    assert main(argv + ["--config", str(config), "--out-dir", str(by_file)]) == 0
    names = sorted(p.name for p in by_flags.iterdir())
    assert names == sorted(p.name for p in by_file.iterdir())
    for name in names:
        assert (by_file / name).read_bytes() == (by_flags / name).read_bytes(), name
    recorded = json.loads((by_flags / "manifest.json").read_text())["config"]
    assert {key: recorded[key] for key in fields} == fields  # the values took effect


def _tree(feature, left, right):
    """Tree model state over the 250 demo columns with the given node links."""
    n = len(feature)
    return {"feature": feature, "threshold": [0.5] * n, "left": left, "right": right,
            "counts": [[1, 1, 0]] * n, "n_features": 250, "criterion": "gini",
            "splitter": "best", "max_depth": None}


def _forest(**fields):
    """Forest model state of one single-leaf member, with some fields replaced."""
    return {"trees": [_tree([-1], [-1], [-1])], "n_features": 250, "criterion": "gini",
            "max_depth": None, "seed": 0, "bootstrap": True, **fields}


def _model(family, state):
    return json.dumps({"format": "recidrisk-model", "version": 1, "family": family, "state": state})


def _trained(family, params, **fields):
    """A model of `family` trained on the generated corpus, with some state fields
    replaced, as file text."""
    def text(gen):
        out = gen.parent / f"trained_{family}"
        if not (out / "model.json").exists():
            assert main(["train", "--data", str(gen / "cases.csv"), "--schema",
                         str(gen / "schema.json"), "--family", family, "--params",
                         json.dumps(params), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "model.json").read_text())
        payload["state"].update(fields)
        return json.dumps(payload)
    return text


def _nc(**fields):
    return _trained("nc", {"metric": "minkowski", "p": 3}, **fields)


def _knn(**fields):
    return _trained("knn", {"k": 5}, **fields)


def _derived(model, fields):
    """A trained model's file text (`model`, a function of the corpus directory)
    with the state fields that `fields(state)` returns replaced."""
    def text(gen):
        payload = json.loads(model(gen))
        payload["state"].update(fields(payload["state"]))
        return json.dumps(payload)
    return text


def _knn_rows(rows):
    """The trained kNN model with the active columns of its first rows replaced."""
    return _derived(_knn(), lambda state: {"train_values": {
        **state["train_values"], "rows": rows + state["train_values"]["rows"][len(rows):]}})


def _nc_literal(key, literal):
    """A shrunken NC model over the 250 demo columns, as file text, with one
    state field written as the JSON literal given."""
    zeros = [[0.0] * 250] * 3
    state = {"classes": [0, 1, 2], "centroids": zeros, "overall_centroid": [0.0] * 250,
             "s": [1.0] * 250, "s0": 0.5, "offsets": zeros, "shrunken_centroids": zeros,
             "metric": "minkowski", "p": 2.0, "shrink_threshold": 0.5, key: "<literal>"}
    return _model("nc", state).replace('"<literal>"', literal)


def _one_profile(**fields):
    """A one-profile generator config over one two-option question, with some
    profile fields replaced, as file text."""
    profile = {"name": "only", "weight": 1.0, "recidivism_rate": 0.5,
               "response_dists": {"q1": [0.5, 0.5]}, **fields}
    return json.dumps({"n_cases": 50, "schema": {"questions": [{"id": "q1", "options": ["A", "B"]}]},
                       "profiles": [profile]})


def _generator_config(**fields):
    """The generated corpus's generator config with some fields replaced, as file text."""
    return lambda gen: json.dumps({**json.loads((gen / "generator_config.json").read_text()),
                                   **fields})


def _schema(edit):
    """The generated corpus's schema file after `edit(payload)`, as file text."""
    def text(gen):
        payload = json.loads((gen / "schema.json").read_text())
        edit(payload)
        return json.dumps(payload)
    return text


# name: (command, input file text, or a function of the generated corpus
# directory, or None for a missing file; the line the error must name, or the
# message that must follow the path)
BAD_INPUTS = {
    "missing_file": ("evaluate", None, None),
    "empty_curve": ("decide", "", 1),
    "header_only_curve": ("decide", "# manifest: manifest.json\n" + CURVE_HEADER, 3),
    "short_curve_row": ("decide", CURVE_HEADER + "0.0,0.1,0.0,0.1,0.1,police_resource,0.5,3\n"
                        "1.0,0.2\n", 3),
    "curve_n_runs_underscore": ("decide", RESOURCE_CURVE.replace(",3\n", ",1_0\n"), 2),
    "curve_n_runs_negative": ("decide", RESOURCE_CURVE.replace(",3\n", ",-5\n"), 2),
    "curve_tau_nan": ("decide", RESOURCE_CURVE.replace(",0.5,", ",nan,"), 2),
    "curve_tau_inf": ("decide", RESOURCE_CURVE.replace(",0.5,", ",inf,"), 2),
    "truncated_model": ("evaluate", '{"format": "recidrisk-model",\n "version": 1,', 2),
    "model_without_state": ("evaluate", '{"format": "recidrisk-model", "version": 1, "family": "nc"}',
                            "missing field 'state'"),
    "model_state_not_object": ("evaluate", '{"format": "recidrisk-model", "version": 1, '
                               '"family": "tree", "state": [1]}', "field of the wrong type"),
    # 900 cases follow the manifest comment and the header
    "blank_line_in_cases": ("train", lambda gen: (gen / "cases.csv").read_text() + "\n", 903),
    "truncated_schema": ("train_schema", '{"questions": [\n', 2),
    "schema_without_questions": ("train_schema", '{"manifest": "manifest.json"}\n',
                                 "missing field 'questions'"),
    "schema_question_without_options": ("train_schema", '{"questions": [{"id": "q1"}]}',
                                        "missing field 'options'"),
    "schema_with_no_questions": ("train_schema", '{"questions": []}',
                                 "field 'questions' must not be empty"),
    "truncated_command_config": ("train_config", '{"family": "nc",\n', 2),
    "command_config_not_object": ("train_config", "[1, 2]\n", "expected a JSON object"),
    "truncated_generator_config": ("generate_config", '{"n_cases": 50,\n', 2),
    "generator_config_without_schema": ("generate_config", '{"n_cases": 50}',
                                        "missing field 'schema'"),
    "truncated_rule_system": ("sweep_rule", '{"name": "mine",\n', 2),
    "rule_system_without_mapping": ("sweep_rule", '{"name": "mine"}', "missing field 'mapping'"),
    "rule_system_bad_label": ("sweep_rule", '{"name": "mine", "mapping": [0, 1, 2, 2, 7]}',
                              "7 is not a valid RiskLabel"),
    "rule_system_bool_label": ("sweep_rule", '{"name": "x", "mapping": [true, 1, 1, 2, 2]}',
                               "field 'mapping' must be list[int]"),
    "rule_system_float_label": ("sweep_rule", '{"name": "x", "mapping": [0, 1, 1.5, 2, 2]}',
                                "field 'mapping' must be list[int]"),
    "rule_system_mapping_string": ("sweep_rule", '{"name": "x", "mapping": "00122"}',
                                   "field 'mapping' must be list[int]"),
    "rule_system_name_number": ("sweep_rule", '{"name": 5, "mapping": [0, 1, 1, 2, 2]}',
                                "field 'name' must be str"),
    "generator_config_n_cases_bool": ("generate_config", _generator_config(n_cases=True),
                                      "field 'n_cases' must be int"),
    "generator_config_n_cases_float": ("generate_config", _generator_config(n_cases=50.0),
                                       "field 'n_cases' must be int"),
    "generator_config_seed_bool": ("generate_config", _generator_config(seed=True),
                                   "field 'seed' must be int"),
    "generator_config_missing_rate_string": ("generate_config", _generator_config(missing_rate="0.1"),
                                             "field 'missing_rate' must be float"),
    "generator_config_dispersion_bool": ("generate_config", _generator_config(dispersion=True),
                                         "field 'dispersion' must be float | None"),
    "generator_config_with_no_questions": ("generate_config", _generator_config(schema={"questions": []}),
                                           "field 'questions' must not be empty"),
    "generator_config_dispersion_overflow": (
        "generate_config",
        lambda gen: _generator_config(dispersion=2.0)(gen).replace('"dispersion": 2.0', '"dispersion": 1e999'),
        "dispersion must be positive and finite when set"),
    "tree_child_outside_arrays": ("evaluate", _model("tree", _tree([0], [5], [5])),
                                  "tree node 0: children must lie after the node and before 1"),
    "forest_member_feature_out_of_range": (
        "evaluate", _model("forest", {"trees": [_tree([250, -1, -1], [1, -1, -1], [2, -1, -1])],
                                      "n_features": 250, "criterion": "gini", "max_depth": None,
                                      "seed": 0, "bootstrap": True}),
        "tree node 0: feature must lie in [-1, 250)"),
    "tree_max_depth_string": ("evaluate", _model("tree", {**_tree([-1], [-1], [-1]), "max_depth": "1"}),
                              "field 'max_depth' must be int | None"),
    "tree_max_depth_zero": ("evaluate", _model("tree", {**_tree([-1], [-1], [-1]), "max_depth": 0}),
                            "max_depth must be a positive integer or None"),
    "tree_n_features_float": ("evaluate", _model("tree", {**_tree([-1], [-1], [-1]), "n_features": 250.0}),
                              "field 'n_features' must be int"),
    "tree_criterion_unknown": ("evaluate", _model("tree", {**_tree([-1], [-1], [-1]), "criterion": "mse"}),
                               "criterion must be one of ('entropy', 'gini')"),
    "tree_splitter_number": ("evaluate", _model("tree", {**_tree([-1], [-1], [-1]), "splitter": 1}),
                             "field 'splitter' must be str"),
    "forest_bootstrap_string": ("evaluate", _model("forest", _forest(bootstrap="no")),
                                "field 'bootstrap' must be bool"),
    "forest_seed_string": ("evaluate", _model("forest", _forest(seed="x")), "field 'seed' must be int"),
    "forest_seed_bool": ("evaluate", _model("forest", _forest(seed=False)), "field 'seed' must be int"),
    "forest_max_depth_zero": ("evaluate", _model("forest", _forest(max_depth=0)),
                              "max_depth must be a positive integer or None"),
    "forest_trees_object": ("evaluate", _model("forest", _forest(trees={})), "field 'trees' must be list"),
    "forest_without_trees": ("evaluate", _model("forest", _forest(trees=[])),
                             "n_estimators must be >= 1"),
    "forest_member_max_depth_string": (
        "evaluate", _model("forest", _forest(trees=[{**_tree([-1], [-1], [-1]), "max_depth": "1"}])),
        "field 'max_depth' must be int | None"),
    # a rule-system model file goes through the rule-system file check
    "rule_system_model_bool_label": ("evaluate", _model("rule_system", {
        "name": "x", "mapping": [0, 0, 1, True, 2]}), "field 'mapping' must be list[int]"),
    "rule_system_model_float_label": ("evaluate", _model("rule_system", {
        "name": "x", "mapping": [0, 0, 1.0, 1, 2]}), "field 'mapping' must be list[int]"),
    "rule_system_model_name_number": ("evaluate", _model("rule_system", {
        "name": 7, "mapping": [0, 0, 1, 1, 2]}), "field 'name' must be str"),
    "nc_metric_unknown": ("evaluate", _nc(metric="chebyshev", p=2),
                          "metric must be one of ('euclidean', 'manhattan', 'minkowski')"),
    "nc_p_below_one": ("evaluate", _nc(p=0.5), "minkowski order p must be >= 1"),
    "nc_shrink_negative": ("evaluate", _nc(shrink_threshold=-1),
                           "shrink_threshold must be >= 0 or None"),
    "nc_p_string": ("evaluate", _nc(p="3"), "field 'p' must be float"),
    "nc_p_overflow": ("evaluate", _nc_literal("p", "1e999"), "field 'p' must be finite"),
    "nc_shrink_threshold_overflow": ("evaluate", _nc_literal("shrink_threshold", "1e999"),
                                     "field 'shrink_threshold' must be finite"),
    "nc_centroid_beyond_float": ("evaluate", _derived(_nc(), lambda state: {
        "centroids": [[BEYOND_FLOAT, *state["centroids"][0][1:]], *state["centroids"][1:]]}),
        "field 'centroids' must hold finite numbers"),
    "nc_s0_beyond_float": ("evaluate", _nc_literal("s0", str(BEYOND_FLOAT)), "field 's0' must be finite"),
    # past Python's int digit limit json.load raises a plain ValueError; without
    # the limit (Pythons before it) the value fails as beyond the float range
    "nc_p_of_5001_digits": ("evaluate", _nc_literal("p", "1" + "0" * 5000), ""),
    "knn_k_zero": ("evaluate", _knn(k=0), "k must satisfy 1 <= k <= "),
    "knn_k_float": ("evaluate", _knn(k=5.5), "field 'k' must be int"),
    "knn_k_bool": ("evaluate", _knn(k=True), "field 'k' must be int"),
    "knn_encoding_unknown": ("evaluate", lambda gen: _knn()(gen).replace('"active-columns"', '"sparse"'),
                             "field 'encoding' must be one of ('active-columns', 'dense')"),
    "knn_width_bool": ("evaluate", lambda gen: _knn()(gen).replace('"width": 250', '"width": true'),
                       "field 'width' must be int"),
    "knn_label_float": ("evaluate", _derived(_knn(), lambda state: {
        "train_labels": [1.5, *state["train_labels"][1:]]}), "field 'train_labels' must be list[int]"),
    "knn_label_7": ("evaluate", _derived(_knn(), lambda state: {
        "train_labels": [7, *state["train_labels"][1:]]}),
        "field 'train_labels': label 7 is outside 0..2"),
    "knn_fewer_labels_than_rows": ("evaluate", _derived(_knn(), lambda state: {
        "train_labels": state["train_labels"][:-1]}), "field 'train_labels' holds "),
    "knn_active_column_negative": ("evaluate", _knn_rows([[-1]]),
                                   "field 'rows': active columns must lie in [0, 250)"),
    "knn_active_column_past_width": ("evaluate", _knn_rows([[3], [250]]),
                                     "field 'rows': active columns must lie in [0, 250)"),
    "knn_active_column_beyond_int64": ("evaluate", _knn_rows([[2**70]]),
                                       "field 'rows': active columns must lie in [0, 250)"),
    "knn_active_column_float": ("evaluate", _knn_rows([[3.0]]), "field 'rows' must be list[list[int]]"),
    "knn_active_column_nested": ("evaluate", _knn_rows([[[3]]]), "field 'rows' must be list[list[int]]"),
    "knn_active_column_bool": ("evaluate", _knn_rows([[True]]), "field 'rows' must be list[list[int]]"),
    "knn_active_row_not_a_list": ("evaluate", _knn_rows([3]), "field 'rows' must be list[list[int]]"),
    "knn_dense_row_short": ("evaluate", _model("knn", {
        "k": 1, "train_labels": [0, 1],
        "train_values": {"encoding": "dense", "width": 2, "rows": [[0.0, 1.0], [1.0]]}}),
        "field 'rows' must have shape (2, 2)"),
    "nc_centroids_two_rows": ("evaluate", _derived(_nc(), lambda state: {
        "centroids": state["centroids"][:2]}), "field 'centroids' must have shape (3, 250)"),
    "nc_overall_centroid_cut": ("evaluate", _derived(_nc(), lambda state: {
        "overall_centroid": state["overall_centroid"][:-1]}),
        "field 'overall_centroid' must have shape (250,)"),
    "nc_shrinkage_without_arrays": ("evaluate", _nc(shrink_threshold=1.0), "field 's0' must be float"),
    "nc_arrays_without_shrinkage": ("evaluate", _nc(s0=1.0), "field 's0' must be null without a "),
    "nc_class_7": ("evaluate", _nc(classes=[0, 1, 7]), "field 'classes': label 7 is outside 0..2"),
    "nc_class_beyond_int64": ("evaluate", _nc(classes=[0, 1, 2**70]),
                              f"field 'classes': label {2**70} is outside 0..2"),
    "model_of_another_width": ("evaluate", _model("nc", {
        "classes": [0, 1, 2], "centroids": [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
        "overall_centroid": [0.5, 0.5], "s": None, "s0": None, "offsets": None,
        "shrunken_centroids": None, "metric": "euclidean", "p": 2, "shrink_threshold": None}),
        "expected width 2"),
    "nc_classes_descending": ("evaluate", _nc(classes=[2, 1, 0]),
                              "field 'classes' must hold distinct labels in ascending order"),
    "profile_weight_bool": ("generate_config", _one_profile(weight=True),
                            "profile 'only': field 'weight' must be float"),
    "profile_recidivism_rate_bool": ("generate_config", _one_profile(recidivism_rate=True),
                                     "profile 'only': field 'recidivism_rate' must be float"),
    "profile_name_number": ("generate_config", _one_profile(name=5),
                            "profile 1: field 'name' must be str"),
    "profile_dist_bools": ("generate_config", _one_profile(response_dists={"q1": [True, False]}),
                           "profile 'only', question 'q1': field 'response_dists' must be list[float]"),
    # an empty cell means no answer, so an empty option could not be told from one
    "generator_config_empty_option": (
        "generate_config", _one_profile().replace('["A", "B"]', '["", "B"]'),
        "question 'q1': an option must not be empty"),
    "schema_empty_option": ("train_schema", '{"questions": [{"id": "q1", "options": ["", "B"]}]}',
                            "question 'q1': an option must not be empty"),
    "schema_options_string": ("train_schema", '{"questions": [{"id": "q1", "options": "AB"}]}',
                              "question 'q1': field 'options' must be a list of strings"),
    "schema_allows_missing_string": (
        "train_schema", '{"questions": [{"id": "q1", "options": ["A", "B"], "allows_missing": "no"}]}',
        "question 'q1': field 'allows_missing' must be true or false"),
    "schema_id_number": ("train_schema", '{"questions": [{"id": 7, "options": ["A", "B"]}]}',
                         "question 1: field 'id' must be a string"),
    # a misspelt field would otherwise read as absent and take its default
    "schema_unknown_field": ("train_schema", _schema(lambda payload: payload.update(question=[])),
                             "unknown field(s) question; a schema takes questions, manifest"),
    "schema_question_unknown_field": (
        "train_schema", _schema(lambda payload: payload["questions"][0].update(allows_mising=False)),
        "unknown field(s) allows_mising; question 'q01' takes id, options, allows_missing"),
    "generator_config_unknown_field": ("generate_config", _generator_config(missing_rat=0.5),
                                       "unknown field(s) missing_rat; a generator config takes "),
    "generator_config_question_unknown_field": (
        "generate_config", _one_profile().replace('"id": "q1"', '"id": "q1", "allow_missing": true'),
        "unknown field(s) allow_missing; question 'q1' takes "),
    "profile_unknown_field": ("generate_config", _one_profile(rate=0.5),
                              "unknown field(s) rate; profile 'only' takes name, weight, "),
    "profile_dist_of_unknown_question": (
        "generate_config", _one_profile(response_dists={"q1": [0.5, 0.5], "q99": [1.0]}),
        "profile 'only': response_dists names no question of the schema: q99"),
    "tree_count_negative": ("evaluate", _model("tree", {**_tree([-1], [-1], [-1]),
                                                        "counts": [[-5, 0, 0]]}),
                            "tree node 0: counts must not be negative"),
    "forest_member_counts_all_zero": (
        "evaluate", _model("forest", _forest(trees=[{**_tree([-1], [-1], [-1]),
                                                    "counts": [[0, 0, 0]]}])),
        "tree node 0: counts must not all be 0"),
    "protection_curve_of_resource": ("decide_protection", RESOURCE_CURVE,
                                     "holds a police_resource curve, --protection-curve needs a "
                                     "police_protection curve"),
    "protection_curve_other_grid": ("decide_protection",
                                    CURVE_HEADER + "0.0,0.5,0.0,0.5,0.5,police_protection,,3\n"
                                    "0.5,0.6,0.0,0.6,0.6,police_protection,,3\n"
                                    "1.0,0.7,0.0,0.7,0.7,police_protection,,3\n",
                                    "its mu grid differs from "),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_missing_file_is_oneline_error(generated, tmp_path, capsys, case):
    command, text, where = BAD_INPUTS[case]
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text(generated) if callable(text) else text)
    resource_curve = tmp_path / "resource.csv"
    resource_curve.write_text(RESOURCE_CURVE)
    cases = ["--data", str(generated / "cases.csv")]
    schema = ["--schema", str(generated / "schema.json")]
    argv = {
        "evaluate": ["evaluate", "--model", str(path), *cases, *schema],
        "decide": ["decide", "--curve", str(path), "--r0", "0.1"],
        "decide_protection": ["decide", "--curve", str(resource_curve), "--r0", "0.1",
                              "--protection-curve", str(path)],
        "train": ["train", "--data", str(path), *schema],
        "train_schema": ["train", *cases, "--schema", str(path)],
        "train_config": ["train", *cases, *schema, "--config", str(path)],
        "generate_config": ["generate", "--config", str(path)],
        "sweep_rule": ["sweep", *cases, *schema, "--rule-system", str(path),
                       "--grid-size", "3", "--n-runs", "1"],
    }[command]
    code = main(argv + ["--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    if isinstance(where, int):
        assert err.startswith(f"error: {path}:{where}: ")
    elif where is not None:
        assert err.startswith(f"error: {path}: {where}")


@pytest.mark.parametrize("argv, status", [
    (["generate", "--n", "0"], "1"),
    (["generate", "--config", "{config}", "--separation", "0.9"], "1"),
    (["generate", "--jobs", "2"], "2"),
    (["evaluate", "--model", "m.json", "--data", "c.csv", "--schema", "s.json", "--jobs", "2"], "2"),
    (["decide", "--curve", "c.csv", "--r0", "0.1", "--jobs", "2"], "2"),
    (["train", "--data", "c.csv", "--schema", "s.json", "--jobs", "2"], "2"),
    (["sensitivity", "--data", "c.csv", "--schema", "s.json", "--jobs", "2"], "2"),
    (["sweep", "--data", "c.csv", "--schema", "s.json", "--jobs", "2"], "2"),
    (["generate", "--demo"], "2"),
    (["sensitivity", "--data", "c.csv", "--schema", "s.json", "--high-threshold", "4"], "2"),
], ids=["generate_n_0", "separation_with_config", "generate_jobs", "evaluate_jobs", "decide_jobs",
        "train_jobs", "sensitivity_jobs", "sweep_jobs", "generate_demo", "sensitivity_high_threshold"])
def test_rejected_flags_write_nothing(tmp_path, argv, status):
    config_path = tmp_path / "generator.json"
    write_config(config_path, demo_config(n_cases=50, seed=1))
    out = tmp_path / "out"
    argv = [str(config_path) if arg == "{config}" else arg for arg in argv]
    try:
        code = main(argv + ["--out-dir", str(out)])
    except SystemExit as exc:  # argparse exits 2 on an unknown flag
        code = exc.code
    assert str(code).startswith(status)
    assert not (out / "cases.csv").exists()


def _sweep_argv(generated, out, *flags):
    return ["sweep", "--data", str(generated / "cases.csv"), "--schema", str(generated / "schema.json"),
            "--grid-size", "3", "--n-runs", "1", "--profile-runs", "2", *flags, "--out-dir", str(out)]


@pytest.mark.parametrize("first, second", [("0.5", "0.5"), ("0.1", "0.1000001")])
def test_colliding_tau_flags_are_refused(generated, tmp_path, capsys, first, second):
    out = tmp_path / "sweep"
    assert main(_sweep_argv(generated, out, "--tau", first, "--tau", second)) == 1
    assert capsys.readouterr().err == (f"error: --tau holds {float(first)!r} and {float(second)!r}, "
                                       f"which share the output name tau{float(first):g}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--grid-size", "1", "must be >= 2"),
    ("--n-runs", "0", "must be >= 1"),
    ("--profile-runs", "0", "must be >= 1"),
    ("--profile-mu", "1.5", "must lie in [0, 1]"),
])
def test_out_of_range_sweep_flags_are_refused(generated, earlier_runs, tmp_path, capsys, flag, value,
                                              message):
    argv = _argv("sweep", generated, None) + [flag, value]
    assert _refused(argv, earlier_runs, tmp_path, capsys) == f"error: {flag} {message}\n"


@pytest.mark.parametrize("command, flags, message", [
    ("sweep", ["--tau", "-1"], "--tau values must be >= 0\n"),
    ("sweep", ["--auto-ml", "--k", "1"], "--k must be >= 2\n"),
    ("evaluate", ["--tau", "0.5", "--tau", "-1"], "--tau values must be >= 0\n"),
    ("crossval", ["--k", "1"], "--k must be >= 2\n"),
    # 900 cases, 603 in the train part
    ("crossval", ["--k", "5000"], "k must satisfy 2 <= k <= 603, got 5000\n"),
    ("train", ["--family", "knn", "--params", '{"k": 5000}'], "k must satisfy 1 <= k <= 603, got 5000\n"),
    ("train", ["--train-fraction", "1.5"], "--train-fraction must lie in (0, 1)\n"),
    ("gridsearch", ["--train-fraction", "0"], "--train-fraction must lie in (0, 1)\n"),
    ("sensitivity", ["--train-fraction", "1"], "--train-fraction must lie in (0, 1)\n"),
    ("train", ["--high-threshold", "1"], "--high-threshold must be >= 2\n"),
    ("sensitivity", ["--thresholds", "1"], "--thresholds values must be >= 2\n"),
    ("sensitivity", ["--thresholds", "4,1"], "--thresholds values must be >= 2\n"),
    ("decide", ["--r0", "-1"], "--r0 must be >= 0\n"),
    ("evaluate", ["--tau", "inf"], "--tau values must be finite\n"),
    ("sweep", ["--tau", "0.5", "--tau", "nan"], "--tau values must be finite\n"),
    ("decide", ["--r0", "nan"], "--r0 must be finite\n"),
    ("decide", ["--r0", "inf"], "--r0 must be finite\n"),
    # argparse's json.loads reads Infinity and NaN; the reused directory holds an
    # earlier train run, which must come through byte for byte
    ("train", ["--params", '{"metric": "minkowski", "p": Infinity}'],
     "nc [metric=minkowski, p=inf]: parameter 'p' must be finite\n"),
    ("sweep", ["--ml-params", '{"metric": "minkowski", "p": NaN}'],
     "nc [metric=minkowski, p=nan]: parameter 'p' must be finite\n"),
    ("crossval", ["--params", '{"p": 3}'], "crossval takes params only with a family, not with a space\n"),
    ("gridsearch", ["--jobs", "-3"], "--jobs must be >= 1\n"),
    ("crossval", ["--jobs", "0"], "--jobs must be >= 1\n"),
    ("generate", ["--n", "0"], "--n must be >= 1\n"),
    ("generate", ["--separation", "2"], "--separation must lie in [0, 1]\n"),
], ids=["sweep_tau_negative", "sweep_auto_ml_k_1", "evaluate_tau_negative", "crossval_k_1",
        "crossval_k_above_rows", "train_knn_k_above_rows", "train_fraction_1.5",
        "gridsearch_train_fraction_0", "sensitivity_train_fraction_1", "train_high_threshold_1",
        "sensitivity_threshold_1", "sensitivity_thresholds_4_1", "decide_r0_negative",
        "evaluate_tau_inf", "sweep_tau_nan", "decide_r0_nan", "decide_r0_inf", "train_p_infinity",
        "sweep_ml_p_nan", "crossval_params_without_family", "gridsearch_jobs_negative",
        "crossval_jobs_0", "generate_n_0", "generate_separation_2"])
def test_out_of_range_flags_are_refused(generated, trained, earlier_runs, tmp_path, capsys, command,
                                        flags, message):
    curve = tmp_path / "resource.csv"
    curve.write_text(RESOURCE_CURVE)
    argv = _argv(command, generated, curve, trained) + flags
    assert _refused(argv, earlier_runs, tmp_path, capsys) == f"error: {message}"


def test_resource_curve_does_not_depend_on_the_other_taus(generated, tmp_path):
    curves = []
    for taus in (["2"], ["0.5", "2"]):
        out = tmp_path / "_".join(taus)
        argv = _sweep_argv(generated, out, "--grid-size", "9", "--n-runs", "25",
                           *(arg for tau in taus for arg in ("--tau", tau)))
        assert main(argv) == 0
        curves.append((out / "resource_sweep_tau2.csv").read_bytes())
        assert "jobs" not in json.loads((out / "manifest.json").read_text())["config"]
    assert curves[0] == curves[1]


# command: (flags of a second run into its quick run's directory, a file of the
# quick run that the second run does not write, or None)
SECOND_RUNS = {
    "generate": (["--n", "50", "--no-viogen"], "viogen.json"),
    "train": (["--family", "knn", "--params", '{"k": 3}'], None),
    "evaluate": (["--tau", "2"], None),
    "gridsearch": (["--space", "nc-fine", "--no-baseline"], None),
    "crossval": (["--family", "nc", "--k", "4"], None),
    "sweep": (QUICK_RUNS["sweep"] + ["--tau", "0.5"], "resource_sweep_tau5.csv"),
    "decide": (["--r0", "0.15", "--monotone"], None),
    "sensitivity": (["--thresholds", "4"], None),
}


@pytest.mark.parametrize("command", SECOND_RUNS)
def test_reused_out_dir_holds_only_the_new_runs_files(generated, trained, earlier_runs, tmp_path,
                                                      command):
    flags, dropped = SECOND_RUNS[command]
    out = shutil.copytree(earlier_runs / command, tmp_path / command)
    curve = tmp_path / "resource.csv"
    curve.write_text(RESOURCE_CURVE)
    assert main(_argv(command, generated, curve, trained) + flags + ["--out-dir", str(out)]) == 0
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(p.name for p in out.iterdir()) == sorted(listed + ["manifest.json"])
    if dropped is not None:
        assert (earlier_runs / command / dropped).exists() and dropped not in listed


def test_out_dir_of_another_command_is_refused(generated, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(_sweep_argv(generated, out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    code = main(["train", "--data", str(generated / "cases.csv"),
                 "--schema", str(generated / "schema.json"), "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {out / 'manifest.json'}: holds a sweep run\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("name", ["../cases.csv", "sub/x.csv", "", "..", "nested"])
def test_manifest_output_outside_its_directory_deletes_nothing(generated, tmp_path, capsys, name):
    out = tmp_path / "sweep"
    assert main(_sweep_argv(generated, out)) == 0
    (out / "nested").mkdir()
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"] = ["protection_sweep.csv", name]
    (out / "manifest.json").write_text(json.dumps(manifest))
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert main(_sweep_argv(generated, out)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out / 'manifest.json'}: output {name!r} is not a file name in {out}\n"
    assert sorted(p.name for p in out.iterdir()) == before


def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "recidrisk.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for command in ("generate", "gridsearch", "sweep", "decide", "sensitivity"):
        assert command in proc.stdout


@pytest.mark.parametrize("command, family, params, message", [
    ("crossval", "tree", {"maxdepth": 5}, "tree [maxdepth=5]: unknown parameter(s) maxdepth; "
                                          "tree takes criterion, splitter, max_depth"),
    ("crossval", "knn", {"k": 0}, "knn [k=0]: k must satisfy 1 <= k <= "),
    ("crossval", "forest", {"n_estimators": 0}, "forest [n_estimators=0]: n_estimators must be >= 1"),
    ("train", "forest", {"n_estimator": 5}, "forest [n_estimator=5]: unknown parameter(s) n_estimator"),
    ("train", "knn", {}, "knn []: missing parameter(s) k"),
    ("crossval", "knn", {"k": "5"}, "knn [k=5]: parameter 'k' must be int\n"),
    ("crossval", "knn", {"k": True}, "knn [k=True]: parameter 'k' must be int\n"),
    ("train", "tree", {"max_depth": 2.5}, "tree [max_depth=2.5]: parameter 'max_depth' must be int | None\n"),
    ("train", "forest", {"bootstrap": "no"}, "forest [bootstrap=no]: parameter 'bootstrap' must be bool\n"),
    ("crossval", "nc", {"metric": "minkowski", "p": float("inf")},
     "nc [metric=minkowski, p=inf]: parameter 'p' must be finite\n"),
    ("crossval", "nc", {"shrink_threshold": float("nan")},
     "nc [shrink_threshold=nan]: parameter 'shrink_threshold' must be finite\n"),
    ("train", "nc", {"metric": "minkowski", "p": BEYOND_FLOAT},
     f"nc [metric=minkowski, p={BEYOND_FLOAT}]: parameter 'p' must be finite\n"),
], ids=["crossval_misspelt", "crossval_k_0", "crossval_no_trees", "train_misspelt", "train_no_k",
        "crossval_k_string", "crossval_k_bool", "train_depth_float", "train_bootstrap_string",
        "crossval_p_inf", "crossval_shrink_threshold_nan", "train_p_beyond_float"])
def test_bad_model_params_are_oneline_errors(generated, tmp_path, capsys, command, family, params,
                                             message):
    argv = [command, "--data", str(generated / "cases.csv"), "--schema", str(generated / "schema.json"),
            "--family", family, "--params", json.dumps(params), "--out-dir", str(tmp_path)]
    code = main(argv + (["--k", "3"] if command == "crossval" else []))
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {message}")


# A schema with a question that needs an answer (q1), one whose options the
# csv layer must quote (q2), and one that may go unanswered (q3).
TWO_LINES = "two\nlines"
DEFECT_SCHEMA = QuestionnaireSchema((
    Question("q1", ("no", "yes"), allows_missing=False),
    Question("q2", ("a,b", 'say "x"', TWO_LINES)),
    Question("q3", ("0", "1", "2")),
))


def _set(row: int, column: str, value: str):
    def defect(header, rows):
        rows[row][header.index(column)] = value
        return row
    return defect


def _drop_column(column: str):
    def defect(header, rows):
        j = header.index(column)
        for cells in [header, *rows]:
            del cells[j]
        return "header"
    return defect


def _add_column(column: str):
    def defect(header, rows):
        header.append(column)
        for cells in rows:
            cells.append("1")
        return "header"
    return defect


def _duplicate_id(header, rows):
    rows[7][0] = rows[2][0]
    return 7


def _short_row(header, rows):
    del rows[9][-1]
    return 9


# name: defect(header, rows) -> the data row index it broke, or "header"
CASE_FILE_DEFECTS = {
    "bad_option": _set(6, "q3", "maybe"),
    "bad_option_after_a_two_line_cell": _set(6, "q3", "maybe"),
    "blank_where_missing_not_allowed": _set(5, "q1", ""),
    "header_lacks_a_needed_question": _drop_column("q1"),
    "unknown_question_column": _add_column("qXX"),
    "non_integer_count": _set(4, "recidivism_count", "two"),
    "negative_count": _set(8, "recidivism_count", "-1"),
    "count_with_underscore": _set(9, "recidivism_count", "1_0"),
    "score_with_space": _set(7, "viogen_score", " 2"),
    "score_of_5": _set(3, "viogen_score", "5"),
    "duplicate_case_id": _duplicate_id,
    "short_row": _short_row,
}


@pytest.mark.parametrize("case, command", [
    *(pytest.param(case, "train", id=case) for case in CASE_FILE_DEFECTS),
    *(pytest.param(case, "sensitivity", id=f"{case}-sensitivity") for case in CASE_FILE_DEFECTS),
])
def test_case_file_defects_name_their_line(tmp_path, capsys, case, command):
    records = [CaseRecord(f"case-{i}", {"q1": ("no", "yes")[i % 2], "q2": ("a,b", 'say "x"')[i % 2],
                                        "q3": (None, "0", "2")[i % 3]}, i % 4, i % 5)
               for i in range(12)]
    if case == "bad_option_after_a_two_line_cell":
        records[4] = CaseRecord("case-4", {**records[4].responses, "q2": TWO_LINES}, 0, 0)
    schema_path, path = tmp_path / "schema.json", tmp_path / "cases.csv"
    write_schema(schema_path, DEFECT_SCHEMA)
    write_cases(path, records, DEFECT_SCHEMA, manifest="manifest.json")
    with open(path, newline="") as fh:
        comment, header, *rows = csv.reader(fh)
    where = CASE_FILE_DEFECTS[case](header, rows)
    with open(path, "w", newline="") as fh:
        fh.write(comment[0] + "\n")
        csv.writer(fh).writerows([header, *rows])
    # the line that ends the broken row, counted by the csv module itself
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        ends = [reader.line_num for _ in reader]
    line = ends[1] if where == "header" else ends[2 + where]
    if case == "bad_option_after_a_two_line_cell":
        assert line == 2 + where + 2  # the comment, the header, the rows and the cell's line break

    out = tmp_path / "out"
    assert main([command, "--data", str(path), "--schema", str(schema_path), "--family", "nc",
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {path}:{line}: ")
    assert not out.exists()
