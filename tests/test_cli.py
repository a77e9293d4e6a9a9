"""CLI pipeline: each subcommand end to end on a small corpus."""

import json
import subprocess
import sys

import pytest

from recidrisk.cli import main
from recidrisk.hybrid import read_sweep
from recidrisk.synthgen import demo_config, write_config


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
}


def _argv(command, generated, curve, model=None):
    """A runnable command line for `command` on the generated corpus."""
    data = ["--data", str(generated / "cases.csv"), "--schema", str(generated / "schema.json")]
    if command == "decide":
        return ["decide", "--curve", str(curve)]
    if command == "evaluate":
        return ["evaluate", "--model", str(model), *data]
    return [command, *data]


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_config_file_errors_are_oneline(generated, trained, tmp_path, capsys, case):
    command, fields, message = CONFIG_ERRORS[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fields))
    curve = tmp_path / "resource.csv"
    curve.write_text(RESOURCE_CURVE)
    out = tmp_path / "out"
    code = main(_argv(command, generated, curve, trained) + ["--config", str(config), "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {config}: {message}")
    assert not out.exists()


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


def _model(family, state):
    return json.dumps({"format": "recidrisk-model", "version": 1, "family": family, "state": state})


def _generator_config(**fields):
    """The generated corpus's generator config with some fields replaced, as file text."""
    return lambda gen: json.dumps({**json.loads((gen / "generator_config.json").read_text()),
                                   **fields})


# name: (command, input file text, or a function of the generated corpus
# directory, or None for a missing file; the line the error must name, or the
# message that must follow the path)
BAD_INPUTS = {
    "missing_file": ("evaluate", None, None),
    "empty_curve": ("decide", "", 1),
    "header_only_curve": ("decide", "# manifest: manifest.json\n" + CURVE_HEADER, 3),
    "short_curve_row": ("decide", CURVE_HEADER + "0.0,0.1,0.0,0.1,0.1,police_resource,0.5,3\n"
                        "1.0,0.2\n", 3),
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
    "tree_child_outside_arrays": ("evaluate", _model("tree", _tree([0], [5], [5])),
                                  "tree node 0: children must lie after the node and before 1"),
    "forest_member_feature_out_of_range": (
        "evaluate", _model("forest", {"trees": [_tree([250, -1, -1], [1, -1, -1], [2, -1, -1])],
                                      "n_features": 250, "criterion": "gini", "max_depth": None,
                                      "seed": 0, "bootstrap": True}),
        "tree node 0: feature must lie in [-1, 250)"),
    "schema_options_string": ("train_schema", '{"questions": [{"id": "q1", "options": "AB"}]}',
                              "question 'q1': field 'options' must be a list of strings"),
    "schema_allows_missing_string": (
        "train_schema", '{"questions": [{"id": "q1", "options": ["A", "B"], "allows_missing": "no"}]}',
        "question 'q1': field 'allows_missing' must be true or false"),
    "schema_id_number": ("train_schema", '{"questions": [{"id": 7, "options": ["A", "B"]}]}',
                         "question 1: field 'id' must be a string"),
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
    (["generate", "--demo"], "2"),
    (["sensitivity", "--data", "c.csv", "--schema", "s.json", "--high-threshold", "4"], "2"),
], ids=["generate_n_0", "separation_with_config", "generate_jobs", "evaluate_jobs", "decide_jobs",
        "train_jobs", "sensitivity_jobs", "generate_demo", "sensitivity_high_threshold"])
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


def test_sweep_output_does_not_depend_on_jobs(generated, tmp_path):
    runs = {}
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}"
        argv = _sweep_argv(generated, out, "--grid-size", "9", "--n-runs", "25", "--tau", "0.5",
                           "--tau", "2", "--jobs", jobs)
        assert main(argv) == 0
        runs[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
    manifests = {jobs: json.loads(files.pop("manifest.json")) for jobs, files in runs.items()}
    assert sorted(runs["1"]) == ["protection_sweep.csv", "resource_profile.csv",
                                 "resource_sweep_tau0.5.csv", "resource_sweep_tau2.csv"]
    assert runs["1"] == runs["3"]
    assert manifests["1"]["config"].pop("jobs") == 1 and manifests["3"]["config"].pop("jobs") == 3
    assert manifests["1"]["config"]["auto_ml"] is False
    assert manifests["1"] == manifests["3"]


def test_reused_out_dir_holds_only_the_new_runs_files(generated, tmp_path):
    out = tmp_path / "sweep"
    assert main(_sweep_argv(generated, out)) == 0
    assert (out / "resource_sweep_tau5.csv").exists()
    assert main(_sweep_argv(generated, out, "--tau", "0.5")) == 0
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(p.name for p in out.iterdir()) == sorted(listed + ["manifest.json"])
    assert "resource_sweep_tau0.5.csv" in listed


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
], ids=["crossval_misspelt", "crossval_k_0", "crossval_no_trees", "train_misspelt", "train_no_k",
        "crossval_k_string", "crossval_k_bool", "train_depth_float", "train_bootstrap_string"])
def test_bad_model_params_are_oneline_errors(generated, tmp_path, capsys, command, family, params,
                                             message):
    argv = [command, "--data", str(generated / "cases.csv"), "--schema", str(generated / "schema.json"),
            "--family", family, "--params", json.dumps(params), "--out-dir", str(tmp_path)]
    code = main(argv + (["--k", "3"] if command == "crossval" else []))
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {message}")
