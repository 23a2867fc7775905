import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from matchpulse import ingest
from matchpulse.cli import Run, build_parser, main
from matchpulse.explain import ShapConfig, shapley_values
from matchpulse.model import TrainedNet, stratified_split

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
FAST_MODEL = ["--hidden", "3", "--swarm", "6", "--pso-iterations", "10",
              "--epochs", "30"]


def artifacts(out):
    return {
        name: open(os.path.join(out, name), "rb").read()
        for name in sorted(os.listdir(out))
        if not name.startswith(".")
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    summary = json.loads(captured.out.strip().splitlines()[-1]) if captured.out else {}
    return code, summary, captured.err


def run_process(argv):
    """(exit code, stderr) of the CLI run as a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "matchpulse.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


@pytest.fixture()
def csv_path(tmp_path, synthetic_csv):
    path = tmp_path / "points.csv"
    path.write_text(synthetic_csv)
    return str(path)


def test_synth_then_test_momentum(tmp_path, capsys):
    out1 = str(tmp_path / "synth")
    code, summary, _ = run(capsys, ["synth", "--out", out1, "--matches", "8",
                                    "--points", "120", "--seed", "5"])
    assert code == 0
    assert summary["matches"] == 8
    synth_csv = os.path.join(out1, "synth.csv")
    assert os.path.exists(synth_csv)

    out2 = str(tmp_path / "mt")
    code, summary, _ = run(capsys, ["test-momentum", "--input", synth_csv,
                                    "--out", out2, "--cap", "5"])
    assert code == 0
    assert summary["df"] == 4
    doc = json.loads(open(os.path.join(out2, "momentum_test.json")).read())
    assert doc["schema_version"] == 1
    assert len(doc["table"]["extension"]) == 5
    assert os.path.exists(os.path.join(out2, "contingency.txt"))


def test_momentum_weights_sum_to_one(csv_path, tmp_path, capsys):
    out = str(tmp_path / "m")
    code, summary, _ = run(capsys, ["momentum", "--input", csv_path,
                                    "--out", out])
    assert code == 0
    assert sum(summary["weights"].values()) == pytest.approx(1.0)
    rows = open(os.path.join(out, "momentum.csv")).read().splitlines()
    assert rows[0] == "t,M"
    assert len(rows) == 221


def test_changepoints_and_shift(csv_path, tmp_path, capsys):
    out = str(tmp_path / "cp")
    code, summary, _ = run(capsys, ["changepoints", "--input", csv_path,
                                    "--out", out, "--match-id",
                                    "synthetic-0002"])
    assert code == 0
    assert summary["match_id"] == "synthetic-0002"
    assert summary["n"] == summary["positive"] + summary["negative"]

    out2 = str(tmp_path / "shift")
    code, summary, _ = run(capsys, ["shift", "--input", csv_path,
                                    "--out", out2,
                                    "--target-changepoints", "6"])
    assert code == 0
    doc = json.loads(open(os.path.join(out2, "shift.json")).read())
    assert doc["schema_version"] == 1
    assert len(open(os.path.join(out2, "shift.csv")).read().splitlines()) == 221


def test_train_then_shap(csv_path, tmp_path, capsys):
    out = str(tmp_path / "train")
    code, summary, _ = run(capsys, ["train", "--input", csv_path,
                                    "--out", out] + FAST_MODEL)
    assert code == 0
    assert 0.0 <= summary["test_auc"] <= 1.0
    model = os.path.join(out, "model.json")
    assert os.path.exists(model)

    out2 = str(tmp_path / "shap")
    code, summary, _ = run(capsys, ["shap", "--input", csv_path,
                                    "--out", out2, "--model", model,
                                    "--background", "12",
                                    "--shap-points", "2"] + FAST_MODEL)
    assert code == 0
    ranking = open(os.path.join(out2, "shap.csv")).read().splitlines()
    assert ranking[0] == "feature,mean_abs_phi,rank"
    assert len(ranking) == 1 + 9  # six base features + M, CP, V


def test_shap_equals_attribution_through_predict_proba(csv_path, tmp_path,
                                                      capsys):
    # `shap` scales the background and each instance once and scores the
    # coalitions with `forward`. Its phi must equal attribution through
    # `predict_proba`, which scales every coalition row, also where the
    # scaler clips (its range narrowed to the middle third) or has a
    # constant column.
    out = str(tmp_path / "train")
    assert run(capsys, ["train", "--input", csv_path, "--out", out]
               + FAST_MODEL)[0] == 0
    doc = json.loads(open(os.path.join(out, "model.json")).read())
    mins, maxs = doc["scaler"]["mins"], doc["scaler"]["maxs"]
    doc["scaler"]["mins"] = [lo + (hi - lo) / 3 for lo, hi in zip(mins, maxs)]
    doc["scaler"]["maxs"] = [hi - (hi - lo) / 3 for lo, hi in zip(mins, maxs)]
    doc["scaler"]["maxs"][0] = doc["scaler"]["mins"][0]
    model = tmp_path / "narrow.json"
    model.write_text(json.dumps(doc))
    argv = ["shap", "--input", csv_path, "--model", str(model),
            "--background", "12", "--shap-points", "3"] + FAST_MODEL
    assert run(capsys, argv + ["--out", str(tmp_path / "shap")])[0] == 0
    rows = open(tmp_path / "shap" / "shap_points.csv").read().splitlines()

    args = build_parser().parse_args(argv)
    X, names, y, col_map = Run(args).scenario
    cols = col_map[args.scenario]
    train_idx, test_idx = stratified_split(y, args.split, args.seed)
    bg_idx = np.random.default_rng(args.seed).choice(train_idx, size=12,
                                                     replace=False)
    net = TrainedNet.from_json(doc)
    z = net.scaler.transform(X[test_idx[:3]][:, cols], clip=False)
    assert ((z < -0.5) | (z > 1.5)).any()
    cfg = ShapConfig(X[np.ix_(bg_idx, cols)])
    expected = ["instance,feature,feature_value,phi"] + [
        f"{i},{names[c]},{float(X[i, c])!r},{float(phi)!r}"
        for i in test_idx[:3]
        for c, phi in zip(cols, shapley_values(net.predict_proba, X[i, cols],
                                               cfg).phi)]
    assert rows == expected


def test_evaluate_scenarios(csv_path, tmp_path, capsys):
    out = str(tmp_path / "eval")
    code, summary, _ = run(capsys, ["evaluate", "--input", csv_path,
                                    "--out", out, "--eval-seeds", "1"]
                           + FAST_MODEL)
    assert code == 0
    assert set(summary["auc"]) == {"base", "base_m", "base_m_cp", "base_m_cp_v"}
    doc = json.loads(open(os.path.join(out, "scenario_metrics.json")).read())
    assert set(doc["scenarios"]) == set(summary["auc"])


def test_rerun_is_byte_identical(csv_path, tmp_path, capsys):
    argv = ["changepoints", "--input", csv_path, "--seed", "3"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(capsys, argv + ["--out", out1])[0] == 0
    assert run(capsys, argv + ["--out", out2])[0] == 0
    assert artifacts(out1) == artifacts(out2)


def test_unknown_flag_exits_2(csv_path):
    with pytest.raises(SystemExit) as exc:
        main(["momentum", "--input", csv_path, "--no-such-flag"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_domain_error_exits_1(csv_path, tmp_path, capsys):
    code, _, err = run(capsys, ["momentum", "--input", csv_path,
                                "--out", str(tmp_path / "x"),
                                "--match-id", "nope"])
    assert code == 1
    assert "nope" in err


def test_bad_input_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,point,file\n1,2,3,4\n")
    code, _, err = run(capsys, ["momentum", "--input", str(bad),
                                "--out", str(tmp_path / "x")])
    assert code == 1
    assert err.startswith("error:")


def test_config_file_defaults_and_precedence(csv_path, tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("# defaults\ncap=4\nseed=9\n")
    out = str(tmp_path / "cfg")
    code, summary, _ = run(capsys, ["--config", str(cfg), "test-momentum",
                                    "--input", csv_path, "--out", out])
    assert code == 0
    assert summary["df"] == 3  # cap 4 from the config file

    # an explicit flag overrides the config value
    out2 = str(tmp_path / "cfg2")
    code, summary, _ = run(capsys, ["--config", str(cfg), "test-momentum",
                                    "--input", csv_path, "--out", out2,
                                    "--cap", "6"])
    assert code == 0
    assert summary["df"] == 5


def test_config_unknown_key_rejected(csv_path, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key=1\n")
    code, _, err = run(capsys, ["--config", str(cfg), "momentum",
                                "--input", csv_path,
                                "--out", str(tmp_path / "x")])
    assert code == 1
    assert "nonsense_key" in err


def test_report_chain(csv_path, tmp_path, capsys):
    out = str(tmp_path / "report")
    code, summary, _ = run(capsys, ["report", "--input", csv_path,
                                    "--out", out, "--background", "10",
                                    "--shap-points", "2"] + FAST_MODEL)
    assert code == 0
    produced = set(artifacts(out))
    for name in ("features.csv", "momentum_test.json", "momentum.csv",
                 "changepoints.json", "cusum.csv", "shift.csv", "model.json",
                 "train_metrics.json", "shap.csv", "plot.py"):
        assert name in produced


def test_report_artifacts_honour_umask(csv_path, tmp_path, capsys):
    out = str(tmp_path / "report")
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, ["report", "--input", csv_path, "--out", out,
                                  "--background", "10", "--shap-points", "2"]
                         + FAST_MODEL)
    finally:
        os.umask(old)
    assert code == 0
    modes = {name: os.stat(os.path.join(out, name)).st_mode & 0o777
             for name in artifacts(out)}
    assert modes and set(modes.values()) == {0o644}, modes


def test_cli_import_loads_no_scipy():
    code = ("import sys, matchpulse.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def _swap_first_points(lines):
    lines[1], lines[2] = lines[2], lines[1]


def _infinite_speed(lines):
    col = lines[0].split(",").index("ball_speed")
    cells = lines[3].split(",")
    cells[col] = "inf"
    lines[3] = ",".join(cells)


@pytest.mark.parametrize("edit", [_swap_first_points, _infinite_speed])
def test_bad_rows_exit_1_without_traceback(synthetic_csv, tmp_path, edit):
    lines = synthetic_csv.splitlines()
    edit(lines)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    code, err = run_process(["report", "--input", str(bad),
                             "--out", str(tmp_path / "x")])
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "at row" in err


def test_shap_rejects_broken_model_without_traceback(csv_path, tmp_path, capsys):
    out = str(tmp_path / "train")
    assert run(capsys, ["train", "--input", csv_path, "--out", out]
               + FAST_MODEL)[0] == 0
    text = open(os.path.join(out, "model.json")).read()
    doc = json.loads(text)
    doc["params"] = doc["params"][:-3]
    broken = {"truncated.json": text[:300], "short.json": json.dumps(doc)}
    for name, content in broken.items():
        model = tmp_path / name
        model.write_text(content)
        code, err = run_process(["shap", "--input", csv_path, "--model",
                                 str(model), "--out", str(tmp_path / "shap")]
                                + FAST_MODEL)
        assert code == 1, name
        assert err.startswith("error:") and "Traceback" not in err, err


def test_report_parses_input_once(csv_path, tmp_path, capsys, monkeypatch):
    sources = []
    parse = ingest.parse_csv
    monkeypatch.setattr(ingest, "parse_csv",
                        lambda source: sources.append(source) or parse(source))
    code, _, _ = run(capsys, ["report", "--input", csv_path,
                              "--out", str(tmp_path / "report"),
                              "--background", "10", "--shap-points", "2"]
                     + FAST_MODEL)
    assert code == 0
    assert sources == [csv_path]


def test_report_equals_individual_commands(csv_path, tmp_path, capsys,
                                           monkeypatch):
    momentum = ["--match-id", "synthetic-0002", "--pooled-weights"]
    cusum = momentum + ["--target-changepoints", "6"]
    model = cusum + FAST_MODEL
    shap = ["--background", "10", "--shap-points", "2"]
    streak = ["--exact", "--replicates", "2000"]
    steps = [["ingest"], ["test-momentum"] + streak, ["momentum"] + momentum,
             ["changepoints"] + cusum, ["shift"] + cusum, ["train"] + model,
             ["shap", "--model", os.path.join("out", "model.json")]
             + model + shap]

    def stdout_of(argv):
        assert main(argv + ["--input", csv_path, "--out", "out"]) == 0
        return capsys.readouterr().out.splitlines()

    # the same relative --out on both sides, so summaries that echo it agree
    (tmp_path / "report").mkdir()
    monkeypatch.chdir(tmp_path / "report")
    report_lines = stdout_of(["report"] + streak + model + shap)
    report_files = artifacts("out")
    (tmp_path / "steps").mkdir()
    monkeypatch.chdir(tmp_path / "steps")
    step_lines = [line for argv in steps for line in stdout_of(argv)]

    assert report_lines[:-1] == step_lines
    assert json.loads(report_lines[-1]) == {"command": "report", "out": "out"}
    assert report_files.pop("plot.py")
    assert report_files == artifacts("out")


def test_missing_input_file_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "typo.csv")
    code, _, err = run(capsys, ["momentum", "--input", missing,
                                "--out", str(tmp_path / "x")])
    assert code == 1
    assert err.startswith("error:") and missing in err


def test_ingest_reports_imputed_cells(synthetic_csv, tmp_path, capsys):
    lines = synthetic_csv.splitlines()
    col = lines[0].split(",").index("ball_speed")
    cells = lines[3].split(",")
    cells[col] = ""
    lines[3] = ",".join(cells)
    path = tmp_path / "gap.csv"
    path.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "ingest")
    code, _, _ = run(capsys, ["ingest", "--input", str(path), "--out", out])
    assert code == 0
    doc = json.loads(open(os.path.join(out, "features.json")).read())
    assert set(doc["matches"][0]) == {"match_id", "feature_ids", "T",
                                      "orientation", "imputed"}
    assert doc["matches"][0]["imputed"] == {"x15": [2], "x16": [2]}


def test_report_csv_cells_are_numbers(csv_path, tmp_path, capsys):
    out = str(tmp_path / "report")
    code, _, _ = run(capsys, ["report", "--input", csv_path, "--out", out,
                              "--background", "10", "--shap-points", "2"]
                     + FAST_MODEL)
    assert code == 0
    tables = {}
    for name in os.listdir(out):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), newline="") as fh:
                tables[name] = list(csv.reader(fh))
    assert {"features.csv", "momentum.csv", "cusum.csv", "shift.csv",
            "shap.csv", "shap_points.csv"} <= set(tables)
    for name, (header, *rows) in tables.items():
        numeric = [j for j, h in enumerate(header)
                   if h not in ("match_id", "feature")]
        for row in rows:
            for j in numeric:
                float(row[j])       # ValueError names the file's bad cell

    header, *rows = tables["features.csv"]
    assert header == ["match_id", "point", *ingest.FEATURE_IDS, "outcome"]
    frames = [ingest.derive_features(m) for m in ingest.parse_csv(csv_path)]
    expected = np.vstack([np.column_stack([f.features, f.outcome])
                          for f in frames])
    read = np.array([[float(c) for c in row[2:]] for row in rows])
    assert np.array_equal(read, expected)
    assert [(r[0], int(r[1])) for r in rows] == [
        (f.match_id, t) for f in frames for t in range(1, f.T + 1)]


@pytest.mark.parametrize("command, dests", [
    ("test-momentum", ["cap", "exact", "replicates"]),
    ("shap", ["background", "shap_points"]),
])
def test_report_flags_match_their_commands(command, dests):
    commands = build_parser().commands
    for dest in dests:
        own = commands[command].options[dest]
        report = commands["report"].options[dest]
        assert (report.type, report.default, report.help) == \
            (own.type, own.default, own.help), dest
        assert own.help


def test_diverging_descent_exits_1_without_warnings(csv_path, tmp_path):
    code, err = run_process(["train", "--input", csv_path,
                             "--out", str(tmp_path / "x"),
                             "--learning-rate", "1.7e308"])
    assert code == 1
    assert err.startswith("error:") and "diverged" in err
    assert "Warning" not in err


@pytest.mark.parametrize("argv", [
    ["train", "--split", "1.5"],
    ["train", "--split", "0"],
    ["test-momentum", "--cap", "0"],
    ["test-momentum", "--replicates", "0"],
    ["train", "--swarm", "0"],
    ["train", "--hidden", "0"],
    ["evaluate", "--eval-seeds", "0"],
    ["train", "--epochs", "-1"],
    ["train", "--pso-iterations", "-1"],
    ["train", "--learning-rate", "-5"],
    ["train", "--learning-rate", "0"],
    ["evaluate", "--learning-rate", "nan"],
    ["evaluate", "--learning-rate", "inf"],
    ["shap", "--background", "0"],
    ["shap", "--shap-points", "0"],
    ["shap", "--shap-points", "-3"],
    ["report", "--background", "0"],
    ["report", "--shap-points", "0"],
    ["changepoints", "--target-changepoints", "0"],
    ["changepoints", "--threshold", "-1"],
    ["changepoints", "--drift", "-1"],
    ["changepoints", "--drift", "nan"],
    ["changepoints", "--drift", "inf"],
    ["momentum", "--features", ","],
    ["momentum", "--epsilon", "-1"],
    ["synth", "--points", "0"],
    ["synth", "--matches", "0"],
    ["synth", "--p", "1"],
])
def test_out_of_range_flag_is_usage_error(argv, csv_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", csv_path, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}:" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line, named", [
    ("cap=abc", "'cap'"),
    ("cap=1", "'cap'"),
    ("scenario=nope", "'scenario'"),
    ("split=2", "'split'"),
    ("features=,", "'features'"),
    ("just text", "bad config line 1"),
])
def test_config_bad_value_exits_1(line, named, csv_path, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run(capsys, ["--config", str(cfg), "momentum",
                                "--input", csv_path,
                                "--out", str(tmp_path / "x")])
    assert code == 1
    assert err.startswith("error:") and named in err
