import json
import os
import subprocess
import sys

import pytest

from matchpulse import ingest
from matchpulse.cli import main

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
