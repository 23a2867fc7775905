import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import runpy
import subprocess
import sys
import types

import corpus
import numpy as np
import pytest
from conftest import match_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchpulse import cli, ingest
from matchpulse.cli import (COMMANDS, REPORT_STEPS, Run, _model_configs,
                            build_parser, main)
from matchpulse.explain import shapley_values
from matchpulse.model import PsoConfig, TrainedNet, _pso_start, stratified_split
from matchpulse.stats import stepwise_select

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
FAST_MODEL = ["--hidden", "3", "--swarm", "6", "--pso-iterations", "10",
              "--epochs", "30"]


def artifacts(out):
    return {
        name: pathlib.Path(out, name).read_bytes()
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
    doc = json.loads(pathlib.Path(out2, "momentum_test.json").read_text())
    assert doc["schema_version"] == 1
    assert len(doc["table"]["extension"]) == 5
    assert os.path.exists(os.path.join(out2, "contingency.txt"))


def test_momentum_weights_sum_to_one(csv_path, tmp_path, capsys):
    out = str(tmp_path / "m")
    code, summary, _ = run(capsys, ["momentum", "--input", csv_path,
                                    "--out", out])
    assert code == 0
    assert sum(summary["weights"].values()) == pytest.approx(1.0)
    rows = pathlib.Path(out, "momentum.csv").read_text().splitlines()
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
    doc = json.loads(pathlib.Path(out2, "shift.json").read_text())
    assert doc["schema_version"] == 1
    assert len(pathlib.Path(out2, "shift.csv").read_text().splitlines()) == 221


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
                                    "--shap-points", "2"])
    assert code == 0
    ranking = pathlib.Path(out2, "shap.csv").read_text().splitlines()
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
    doc = json.loads(pathlib.Path(out, "model.json").read_text())
    mins, maxs = doc["scaler"]["mins"], doc["scaler"]["maxs"]
    doc["scaler"]["mins"] = [lo + (hi - lo) / 3 for lo, hi in zip(mins, maxs)]
    doc["scaler"]["maxs"] = [hi - (hi - lo) / 3 for lo, hi in zip(mins, maxs)]
    doc["scaler"]["maxs"][0] = doc["scaler"]["mins"][0]
    model = tmp_path / "narrow.json"
    model.write_text(json.dumps(doc))
    argv = ["shap", "--input", csv_path, "--model", str(model),
            "--background", "12", "--shap-points", "3"]
    assert run(capsys, argv + ["--out", str(tmp_path / "shap")])[0] == 0
    rows = (tmp_path / "shap" / "shap_points.csv").read_text().splitlines()

    args = build_parser().parse_args(argv)
    X, names, y, col_map = Run(args).scenario
    cols = col_map[args.scenario]
    train_idx, test_idx = stratified_split(y, args.split, args.seed)
    bg_idx = np.random.default_rng(args.seed).choice(train_idx, size=12,
                                                     replace=False)
    net = TrainedNet.from_json(doc)
    # the raw affine map, before the scaler's clip to [-0.5, 1.5]
    span = net.scaler.maxs - net.scaler.mins
    z = ((X[test_idx[:3]][:, cols] - net.scaler.mins)[:, span > 0]
         / span[span > 0])
    assert ((z < -0.5) | (z > 1.5)).any()
    bg = X[np.ix_(bg_idx, cols)]
    expected = ["instance,feature,feature_value,phi"] + [
        f"{i},{names[c]},{float(X[i, c])!r},{float(phi)!r}"
        for i in test_idx[:3]
        for c, phi in zip(cols, shapley_values(net.predict_proba, X[i, cols],
                                               bg).phi)]
    assert rows == expected


def test_evaluate_scenarios(csv_path, tmp_path, capsys):
    out = str(tmp_path / "eval")
    code, summary, _ = run(capsys, ["evaluate", "--input", csv_path,
                                    "--out", out, "--eval-seeds", "1"]
                           + FAST_MODEL)
    assert code == 0
    assert set(summary["auc"]) == {"base", "base_m", "base_m_cp", "base_m_cp_v"}
    doc = json.loads(pathlib.Path(out, "scenario_metrics.json").read_text())
    assert set(doc["scenarios"]) == set(summary["auc"])


def test_rerun_is_byte_identical(csv_path, tmp_path, capsys):
    argv = ["changepoints", "--input", csv_path]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(capsys, argv + ["--out", out1])[0] == 0
    assert run(capsys, argv + ["--out", out2])[0] == 0
    assert artifacts(out1) == artifacts(out2)


@pytest.mark.parametrize("argv", [
    ["momentum", "--no-such-flag"],
    # these draw no random number
    *[[command, "--seed", "5"] for command in
      ["ingest", "select-features", "momentum", "changepoints", "shift"]],
    # `shap` trains nothing
    *[["shap", flag, value] for flag, value in
      [("--hidden", "3"), ("--swarm", "6"), ("--pso-iterations", "10"),
       ("--learning-rate", "0.1"), ("--epochs", "3")]],
])
def test_unknown_flag_exits_2(argv, csv_path):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", csv_path])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    # these read every match in the file
    ["ingest", "--match-id", "nope"],
    ["test-momentum", "--match-id", "nope"],
    ["select-features", "--match-id", "nope"],
    # evaluate compares all four scenarios
    ["evaluate", "--scenario", "base"],
])
def test_flag_the_command_would_ignore_exits_2(argv, csv_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", csv_path, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]} {argv[2]}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def _first_match_cut_to_one_point():
    lines = corpus.corpus_csv(2, 40, 0.1, 1).splitlines(keepends=True)
    return "".join(lines[:2] + lines[41:])      # header, 1 + 40 points


# each fails in one of report's steps, and report writes nothing
@pytest.mark.parametrize("text, flags, error", [
    (corpus.corpus_csv(3, 60, 0.1, 1), ["--match-id", "nope"],
     "match id not found: 'nope'"),
    (corpus.corpus_csv(3, 60, 0.1, 1), ["--target-changepoints", "1000"],
     "threshold tuner did not converge in 200 iterations"),
    (_first_match_cut_to_one_point(), [],
     "need at least 2 points to compute entropy weights"),
    # 13 base features + M, CP, V: one more than `shap` can attribute
    (corpus.corpus_csv(3, 60, 0.1, 1),
     ["--features", ",".join(f"x{i}" for i in range(1, 14))],
     "exact Shapley enumeration limited to 15 features, got 16"),
    # fails in `train`, after five steps have collected 10 files
    (corpus.corpus_csv(1, 300, 0.1, 1),
     ["--split", "0.999", "--epochs", "5", "--pso-iterations", "2"],
     "test split lost a class"),
], ids=["unknown-match-id", "tuner-fails", "one-point-match",
        "too-many-features", "split-loses-a-class"])
def test_report_with_unknown_match_id_writes_nothing(text, flags, error,
                                                     tmp_path, capsys):
    path, out = tmp_path / "points.csv", tmp_path / "r"
    path.write_text(text)
    code = main(["report", "--input", str(path), "--out", str(out), *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert (captured.out, captured.err) == ("", f"error: {error}\n")
    assert not out.exists()


def test_failed_report_leaves_an_existing_out_unchanged(tmp_path, capsys):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text(corpus.corpus_csv(1, 300, 0.1, 1))
    second.write_text(corpus.corpus_csv(1, 300, 0.1, 2))
    out = tmp_path / "r"
    assert main(["report", "--input", str(first), "--out", str(out),
                 "--background", "10", "--shap-points", "2", *FAST_MODEL]) == 0
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code = main(["report", "--input", str(second), "--out", str(out),
                 "--split", "0.999"])
    captured = capsys.readouterr()
    assert code == 1
    assert (captured.out, captured.err) == ("", "error: test split lost a class\n")
    # every name, temporary `.`-prefixed files included
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_report_hands_shap_the_net_train_writes(tmp_path, capsys):
    # 37 background rows: the case where BLAS scores a block's last rows
    # through its tail kernel, so any change in the net's arrays would show
    path = tmp_path / "points.csv"
    path.write_text(corpus.corpus_csv(1, 300, 0.1, 1))
    shap = ["--background", "37", "--shap-points", "60"]
    for argv in (["report", *FAST_MODEL, *shap], ["train", *FAST_MODEL],
                 ["shap", "--model", str(tmp_path / "train" / "model.json"),
                  *shap]):
        assert main([*argv, "--input", str(path),
                     "--out", str(tmp_path / argv[0])]) == 0
    capsys.readouterr()
    for out, name in [("train", "model.json"), ("shap", "shap.csv"),
                      ("shap", "shap_points.csv")]:
        assert (tmp_path / "report" / name).read_bytes() == \
            (tmp_path / out / name).read_bytes(), name


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
    # each spelling of the option that argparse accepts
    for i, config in enumerate([["--config", str(cfg)], [f"--config={cfg}"],
                                ["--conf", str(cfg)]]):
        out = str(tmp_path / f"cfg{i}")
        code, summary, _ = run(capsys, [*config, "test-momentum",
                                        "--input", csv_path, "--out", out])
        assert code == 0
        assert summary["df"] == 3, config  # cap 4 from the config file

        # an explicit flag overrides the config value
        code, summary, _ = run(capsys, [*config, "test-momentum",
                                        "--input", csv_path, "--out", out + "b",
                                        "--cap", "6"])
        assert code == 0
        assert summary["df"] == 5, config


def test_config_file_with_byte_order_mark(csv_path, tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfcap=5\n")
    code, summary, err = run(capsys, ["--config", str(cfg), "test-momentum",
                                      "--input", csv_path,
                                      "--out", str(tmp_path / "c")])
    assert (code, err) == (0, "")
    assert summary == run(capsys, ["test-momentum", "--input", csv_path,
                                   "--out", str(tmp_path / "f"),
                                   "--cap", "5"])[1]


def test_config_unknown_key_rejected(csv_path, tmp_path, capsys):
    # `help` too: argparse's own -h/--help is not an option a file can set
    for key, value in [("nonsense_key", "1"), ("help", "yes")]:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}={value}\n")
        code, _, err = run(capsys, ["--config", str(cfg), "momentum",
                                    "--input", csv_path,
                                    "--out", str(tmp_path / "x")])
        assert code == 1
        assert key in err


def test_config_file_supplies_input(csv_path, tmp_path, capsys):
    cfg = tmp_path / "input.cfg"
    cfg.write_text(f"input={csv_path}\n")
    out = tmp_path / "m"
    code, _, err = run(capsys, ["--config", str(cfg), "momentum",
                                "--out", str(out)])
    assert (code, err) == (0, "")
    assert (out / "momentum.csv").exists()


def test_config_file_supplies_model(shap_fuzz_setup, tmp_path, capsys):
    shap, text, root = shap_fuzz_setup
    model = tmp_path / "model.json"
    model.write_text(text)
    cfg = tmp_path / "model.cfg"
    cfg.write_text(f"model={model}\n")
    code, _, err = run(capsys, ["--config", str(cfg), *shap,
                                "--out", str(tmp_path / "s")])
    assert (code, err) == (0, "")

    # one file for `train` and `shap`: a command skips the keys it lacks
    shared = tmp_path / "shared.cfg"
    shared.write_text(f"model={model}\nseed=9\nepochs=30\n")
    code, _, err = run(capsys, ["--config", str(shared), *shap,
                                "--out", str(tmp_path / "s2")])
    assert (code, err) == (0, "")
    ingest = ["ingest", "--input", str(root / "points.csv")]
    for config, out in [([], "i"), (["--config", str(shared)], "i2")]:
        out = str(tmp_path / out)
        assert run(capsys, [*config, *ingest, "--out", out])[0] == 0
    assert ((tmp_path / "i2" / "features.csv").read_bytes()
            == (tmp_path / "i" / "features.csv").read_bytes())


def test_missing_input_and_model_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shap", "--out", str(tmp_path / "s")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: --input, --model\n")


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


def test_cli_import_runs_openblas_with_one_thread_unless_set():
    # the library leaves the environment alone; importing the CLI sets
    # one BLAS thread before numpy loads, unless the user chose a count
    code = ("import os; get = lambda: os.environ.get('OPENBLAS_NUM_THREADS'); "
            "import matchpulse.model; a = get(); "
            "import matchpulse.cli; print(a, get())")
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    for preset, expected in [(None, "None 1"), ("2", "2 2")]:
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == expected


def test_train_loads_no_numpy_ma(csv_path, tmp_path):
    # np.unique's first call imports numpy.ma (about 16 ms and 1 MiB)
    code = ("import sys; from matchpulse.cli import main; "
            "print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code, "train", "--input", csv_path,
         "--out", str(tmp_path / "out"), *FAST_MODEL],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"


EAGER = {"matchpulse", "matchpulse.cli", "matchpulse.errors"}
MODULES_RUN = """\
import contextlib, io, json, sys, types
from matchpulse.cli import build_parser, main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    try:
        build_parser() if argv is None else main(argv)
    except SystemExit:          # --help
        pass
# a lazily registered module not yet run is still a _LazyModule
print(json.dumps(sorted(n for n, m in sys.modules.items()
                        if n.split(".")[0] == "matchpulse"
                        and type(m) is types.ModuleType)))
"""


def test_each_call_runs_only_the_modules_it_uses(csv_path, tmp_path):
    model_chain = {"ingest", "ewm", "pipeline", "changepoint", "shift"}
    cases = [
        (None, set()),
        (["--help"], set()),
        (["test-momentum"], {"ingest", "streaks"}),
        (["select-features"], {"ingest", "stats"}),
        (["train", *FAST_MODEL], model_chain | {"model", "stats"}),
    ]
    for i, (argv, extra) in enumerate(cases):
        if argv and argv[0] != "--help":
            argv = argv + ["--input", csv_path, "--out", str(tmp_path / str(i))]
        proc = subprocess.run(
            [sys.executable, "-c", MODULES_RUN, json.dumps(argv)],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, check=True)
        ran = set(json.loads(proc.stdout.splitlines()[-1]))
        assert ran == EAGER | {f"matchpulse.{m}" for m in extra}, argv


def test_changepoint_import_runs_only_errors():
    # M_t reaches the CUSUM as a plain array, so nothing of ewm is needed
    code = ("import json, sys, matchpulse.changepoint; print(json.dumps(sorted("
            "n for n in sys.modules if n.split('.')[0] == 'matchpulse')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [
        "matchpulse", "matchpulse.changepoint", "matchpulse.errors"]


def test_cli_import_registers_every_package_module():
    # bench/tracing.py finds each span target as sys.modules["matchpulse.<m>"]
    code = ("import json, pkgutil, sys, matchpulse.cli; "
            "names = [m.name for m in pkgutil.iter_modules("
            "sys.modules['matchpulse'].__path__)]; "
            "print(json.dumps([names, [n for n in names "
            "if 'matchpulse.' + n not in sys.modules], "
            "sys.modules['matchpulse.model'].train_bp_pso.__module__]))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    names, missing, owner = json.loads(proc.stdout)
    assert "model" in names and "synth" in names
    assert missing == [] and owner == "matchpulse.model"


def test_select_features_refusal_is_unchanged(tmp_path, capsys):
    # the bench tournament corpus (seed 1, 31x300, boost 0.1), on which
    # fit_logistic's absolute gradient-norm stop is never met
    path = tmp_path / "points.csv"
    path.write_text(corpus.corpus_csv(31, 300, 0.1, 1))
    code, _, err = run(capsys, ["select-features", "--input", str(path),
                                "--out", str(tmp_path / "out")])
    assert code == 1
    assert err.splitlines()[-1] == "error: gradient norm 3.21e-07 after 100 iters"


def test_select_features_writes_the_stepwise_trace(tmp_path, capsys):
    # select-features refuses the bench corpora (above), but not this one
    text = corpus.corpus_csv(3, 120, 0.1, 1)
    path = tmp_path / "points.csv"
    path.write_text(text)
    out = tmp_path / "out"
    code, summary, _ = run(capsys, ["select-features", "--input", str(path),
                                    "--out", str(out)])
    assert code == 0
    frames = [ingest.derive_features(m)
              for m in ingest.parse_csv(io.StringIO(text))]
    trace = stepwise_select(np.vstack([f.features for f in frames]),
                            np.concatenate([f.outcome for f in frames]),
                            feature_ids=ingest.FEATURE_IDS)
    doc = json.loads((out / "selection.json").read_text())
    assert doc == {"schema_version": 1, **trace.to_json()}
    assert summary == {"command": "select-features",
                       "selected": trace.final_features, "auc": trace.final_auc}


def _swap_first_points(lines):
    lines[1], lines[2] = lines[2], lines[1]


def _infinite_speed(lines):
    col = lines[0].split(",").index("ball_speed")
    cells = lines[3].split(",")
    cells[col] = "inf"
    lines[3] = ",".join(cells)


def test_ingest_refuses_overflowing_features(tmp_path):
    lines = match_csv([1, 0] * 30, seed=4).splitlines()
    col = lines[0].split(",").index("p1_distance_run")
    for i in (4, 5):                    # points 4 and 5
        cells = lines[i].split(",")
        cells[col] = "1.7e+308"
        lines[i] = ",".join(cells)
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "x"
    code, err = run_process(["ingest", "--input", str(path), "--out", str(out)])
    assert code == 1
    assert err.splitlines() == ["error: x12 is not finite at point 5 "
                                "(its source cells are too large)"]
    assert not (out / "features.csv").exists()


def test_shap_rejects_a_model_of_another_width(csv_path, tmp_path, capsys):
    out = str(tmp_path / "train")
    assert run(capsys, ["train", "--input", csv_path, "--out", out,
                        *FAST_MODEL])[0] == 0
    code, err = run_process(["shap", "--input", csv_path,
                             "--out", str(tmp_path / "x"), "--scenario", "base",
                             "--model", os.path.join(out, "model.json")])
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "takes 9 inputs" in err and "'base' has 6 columns" in err


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


def _bad_token(lines):
    col = lines[0].split(",").index("p1_score")
    cells = lines[5].split(",")
    cells[col] = "45"
    lines[5] = ",".join(cells)


def _truncated_row(lines):
    lines[7] = lines[7][:len(lines[7]) // 2]


def _short_row(lines):
    # no serve/return depths or distances: the distances are imputed
    lines[8] = ",".join(lines[8].split(",")[:-5])


def _blank_rows(lines):
    lines[4:4] = ["", ",,,", "   "]
    lines.append("")


def _repeated_point_no(lines):
    lines.insert(10, lines[9])


def _non_utf8_byte(lines):
    lines[6] = lines[6].replace("synthetic", "synth\udcffetic", 1)


# every subcommand that reads --input, with cheap flags; `synth` reads none
SWEEP_ARGV = [
    ["ingest"], ["test-momentum", "--exact", "--replicates", "1000"],
    ["select-features"], ["momentum"],
    ["changepoints", "--target-changepoints", "3", "--pooled-weights"],
    ["shift"], ["train", *FAST_MODEL],
    ["evaluate", "--eval-seeds", "1", *FAST_MODEL],
    ["shap", "--background", "5", "--shap-points", "1", *FAST_MODEL],
    ["report", "--background", "5", "--shap-points", "1", *FAST_MODEL],
]

SWEEP = """
import json, sys
from matchpulse.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps(codes))
"""


@pytest.fixture(scope="module")
def sweep_setup(tmp_path_factory):
    """(the lines of a short two-match CSV, a model.json trained on it)."""
    root = tmp_path_factory.mktemp("sweep")
    path = root / "points.csv"
    path.write_text(corpus.corpus_csv(2, 60, None, 3))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--input", str(path), "--out", str(root / "m"),
                     *FAST_MODEL]) == 0
    return path.read_text().splitlines(), str(root / "m" / "model.json")


@pytest.mark.parametrize("edit", [_bad_token, _truncated_row, _short_row,
                                  _blank_rows, _repeated_point_no,
                                  _non_utf8_byte])
def test_every_command_survives_a_mutated_csv(sweep_setup, tmp_path, edit):
    # one fresh interpreter per CSV runs every subcommand on it in turn
    lines, model = sweep_setup
    lines = list(lines)
    edit(lines)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    argvs = [argv[:1] + ["--input", str(bad), "--out", str(tmp_path / str(i))]
             + (["--model", model] if argv[0] == "shap" else []) + argv[1:]
             for i, argv in enumerate(SWEEP_ARGV)]
    proc = subprocess.run([sys.executable, "-c", SWEEP, json.dumps(argvs)],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert set(codes) <= {0, 1, 2}, codes
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == codes.count(1), proc.stderr


def test_wide_net_trains_without_warnings(csv_path, tmp_path):
    # 64 hidden units put the PSO logits far outside the float32 scorer's
    # clip range (about ±195 at this corpus's first particles)
    code, err = run_process(["train", "--input", csv_path, "--out",
                             str(tmp_path / "x"), "--hidden", "64",
                             "--swarm", "6", "--pso-iterations", "5",
                             "--epochs", "5"])
    assert code == 0
    assert err == ""


@pytest.fixture(scope="module")
def shap_fuzz_setup(tmp_path_factory):
    """(argv of a `shap` call minus --model, the model.json text) on one
    short match."""
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "points.csv"
    path.write_text(corpus.corpus_csv(1, 120, None, 3))
    common = ["--input", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--out", str(root / "train")] + common
                    + FAST_MODEL) == 0
    text = (root / "train" / "model.json").read_text()
    shap = ["shap", "--out", str(root / "shap"), "--background", "5",
            "--shap-points", "1"] + common
    return shap, text, root


def _json_paths(node, path=()):
    """The path of every value in a JSON tree, the root's () included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _mutate(text, kind, pick, value):
    """`text` with one mutation: drop the picked key or item, retype it to
    `value`, cut the text at `pick`, or write `value` into a param."""
    if kind == "truncate":
        return text[:pick % len(text)]
    doc = json.loads(text)
    if kind == "param":
        doc["params"][pick % len(doc["params"])] = value
        return json.dumps(doc)
    paths = list(_json_paths(doc))[kind == "drop":]
    path = paths[pick % len(paths)]
    if not path:
        return json.dumps(value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(-1e6, 1e6), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["drop", "retype", "truncate", "param"]),
       pick=st.integers(0, 10**4), value=JSON_VALUES)
@example(kind="param", pick=2, value=0.5)
@example(kind="param", pick=0, value=math.nan)
@example(kind="param", pick=3, value=-math.inf)
@example(kind="param", pick=1, value=10**400)
@example(kind="retype", pick=0, value=[])
def test_shap_on_mutated_model_exits_0_or_error_line(shap_fuzz_setup, kind,
                                                      pick, value):
    shap, text, root = shap_fuzz_setup
    model = root / "model.json"
    model.write_text(_mutate(text, kind, pick, value))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(shap + ["--model", str(model)])
    assert code == 0 or (code == 1 and err.getvalue().startswith("error:")), \
        (code, err.getvalue())


def test_shap_rejects_broken_model_without_traceback(csv_path, tmp_path, capsys):
    out = str(tmp_path / "train")
    assert run(capsys, ["train", "--input", csv_path, "--out", out]
               + FAST_MODEL)[0] == 0
    text = pathlib.Path(out, "model.json").read_text()
    doc = json.loads(text)
    doc["params"] = doc["params"][:-3]
    broken = {"truncated.json": text[:300], "short.json": json.dumps(doc)}
    for name, content in broken.items():
        model = tmp_path / name
        model.write_text(content)
        code, err = run_process(["shap", "--input", csv_path, "--model",
                                 str(model), "--out", str(tmp_path / "shap")])
        assert code == 1, name
        assert err.startswith("error:") and "Traceback" not in err, err


def test_shap_rejects_overflowing_scaler_span_without_warnings(
        shap_fuzz_setup, tmp_path):
    # finite bounds whose span maxs - mins overflows to inf would scale
    # the column to 0 with a RuntimeWarning
    shap, text, _ = shap_fuzz_setup
    doc = json.loads(text)
    doc["scaler"]["mins"][0], doc["scaler"]["maxs"][0] = -1.7e308, 1.7e308
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code, err = run_process(shap + ["--model", str(model)])
    assert code == 1
    assert err.startswith("error:") and "scaler" in err, err
    assert "Warning" not in err


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
             + cusum + shap]

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
    doc = json.loads(pathlib.Path(out, "features.json").read_text())
    assert set(doc["matches"][0]) == {"match_id", "feature_ids", "T",
                                      "orientation", "imputed"}
    assert doc["matches"][0]["imputed"] == {"x15": [2], "x16": [2]}


def test_absent_feed_column_warns_and_exits_0(tmp_path, capsys):
    # ball_speed renamed in the 1x300 bench corpus: x15 and x16 are 0
    header, rows = corpus.corpus_csv(1, 300, 0.1, 1).split("\n", 1)
    path = tmp_path / "renamed.csv"
    path.write_text(header.replace("ball_speed", "speed_mph") + "\n" + rows)
    warning = ("warning: match 'synthetic-0001' has no ball_speed value, "
               "so x15, x16 are 0 at every point")
    for argv in (["report", "--replicates", "1000", "--background", "5",
                  "--shap-points", "1", *FAST_MODEL],
                 ["ingest"], ["train", *FAST_MODEL]):
        code, _, err = run(capsys, argv + ["--input", str(path),
                                           "--out", str(tmp_path / argv[0])])
        assert code == 0, err
        assert err.splitlines() == [warning], argv


def test_absent_set_victor_column_is_refused(tmp_path, capsys):
    # without set_victor, x5 (sets won before the point) has no source
    rows = list(csv.reader(io.StringIO(corpus.corpus_csv(1, 300, 0.1, 1))))
    col = rows[0].index("set_victor")
    path = tmp_path / "no_set_victor.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            row[:col] + row[col + 1:] for row in rows)
    out = tmp_path / "out"
    code, summary, err = run(capsys, ["ingest", "--input", str(path),
                                      "--out", str(out)])
    assert (code, summary) == (1, {})
    assert err == ("error: match 'synthetic-0001': set_victor (source of x5) "
                   "is missing at point 1\n")
    assert not out.exists()


def test_empty_feed_column_warns_for_that_match_only(tmp_path, capsys):
    lines = corpus.corpus_csv(3, 40, 0.1, 2).splitlines()
    header = lines[0].split(",")
    col, mid = header.index("p1_distance_run"), header.index("match_id")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[mid] == "synthetic-0002":
            cells[col] = ""
            lines[i] = ",".join(cells)
    path = tmp_path / "gap.csv"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, ["ingest", "--input", str(path),
                                "--out", str(tmp_path / "x")])
    assert code == 0
    assert err.splitlines() == [
        "warning: match 'synthetic-0002' has no p1_distance_run value, "
        "so x12, x13, x14 are 0 at every point"]
    # a command that derives only the picked match warns for it alone
    for match_id, expected in (("synthetic-0001", ""), ("synthetic-0002", err)):
        code, _, err2 = run(capsys, ["changepoints", "--input", str(path),
                                     "--match-id", match_id,
                                     "--out", str(tmp_path / match_id)])
        assert code == 0 and err2 == expected


def test_bench_corpus_leaves_stderr_empty(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text(corpus.corpus_csv(1, 300, 0.1, 1))
    code, _, err = run(capsys, ["report", "--input", str(path),
                                "--out", str(tmp_path / "out"),
                                "--replicates", "1000", "--background", "5",
                                "--shap-points", "1", *FAST_MODEL])
    assert code == 0 and err == ""


def test_pso_start_rows_are_the_unclipped_affine_map(tmp_path):
    # `_pso_start` scales the rows the scaler was fitted on, which lie in
    # [0, 1], so the scaler's clip to [-0.5, 1.5] moves no bit
    path = tmp_path / "points.csv"
    path.write_text(corpus.corpus_csv(1, 300, 0.1, 1))
    args = build_parser().parse_args(["train", "--input", str(path)])
    X, _, y, col_map = Run(args).scenario
    cols = col_map[args.scenario]
    train_idx, _ = stratified_split(y, args.split, args.seed)
    rows = X[np.ix_(train_idx, cols)]
    net_builder, _, _ = _model_configs(args)
    scaler, Z, *_ = _pso_start(rows, y[train_idx], net_builder(len(cols)),
                               PsoConfig(swarm=4, iterations=0))
    span = scaler.maxs - scaler.mins
    assert (span > 0).all()
    assert Z.tobytes() == ((rows - scaler.mins) / span).tobytes()


def test_ingest_features_csv_is_unchanged(csv_path, tmp_path, capsys):
    # recorded from the csv.writer version of FeatureFrame.to_csv
    out = str(tmp_path / "ingest")
    code, _, _ = run(capsys, ["ingest", "--input", csv_path, "--out", out])
    assert code == 0
    digest = hashlib.sha256(artifacts(out)["features.csv"]).hexdigest()
    assert digest == "56f2a741d6c18220ced9e6a0c6f50f52fd24244a58056737a4d58b384327837b"


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


def test_plot_stub_runs_on_every_csv_artifact(csv_path, tmp_path, capsys,
                                              monkeypatch):
    out = str(tmp_path / "report")
    code, _, _ = run(capsys, ["report", "--input", csv_path, "--out", out,
                              "--background", "10", "--shap-points", "2"]
                     + FAST_MODEL)
    assert code == 0
    # matplotlib is not a dependency: a stand-in records what would be drawn
    drawn = []
    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.plot = lambda xs, ys, label: drawn.append((list(xs), len(ys), label))
    pyplot.xlabel = lambda label: drawn.append(("xlabel", label))
    pyplot.legend = pyplot.show = lambda: None
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    names = sorted(n for n in os.listdir(out) if n.endswith(".csv"))
    assert {"features.csv", "momentum.csv", "cusum.csv", "shift.csv",
            "shap.csv", "shap_points.csv"} <= set(names)
    for name in names:
        with open(os.path.join(out, name), newline="") as fh:
            header, *rows = csv.reader(fh)
        drawn.clear()
        monkeypatch.setattr(sys, "argv", ["plot.py", os.path.join(out, name)])
        runpy.run_path(os.path.join(out, "plot.py"), run_name="__main__")
        *lines, xlabel = drawn
        assert lines, name
        try:
            xs, label = [float(r[0]) for r in rows], header[0]
        except ValueError:      # text first column: plotted by row number
            xs, label = list(range(1, len(rows) + 1)), "row"
        assert name not in ("features.csv", "shap.csv") or label == "row"
        assert xlabel == ("xlabel", label), name
        for line_xs, n_ys, _ in lines:
            assert line_xs == xs and n_ys == len(rows), name


@pytest.mark.parametrize("step, dest", [
    (step, dest) for step in REPORT_STEPS
    for dest in build_parser().commands[step].options
    if (step, dest) != ("shap", "model")
])
def test_report_flags_match_their_commands(step, dest):
    commands = build_parser().commands
    own = commands[step].options[dest]
    report = commands["report"].options[dest]
    assert (report.type, report.default, report.help, report.choices) == \
        (own.type, own.default, own.help, own.choices)


def test_report_has_no_model_flag():
    # `report` hands its `shap` step the net its `train` step trained
    assert "model" not in build_parser().commands["report"].options


# flags that keep each run small; the read check passes without them too
SMALL_RUN = {
    "test-momentum": ["--replicates", "1000"],
    "train": FAST_MODEL,
    "evaluate": [*FAST_MODEL, "--eval-seeds", "1"],
    "shap": ["--background", "5", "--shap-points", "1"],
    "synth": ["--matches", "2", "--points", "30"],
    "report": ["--replicates", "1000", *FAST_MODEL, "--background", "5",
               "--shap-points", "1"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_option_is_read(command, tmp_path, capsys, monkeypatch):
    # an option the run never reads is accepted and silently ignored
    path = tmp_path / "points.csv"
    path.write_text(corpus.corpus_csv(3, 120, 0.1, 1))
    argv = [command, "--out", str(tmp_path / "out"), *SMALL_RUN.get(command, [])]
    if "input" in build_parser().commands[command].options:
        argv += ["--input", str(path)]
    if command == "shap":
        assert main(["train", "--input", str(path), "--out", str(tmp_path),
                     *FAST_MODEL]) == 0
        argv += ["--model", str(tmp_path / "model.json")]

    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = build_parser()
    parse = parser.parse_args
    parser.parse_args = lambda argv: Recording(**vars(parse(argv)))
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    assert main(argv) == 0
    capsys.readouterr()
    unread = {"config", *parser.commands[command].options} - {"help"} - reads
    assert not unread

def test_diverging_descent_exits_1_without_warnings(csv_path, tmp_path):
    code, err = run_process(["train", "--input", csv_path,
                             "--out", str(tmp_path / "x"),
                             "--learning-rate", "1.7e308"])
    assert code == 1
    assert err.startswith("error:") and "diverged" in err
    assert "Warning" not in err


def test_count_too_large_to_allocate_exits_1_without_traceback(tmp_path):
    # the exact test's first array already fails, so nothing is allocated
    path = tmp_path / "points.csv"
    path.write_text(corpus.corpus_csv(1, 300, 0.1, 1))
    code, err = run_process(["test-momentum", "--input", str(path),
                             "--out", str(tmp_path / "x"), "--exact",
                             "--replicates", "10000000000000"])
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err, err


def test_empty_test_split_is_a_domain_error(tmp_path, capsys):
    # a 10-point match: --split 0.95 leaves no test rows, which train,
    # evaluate and shap refuse before any work, writing nothing
    path = tmp_path / "ten.csv"
    path.write_text(match_csv([1, 0, 1, 1, 0, 0, 1, 0, 1, 0], seed=3))
    model_dir = str(tmp_path / "model")
    assert run(capsys, ["train", "--input", str(path), "--out", model_dir,
                        "--split", "0.5", *FAST_MODEL])[0] == 0
    model = os.path.join(model_dir, "model.json")
    for i, argv in enumerate([["train", *FAST_MODEL],
                              ["evaluate", "--eval-seeds", "2", *FAST_MODEL],
                              ["shap", "--model", model]]):
        out = tmp_path / f"out{i}"
        code, summary, err = run(capsys, argv + [
            "--input", str(path), "--out", str(out), "--split", "0.95"])
        assert code == 1 and summary == {}
        assert err.startswith("error:") and "split" in err, err
        assert not out.exists()


@pytest.mark.parametrize("command", ["momentum", "changepoints", "shift",
                                     "train", "evaluate", "shap", "report"])
def test_one_point_match_is_a_domain_error(command, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(match_csv([1]))
    argv = [command, "--input", str(path), "--out", str(tmp_path / "x")]
    code, err = run_process(argv + (["--model", "m.json"]
                                    if command == "shap" else []))
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in err, err


@pytest.mark.parametrize("argv", [
    ["train", "--split", "1.5"],
    ["train", "--split", "0"],
    ["test-momentum", "--cap", "0"],
    ["test-momentum", "--replicates", "0"],
    ["test-momentum", "--replicates", "999"],
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
    ["momentum", "--features", "x3,x3,x4"],
    ["momentum", "--epsilon", "-1"],
    ["synth", "--points", "0"],
    ["synth", "--matches", "0"],
    ["synth", "--p", "1"],
    ["synth", "--boost", "nan"],
    ["synth", "--boost", "inf"],
    ["synth", "--seed", "-1"],
    ["train", "--seed", "-1"],
    ["shap", "--seed", "-1"],
    ["test-momentum", "--seed", "-1"],
])
def test_out_of_range_flag_is_usage_error(argv, csv_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", csv_path, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}:" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [["test-momentum"], ["train", *FAST_MODEL],
                                  ["synth", "--matches", "2"]])
@pytest.mark.parametrize("below", [False, True])
def test_out_that_is_a_file_is_a_domain_error(argv, below, csv_path, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if below else taken
    if argv[0] != "synth":
        argv = argv + ["--input", csv_path]
    before = sorted(os.listdir(tmp_path))
    code, err = run_process(argv + ["--out", str(out)])
    assert code == 1
    assert err.startswith("error: cannot write ") and str(out) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("line, named", [
    ("cap=abc", "'cap'"),
    ("cap=1", "'cap'"),
    ("scenario=nope", "'scenario'"),
    ("split=2", "'split'"),
    ("features=,", "'features'"),
    ("features=x3,x3,x4", "'features'"),
    ("replicates=999", "'replicates'"),
    ("seed=-1", "'seed'"),
    ("boost=nan", "'boost'"),
    ("boost=inf", "'boost'"),
    ("just text", "bad config line 1"),
    ("exact=ture", "'exact'"),
    ("pooled_weights=yes please", "'pooled_weights'"),
    (b"cap=\xff", "cannot read config"),
])
def test_config_bad_value_exits_1(line, named, csv_path, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    if isinstance(line, bytes):
        cfg.write_bytes(line + b"\n")
    else:
        cfg.write_text(line + "\n")
    code, _, err = run(capsys, ["--config", str(cfg), "momentum",
                                "--input", csv_path,
                                "--out", str(tmp_path / "x")])
    assert code == 1
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("raw, value", [
    ("1", True), ("TRUE", True), ("Yes", True),
    ("0", False), ("false", False), ("NO", False),
])
def test_config_boolean_spellings(raw, value):
    command = build_parser().commands["test-momentum"]
    command.config_defaults({"exact": raw})
    assert command.get_default("exact") is value
