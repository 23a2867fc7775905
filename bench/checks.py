"""Output checks for one CLI call: summary line, artifacts and invariants.

Each check returns a list of problems; an empty list means the call's
outputs are correct. The checks read only what the call wrote to stdout
and to its --out directory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

BASE_FEATURES = ["x3", "x4", "x6", "x7", "x9", "x10"]
MODEL_COLUMNS = BASE_FEATURES + ["M", "CP", "V"]
SCENARIOS = {"base", "base_m", "base_m_cp", "base_m_cp_v"}

ARTIFACTS = {
    "ingest": ["features.csv", "features.json"],
    "test-momentum": ["momentum_test.json", "contingency.txt"],
    "changepoints": ["changepoints.json", "cusum.csv"],
    "select-features": ["selection.json"],
    "train": ["model.json", "train_metrics.json"],
    "evaluate": ["scenario_metrics.json", "scenario_metrics.csv"],
    "shap": ["shap.csv", "shap_points.csv"],
}
ARTIFACTS["report"] = (
    ARTIFACTS["ingest"] + ARTIFACTS["test-momentum"] + ARTIFACTS["changepoints"]
    + ARTIFACTS["train"] + ARTIFACTS["shap"]
    + ["weights.json", "momentum.csv", "shift.json", "shift.csv", "plot.py"])


def _load(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def _unit(p):
    return isinstance(p, (int, float)) and 0.0 <= p <= 1.0


def _momentum_test(out):
    doc = _load(out, "momentum_test.json")
    populated = sum(1 for m in doc["table"]["row_margins"] if m > 0)
    problems = []
    if doc["pearson"]["df"] != populated - 1:
        problems.append(f"test-momentum: df {doc['pearson']['df']} != "
                        f"populated rows {populated} - 1")
    for test in ("pearson", "exact"):
        if test in doc and not _unit(doc[test]["p_value"]):
            problems.append(f"test-momentum: {test} p outside [0, 1]")
    return problems


def _changepoints(out, target):
    doc = _load(out, "changepoints.json")
    with open(os.path.join(out, "cusum.csv"), encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    problems = []
    if rows != doc["T"]:
        problems.append(f"changepoints: cusum.csv has {rows} rows, T={doc['T']}")
    if target is not None and not (doc["converged"]
                                   or abs(len(doc["times"]) - target) <= 1):
        problems.append(f"changepoints: tuner neither converged nor within 1 "
                        f"of {target} (n={len(doc['times'])})")
    return problems


def _shap(out):
    with open(os.path.join(out, "shap.csv"), encoding="utf-8") as fh:
        ranked = [row["feature"] for row in csv.DictReader(fh)]
    if sorted(ranked) != sorted(MODEL_COLUMNS):
        return [f"shap: ranking {ranked} does not list the 9 model columns"]
    return []


def _evaluate(out):
    scen = _load(out, "scenario_metrics.json")["scenarios"]
    problems = []
    if set(scen) != SCENARIOS:
        problems.append(f"evaluate: scenarios {sorted(scen)}")
    problems += [f"evaluate: {sid} AUC {m['auc']} outside [0, 1]"
                 for sid, m in scen.items() if not _unit(m["auc"])]
    return problems


def _ingest(out, corpus, summary=None):
    problems = []
    counts = (corpus["matches"], corpus["rows"])
    if summary and (summary.get("matches"), summary.get("points")) != counts:
        problems.append(f"ingest: summary {summary} disagrees with corpus")
    if len(_load(out, "features.json")["matches"]) != corpus["matches"]:
        problems.append("ingest: features.json match count")
    return problems


def _train(out):
    auc = _load(out, "train_metrics.json")["test_metrics"]["auc"]
    _load(out, "model.json")
    return [] if _unit(auc) else [f"train: test AUC {auc} outside [0, 1]"]


def _select(out):
    doc = _load(out, "selection.json")
    valid = {f"x{i}" for i in range(1, 17)}
    if not set(doc["final_features"]) <= valid or not _unit(doc["final_auc"]):
        return ["select-features: bad selection.json"]
    return []


def check_call(command, argv, out, stdout, corpus):
    """Problems with one successful call's outputs (empty when correct)."""
    lines = stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"{command}: last stdout line is not JSON"]
    if not isinstance(summary, dict) or summary.get("command") != command:
        return [f"{command}: summary does not name the command: {lines[-1]}"]
    missing = [n for n in ARTIFACTS[command]
               if not os.path.isfile(os.path.join(out, n))]
    if missing:
        return [f"{command}: missing artifacts {missing}"]
    target = None
    if "--target-changepoints" in argv:
        target = int(argv[argv.index("--target-changepoints") + 1])
    try:
        if command == "ingest":
            return _ingest(out, corpus, summary)
        if command == "test-momentum":
            return _momentum_test(out)
        if command == "changepoints":
            return _changepoints(out, target)
        if command == "select-features":
            return _select(out)
        if command == "train":
            return _train(out)
        if command == "evaluate":
            return _evaluate(out)
        if command == "shap":
            return _shap(out)
        if command == "report":
            return (_ingest(out, corpus) + _momentum_test(out)
                    + _changepoints(out, target) + _train(out) + _shap(out))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command}: unreadable artifact: {exc!r}"]
    return []


def artifact_digests(out):
    """name -> (SHA-256, bytes) of every file the call left in `out`."""
    digests = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name.startswith(".") or not os.path.isfile(path):
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        digests[name] = (hashlib.sha256(data).hexdigest(), len(data))
    return digests
