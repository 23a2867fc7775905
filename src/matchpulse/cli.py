"""Command-line front end for the momentum-analysis pipeline.

A call writes its artifacts into --out and prints its one-line JSON
summaries to stdout only after the whole command has succeeded. A failed
call prints its `error:` line and creates or changes nothing in --out;
only a rename that fails partway through can leave a subset of the files.
Exit codes: 0 success, 1 domain error, 2 usage error. A flat key=value
config file may supply defaults; command-line flags take precedence.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
import tempfile
from functools import cached_property

# set before numpy loads: tiny matrices gain nothing from a BLAS thread pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import DEFAULT_BASE_FEATURES, DEFAULT_CAP, DEFAULT_EPSILON, SCENARIOS
from .errors import BadModel, DimMismatch, EmptyInput, MatchPulseError, SingleClass


def _register_lazily(*names):
    """Put each package module in sys.modules and on the package now, but
    run its body only on its first attribute access.

    Each CLI call runs one subcommand in a fresh process, so it executes
    just the modules that subcommand uses. A module imported before the CLI
    is kept as it is.
    """
    package = sys.modules[__package__]
    for name in names:
        full = f"{__package__}.{name}"
        if full in sys.modules:
            continue
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(package, name, module)


_register_lazily("changepoint", "ewm", "explain", "ingest", "model",
                 "pipeline", "shift", "stats", "streaks", "synth")

# binds the registered modules without running them
from . import ewm, explain, ingest, model, pipeline, stats, streaks, synth  # noqa: E402


PLOT_STUB = """\
# Minimal plotting helper for the CSV artifacts in this directory.
# Usage: python plot.py <artifact.csv>  (requires matplotlib)
import csv, sys
import matplotlib.pyplot as plt

path = sys.argv[1]
with open(path) as fh:
    rows = list(csv.reader(fh))
header, data = rows[0], rows[1:]
try:
    xs = [float(r[0]) for r in data]
except ValueError:  # a text first column (match id, feature): plot by row
    xs, header[0] = list(range(1, len(data) + 1)), "row"
for j in range(1, len(header)):
    try:
        plt.plot(xs, [float(r[j]) for r in data], label=header[j])
    except ValueError:
        pass
plt.xlabel(header[0]); plt.legend(); plt.show()
"""


def _atomic_write(out_dir, name, write):
    """Create out_dir/name through a temporary file, which write(fh) fills
    as an open text file, and a rename.

    MatchPulseError naming the path if it cannot be written, e.g. when
    out_dir is a file or lies under one.
    """
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                write(fh)
            # mkstemp creates 0600; give the artifact the mode a plain open() would
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise MatchPulseError(f"cannot write {path!r}: {exc}") from None


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MatchPulseError(f"cannot read config {path!r}: {exc}") from None
    values = {}
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MatchPulseError(
                f"bad config line {line_no}: {line!r} (expected key=value)")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _derive(match):
    """Derived features of one match; a warning on stderr for each feed
    column with no value in it, whose features are then zero."""
    frame = ingest.derive_features(match)
    for column, features in ingest.IMPUTED_FEATURES.items():
        if len(frame.imputed.get(features[0], ())) == frame.T:
            print(f"warning: match {match.match_id!r} has no {column} value, "
                  f"so {', '.join(features)} are 0 at every point",
                  file=sys.stderr)
    return frame


# ---------------------------------------------------------------- commands

class Run:
    """Inputs of one CLI call, each built on first use and then shared, and
    its output, `files` (name -> write(fh), in write order) and summary
    `lines`, which `main` writes and prints only if the command succeeds.

    `report` hands one Run to every step, so it parses and analyzes once;
    a step still fails where it first needs an input that cannot be built.
    """

    def __init__(self, args):
        self.args = args
        self.files = {}
        self.lines = []

    def write_json(self, name, obj):
        """obj as indented JSON, with "schema_version": 1 as its first key."""
        self.files[name] = lambda fh: fh.write(
            json.dumps({"schema_version": 1, **obj}, indent=1) + "\n")

    def write_csv_rows(self, name, header, rows):
        self.files[name] = lambda fh: ingest.write_csv_rows(fh, [header, *rows])

    def summary(self, **kwargs):
        self.lines.append(json.dumps(kwargs, sort_keys=True))

    @cached_property
    def matches(self):
        return ingest.parse_csv(self.args.input)

    @cached_property
    def frames(self):
        return [_derive(m) for m in self.matches]

    @cached_property
    def match(self):
        """The --match-id match, or the first in the file."""
        wanted = self.args.match_id
        for m in self.matches:
            if wanted in (None, m.match_id):
                return m
        raise MatchPulseError(f"match id not found: {wanted!r}")

    @cached_property
    def frame(self):
        """Derived features of the picked match: taken from `frames` when
        every match is derived anyway, else derived alone."""
        match = self.match      # a bad --match-id fails before any derive
        if "frames" in vars(self) or self.args.pooled_weights:
            return next(f for m, f in zip(self.matches, self.frames)
                        if m is match)
        return _derive(match)

    @cached_property
    def momentum(self):
        """Entropy weights and M_t of the picked match."""
        frame, args = self.frame, self.args
        weights = None
        if args.pooled_weights:
            weights = ewm.pooled_entropy_weights(
                [ingest.standardize(f, self.args.features) for f in self.frames],
                epsilon=args.epsilon)
        return pipeline.analyze_momentum(frame, self.args.features,
                                         epsilon=args.epsilon, weights=weights)

    @cached_property
    def analysis(self):
        """`momentum` with CUSUM change points and V_t filled in."""
        args = self.args
        return pipeline.detect_changepoints(
            self.momentum, drift=args.drift, threshold=args.threshold,
            target=args.target_changepoints)

    @cached_property
    def scenario(self):
        """(X, column names, y, scenario id -> column indices)."""
        X, names, y = pipeline.scenario_inputs(self.analysis, self.args.features)
        return X, names, y, pipeline.scenario_column_map(names, self.args.features)

    @cached_property
    def net(self):
        """The --model net, unless `train` has set the one it trained."""
        try:
            with open(self.args.model, encoding="utf-8") as fh:
                return model.TrainedNet.from_json(json.load(fh))
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise BadModel(f"cannot read model {self.args.model!r}: {exc}") from None


def cmd_ingest(args, run):
    frames = run.frames

    def write_features(fh):
        # one match's rows at a time: the file is never whole in memory
        ingest.write_csv_rows(fh, [ingest.CSV_HEADER])
        for f in frames:
            f.to_csv(fh)

    run.files["features.csv"] = write_features
    run.write_json("features.json", {"matches": [f.to_json() for f in frames]})
    run.summary(command="ingest", matches=len(run.matches),
                points=sum(f.T for f in frames), out=args.out)


def cmd_test_momentum(args, run):
    sequences = [m.outcomes() for m in run.matches]
    table = streaks.contingency_from_sequences(sequences, cap=args.cap)
    chi = streaks.chi_squared_test(table)
    result = {"table": table.to_json(), "pearson": chi.to_json()}
    if args.exact or not chi.validity:
        exact = streaks.exact_test(table, replicates=args.replicates,
                                   seed=args.seed)
        result["exact"] = exact.to_json()
    cond = streaks.conditional_win_probs(sequences, cap=args.cap)
    result["conditional_probabilities"] = cond.to_json()
    run.write_json("momentum_test.json", result)
    run.files["contingency.txt"] = lambda fh: fh.write(table.format() + "\n")
    run.summary(command="test-momentum", chi2=chi.statistic, df=chi.df,
                p_value=chi.p_value, validity=chi.validity, n=table.n)


def cmd_select_features(args, run):
    frames = run.frames
    X = np.vstack([f.features for f in frames])
    y = np.concatenate([f.outcome for f in frames])
    trace = stats.stepwise_select(X, y, feature_ids=list(ingest.FEATURE_IDS))
    run.write_json("selection.json", trace.to_json())
    run.summary(command="select-features", selected=trace.final_features,
                auc=trace.final_auc)


def cmd_momentum(args, run):
    match, analysis = run.match, run.momentum
    run.write_json("weights.json",
                   {"match_id": match.match_id, **analysis.weights.to_json()})
    run.write_csv_rows("momentum.csv", ["t", "M"],
                       enumerate(analysis.momentum.tolist(), start=1))
    run.summary(command="momentum", match_id=match.match_id,
                points=len(analysis.momentum),
                weights=dict(zip(analysis.weights.column_ids,
                                 analysis.weights.weights.tolist())))


def cmd_changepoints(args, run):
    match, analysis = run.match, run.analysis
    cps, tuned = analysis.change_points, analysis.tuned
    run.write_json("changepoints.json", {
        "match_id": match.match_id,
        "drift": analysis.params.d, "threshold": analysis.params.h,
        "tuned": tuned is not None,
        "converged": tuned.converged if tuned else None,
        **cps.to_json(),
    })
    run.write_csv_rows("cusum.csv", ["t", "c_pos", "c_neg", "CP"],
                       zip(range(1, cps.T + 1), analysis.trace.c_pos.tolist(),
                           analysis.trace.c_neg.tolist(), cps.labels().tolist()))
    run.summary(command="changepoints", match_id=match.match_id, n=cps.n,
                positive=sum(1 for s in cps.signs if s > 0),
                negative=sum(1 for s in cps.signs if s < 0),
                threshold=analysis.params.h)


def cmd_shift(args, run):
    match, ss = run.match, run.analysis.shift_series
    run.write_json("shift.json", {"match_id": match.match_id, **ss.to_json()})
    run.write_csv_rows("shift.csv", ["t", "V"],
                       enumerate(ss.values.tolist(), start=1))
    run.summary(command="shift", match_id=match.match_id, d_max=ss.d_max,
                anchors=len(ss.anchors))


def _model_configs(args):
    """(input width -> NetConfig, PsoConfig, BpConfig) from the model flags."""
    return (lambda input_dim: model.NetConfig(input_dim, (args.hidden,)),
            model.PsoConfig(swarm=args.swarm, iterations=args.pso_iterations,
                            seed=args.seed),
            model.BpConfig(learning_rate=args.learning_rate, epochs=args.epochs))


def cmd_train(args, run):
    X, names, y, col_map = run.scenario
    cols = col_map[args.scenario]
    train_idx, test_idx = model.stratified_split(y, args.split, args.seed)
    if stats.single_class(y[test_idx]):
        raise SingleClass("test split lost a class")
    net_builder, pso_cfg, bp_cfg = _model_configs(args)
    net = model.train_bp_pso(X[np.ix_(train_idx, cols)], y[train_idx],
                             net_builder(len(cols)), pso_cfg, bp_cfg)
    run.net = net       # `report`'s `shap` step attributes this net
    run.write_json("model.json", net.to_json())
    scores = net.predict_proba(X[np.ix_(test_idx, cols)])
    metrics = stats.classification_metrics(scores, y[test_idx])
    run.write_json("train_metrics.json", {
        "match_id": run.match.match_id, "scenario": args.scenario,
        "columns": [names[c] for c in cols],
        "test_metrics": metrics.to_json(),
    })
    run.summary(command="train", match_id=run.match.match_id,
                scenario=args.scenario, test_auc=metrics.auc,
                final_loss=net.history["final_loss"])


def cmd_evaluate(args, run):
    X, _, y, col_map = run.scenario
    seeds = list(range(args.seed, args.seed + args.eval_seeds))
    # scenario_matrix gives each seed's nets that seed's PSO stream
    table, _ = model.scenario_matrix(X, y, col_map, args.split, seeds,
                                     *_model_configs(args))
    run.write_json("scenario_metrics.json", {
        "match_id": run.match.match_id, "seeds": seeds,
        "scenarios": {sid: table[sid].to_json() for sid in col_map},
    })
    run.write_csv_rows(
        "scenario_metrics.csv", ["scenario", "precision", "recall", "f1", "auc"],
        [(sid, table[sid].precision, table[sid].recall,
          table[sid].f1, table[sid].auc) for sid in col_map])
    run.summary(command="evaluate", match_id=run.match.match_id,
                auc={sid: table[sid].auc for sid in col_map})


def cmd_shap(args, run):
    X, names, y, col_map = run.scenario
    cols = col_map[args.scenario]
    col_names = [names[c] for c in cols]
    train_idx, test_idx = model.stratified_split(y, args.split, args.seed)
    if not len(test_idx):
        raise EmptyInput(f"--split {args.split} leaves no test rows to attribute")
    net = run.net
    if net.config.input_dim != len(cols):
        raise DimMismatch(
            f"model {args.model!r} takes {net.config.input_dim} inputs, but "
            f"scenario {args.scenario!r} has {len(cols)} columns")
    rng = np.random.default_rng(args.seed)
    bg_idx = rng.choice(train_idx, size=min(args.background, len(train_idx)),
                        replace=False)
    # the scaler works cell by cell, so the background and each instance
    # are scaled once instead of every stacked coalition row
    background = net.scaler.transform(X[np.ix_(bg_idx, cols)])
    sample = test_idx[:args.shap_points]
    reports = [
        explain.shapley_values(
            lambda rows: model.forward(net.config, net.params, rows),
            net.scaler.transform(X[i, cols])[0], background)
        for i in sample
    ]
    ranking = explain.mean_abs_shap(reports, col_names)
    run.write_csv_rows("shap.csv", ["feature", "mean_abs_phi", "rank"],
                       [(f, v, i + 1) for i, (f, v) in enumerate(ranking)])
    run.write_csv_rows(
        "shap_points.csv", ["instance", "feature", "feature_value", "phi"],
        [(i, name, x, phi) for i, r in zip(sample.tolist(), reports)
         for name, x, phi in zip(col_names, X[i, cols].tolist(),
                                 r.phi.tolist())])
    run.summary(command="shap", match_id=run.match.match_id,
                instances=len(reports), ranking=[f for f, _ in ranking])


def cmd_synth(args, run):
    boost = None
    if args.boost:
        delta = args.boost
        boost = lambda k: delta if k >= 1 else (-delta if k <= -1 else 0.0)
    cfg = synth.GeneratorConfig(p=args.p, T=args.points, matches=args.matches,
                                seed=args.seed, boost=boost)
    seqs = synth.gen_momentum(cfg)
    run.files["synth.csv"] = lambda fh: synth.sequences_to_csv(seqs, fh)
    run.summary(command="synth", matches=args.matches, points=args.points,
                p=args.p, boost=args.boost, seed=args.seed)


def cmd_report(args, run):
    for step in REPORT_STEPS:
        COMMANDS[step][0](args, run)
    run.files["plot.py"] = lambda fh: fh.write(PLOT_STUB)
    run.summary(command="report", out=args.out)


# ---------------------------------------------------------------- parser

def _checked(kind, ok, rule):
    """argparse type: a `kind` value for which ok(value) holds."""
    def convert(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    convert.__name__ = kind.__name__        # argparse: "invalid int value"
    return convert


_POSITIVE = _checked(int, lambda v: v >= 1, ">= 1")
_NON_NEGATIVE = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE_REAL = _checked(float, lambda v: math.isfinite(v) and v > 0,
                          "finite and > 0")
_CAP = _checked(int, lambda v: v >= 2, ">= 2")
_FRACTION = _checked(float, lambda v: 0 < v < 1, "between 0 and 1")
_DRIFT = _checked(float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
_FINITE = _checked(float, math.isfinite, "finite")
_REPLICATES = _checked(int, lambda v: v >= 1000, ">= 1000")


def _feature_list(text):
    """argparse type: a non-empty comma-separated list of distinct feature ids."""
    ids = [f.strip() for f in text.split(",") if f.strip()]
    if not ids:
        raise argparse.ArgumentTypeError(
            f"must name at least one feature id, got {text!r}")
    if len(set(ids)) < len(ids):
        raise argparse.ArgumentTypeError(
            f"must name each feature id once, got {text!r}")
    return ids


_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


class _Command(argparse.ArgumentParser):
    """Subcommand parser that keeps its options by dest, so a config file
    can set their defaults through each flag's own type and choices."""

    def __init__(self, *args, **kwargs):
        self.options = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if kwargs.get("action") != "help":      # argparse's own -h/--help
            self.options[action.dest] = action
        return action

    def config_defaults(self, values):
        defaults = {}
        for key, raw in values.items():
            action = self.options.get(key)
            if action is None:
                continue
            if isinstance(action.const, bool):      # store_true
                if raw.lower() not in _BOOLEANS:
                    raise MatchPulseError(f"config key {key!r}: {raw!r} is not "
                                          f"one of {' '.join(_BOOLEANS)}")
                defaults[key] = _BOOLEANS[raw.lower()]
                continue
            try:
                value = action.type(raw) if action.type else raw
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise MatchPulseError(f"config key {key!r}: {exc}") from None
            if action.choices is not None and value not in action.choices:
                raise MatchPulseError(f"config key {key!r}: {value!r} is not "
                                      f"one of {sorted(action.choices)}")
            defaults[key] = value
        self.set_defaults(**defaults)


def _seed_opt(p):
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0,
                   help="master RNG seed")


def _input_opts(p):
    p.add_argument("--input", help="point-by-point CSV file")


def _streak_opts(p):
    p.add_argument("--cap", type=_CAP, default=DEFAULT_CAP,
                   help="pooling cap for streak lengths")
    p.add_argument("--exact", action="store_true",
                   help="always run the Monte-Carlo exact test")
    p.add_argument("--replicates", type=_REPLICATES, default=100_000,
                   help="Monte-Carlo replicates of the exact test")


def _momentum_opts(p):
    p.add_argument("--match-id", default=None,
                   help="match to analyze (default: first in file)")
    p.add_argument("--features", type=_feature_list,
                   default=",".join(DEFAULT_BASE_FEATURES),
                   help="comma-separated feature ids for the momentum composite")
    p.add_argument("--epsilon", type=_POSITIVE_REAL,
                   default=DEFAULT_EPSILON, help="entropy log offset")
    p.add_argument("--pooled-weights", action="store_true",
                   help="compute entropy weights across all matches")


def _cusum_opts(p):
    p.add_argument("--drift", type=_DRIFT, default=None,
                   help="CUSUM drift d (default 0.05 * stdev(M))")
    p.add_argument("--threshold", type=_POSITIVE_REAL, default=None,
                   help="CUSUM threshold h (or tuner starting point)")
    p.add_argument("--target-changepoints", type=_POSITIVE, default=None,
                   help="tune h toward this change-point count")


def _scenario_opt(p):
    p.add_argument("--scenario", default="base_m_cp_v",
                   choices=list(SCENARIOS))


def _split_opt(p):
    p.add_argument("--split", type=_FRACTION, default=0.8,
                   help="training fraction of the stratified split")


def _model_opts(p):
    p.add_argument("--hidden", type=_POSITIVE, default=8,
                   help="hidden layer width")
    p.add_argument("--swarm", type=_POSITIVE, default=30,
                   help="PSO swarm size")
    p.add_argument("--pso-iterations", type=_NON_NEGATIVE, default=100)
    p.add_argument("--learning-rate", type=_POSITIVE_REAL, default=0.05)
    p.add_argument("--epochs", type=_NON_NEGATIVE, default=500,
                   help="gradient-descent epochs after PSO")


def _eval_seeds_opt(p):
    p.add_argument("--eval-seeds", type=_POSITIVE, default=5,
                   help="number of split/train seeds to average")


def _model_file_opt(p):
    p.add_argument("--model", help="model.json from `train`")


def _shap_opts(p):
    p.add_argument("--background", type=_POSITIVE, default=100,
                   help="background sample size")
    p.add_argument("--shap-points", type=_POSITIVE, default=20,
                   help="number of test instances to attribute")


def _synth_opts(p):
    p.add_argument("--matches", type=_POSITIVE, default=31)
    p.add_argument("--points", type=_POSITIVE, default=235)
    p.add_argument("--p", type=_FRACTION, default=0.5, help="base win probability")
    p.add_argument("--boost", type=_FINITE, default=0.0,
                   help="streak win-probability boost (0 = null process)")


_ANALYSIS_GROUPS = (_input_opts, _momentum_opts, _cusum_opts)
# `shap` splits the match as `train` does, but trains nothing
_SPLIT_GROUPS = (_seed_opt, *_ANALYSIS_GROUPS, _scenario_opt, _split_opt)

# name -> (function, help, option groups), in `--help` order
COMMANDS = {
    "ingest": (cmd_ingest, "parse a CSV and emit derived features",
               (_input_opts,)),
    "test-momentum": (cmd_test_momentum,
                      "streak contingency table and independence tests",
                      (_seed_opt, _input_opts, _streak_opts)),
    "select-features": (cmd_select_features,
                        "stepwise AUC feature selection over all matches",
                        (_input_opts,)),
    "momentum": (cmd_momentum, "entropy weights and M_t series",
                 (_input_opts, _momentum_opts)),
    "changepoints": (cmd_changepoints, "CUSUM change points on M_t", _ANALYSIS_GROUPS),
    "shift": (cmd_shift, "shift-intensity series V_t", _ANALYSIS_GROUPS),
    "train": (cmd_train, "train the PSO-seeded network", (*_SPLIT_GROUPS, _model_opts)),
    "evaluate": (cmd_evaluate, "compare the four scenario input layers",
                 (_seed_opt, *_ANALYSIS_GROUPS, _split_opt, _model_opts,
                  _eval_seeds_opt)),
    "shap": (cmd_shap, "exact Shapley attribution of a model",
             (*_SPLIT_GROUPS, _model_file_opt, _shap_opts)),
    "synth": (cmd_synth, "generate synthetic point sequences", (_seed_opt, _synth_opts)),
}
REPORT_STEPS = ("ingest", "test-momentum", "momentum", "changepoints", "shift",
                "train", "shap")
# `--seed` first, then the steps' groups once each; `shap` takes `train`'s net
COMMANDS["report"] = (
    cmd_report, "full pipeline for one match",
    (_seed_opt, *dict.fromkeys(group for step in REPORT_STEPS
                               for group in COMMANDS[step][2]
                               if group not in (_seed_opt, _model_file_opt))))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matchpulse",
        description="Momentum analysis for point-by-point racket-sport data")
    parser.add_argument("--config", help="flat key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Command)
    parser.commands = {}
    for name, (_, help_text, groups) in COMMANDS.items():
        p = parser.commands[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default="out", help="output directory")
        for group in groups:
            group(p)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()

    args = parser.parse_args(argv)
    try:
        # config-file values become defaults for a second parse (CLI flags win)
        if args.config is not None:
            file_values = _load_config_file(args.config)
            unknown = set(file_values).difference(
                *(c.options for c in parser.commands.values()))
            if unknown:
                raise MatchPulseError(f"unknown config keys: {sorted(unknown)}")
            for command in parser.commands.values():
                command.config_defaults(file_values)
            args = parser.parse_args(argv)
        # checked here, not by argparse, so that a config file can supply them
        command = parser.commands[args.command]
        missing = [f"--{dest}" for dest in ("input", "model")
                   if dest in command.options and getattr(args, dest) is None]
        if missing:
            command.error("the following arguments are required: "
                          + ", ".join(missing))
        run = Run(args)
        COMMANDS[args.command][0](args, run)
        for name, write in run.files.items():
            _atomic_write(args.out, name, write)
        for line in run.lines:
            print(line)
    # MemoryError: a count too large to allocate, e.g. --replicates 10**13
    except (MatchPulseError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
