"""Command-line front end for the momentum-analysis pipeline.

Every subcommand writes its artifacts atomically into --out and prints a
one-line JSON summary to stdout. Exit codes: 0 success, 1 domain error,
2 usage error. A flat key=value config file may supply defaults;
command-line flags take precedence.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from functools import cached_property

import numpy as np

from . import ewm, ingest, pipeline, streaks, synth
from .errors import BadModel, MatchPulseError
from .explain import ShapConfig, mean_abs_shap, shapley_values
from .model import (
    BpConfig,
    NetConfig,
    PsoConfig,
    TrainedNet,
    forward,
    scenario_matrix,
    stratified_split,
    train_bp_pso,
)
from .stats import classification_metrics, stepwise_select

PLOT_STUB = """\
# Minimal plotting helper for the CSV artifacts in this directory.
# Usage: python plot.py <artifact.csv>  (requires matplotlib)
import csv, sys
import matplotlib.pyplot as plt

path = sys.argv[1]
with open(path) as fh:
    rows = list(csv.reader(fh))
header, data = rows[0], rows[1:]
xs = [float(r[0]) for r in data]
for j in range(1, len(header)):
    try:
        plt.plot(xs, [float(r[j]) for r in data], label=header[j])
    except ValueError:
        pass
plt.xlabel(header[0]); plt.legend(); plt.show()
"""


def _atomic_write(out_dir, name, content):
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        # mkstemp creates 0600; give the artifact the mode a plain open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return os.path.join(out_dir, name)


def _write_json(out_dir, name, obj):
    return _atomic_write(out_dir, name, json.dumps(obj, indent=1) + "\n")


def _write_csv_rows(out_dir, name, header, rows):
    buf = io.StringIO()
    ingest.write_csv_rows(buf, [header, *rows])
    return _atomic_write(out_dir, name, buf.getvalue())


def _summary(**kwargs):
    print(json.dumps(kwargs, sort_keys=True))


def _load_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MatchPulseError(
                    f"bad config line {line_no}: {line!r} (expected key=value)")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


# ---------------------------------------------------------------- commands

class Run:
    """Inputs of one CLI call, each built on first use and then shared.

    `report` hands one Run to every step, so it parses and analyzes once;
    a step still fails where it first needs an input that cannot be built.
    """

    def __init__(self, args):
        self.args = args

    @cached_property
    def matches(self):
        return ingest.parse_csv(self.args.input)

    @cached_property
    def frames(self):
        return [ingest.derive_features(m) for m in self.matches]

    @cached_property
    def match(self):
        return pipeline.pick_match(self.matches, self.args.match_id)

    @cached_property
    def frame(self):
        """Derived features of the picked match: taken from `frames` when
        every match is derived anyway, else derived alone."""
        match = self.match      # a bad --match-id fails before any derive
        if "frames" in vars(self) or self.args.pooled_weights:
            return next(f for m, f in zip(self.matches, self.frames)
                        if m is match)
        return ingest.derive_features(match)

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


def cmd_ingest(args, run):
    frames = run.frames
    buf = io.StringIO()
    ingest.write_csv_rows(buf, [ingest.CSV_HEADER])
    for f in frames:
        f.to_csv(buf)
    _atomic_write(args.out, "features.csv", buf.getvalue())
    _write_json(args.out, "features.json",
                {"schema_version": 1, "matches": [f.to_json() for f in frames]})
    _summary(command="ingest", matches=len(run.matches),
             points=sum(f.T for f in frames), out=args.out)


def cmd_test_momentum(args, run):
    sequences = [m.outcomes() for m in run.matches]
    table = streaks.contingency_from_sequences(sequences, cap=args.cap)
    chi = streaks.chi_squared_test(table)
    result = {"schema_version": 1, "table": table.to_json(),
              "pearson": chi.to_json()}
    if not chi.validity or args.exact:
        exact = streaks.exact_test(table, replicates=args.replicates,
                                   seed=args.seed)
        result["exact"] = exact.to_json()
    cond = streaks.conditional_win_probs(sequences, cap=args.cap)
    result["conditional_probabilities"] = cond.to_json()
    _write_json(args.out, "momentum_test.json", result)
    _atomic_write(args.out, "contingency.txt", table.format() + "\n")
    _summary(command="test-momentum", chi2=chi.statistic, df=chi.df,
             p_value=chi.p_value, validity=chi.validity, n=table.n)


def cmd_select_features(args, run):
    frames = run.frames
    X = np.vstack([f.features for f in frames])
    y = np.concatenate([f.outcome for f in frames])
    trace = stepwise_select(X, y, feature_ids=list(ingest.FEATURE_IDS))
    _write_json(args.out, "selection.json",
                {"schema_version": 1, **trace.to_json()})
    _summary(command="select-features", selected=trace.final_features,
             auc=trace.final_auc)


def cmd_momentum(args, run):
    match, analysis = run.match, run.momentum
    _write_json(args.out, "weights.json",
                {"schema_version": 1, "match_id": match.match_id,
                 **analysis.weights.to_json()})
    _write_csv_rows(args.out, "momentum.csv", ["t", "M"],
                    enumerate(analysis.momentum.values.tolist(), start=1))
    _summary(command="momentum", match_id=match.match_id,
             points=analysis.momentum.T,
             weights=dict(zip(analysis.weights.column_ids,
                              analysis.weights.weights.tolist())))


def cmd_changepoints(args, run):
    match, analysis = run.match, run.analysis
    cps = analysis.change_points
    _write_json(args.out, "changepoints.json", {
        "schema_version": 1, "match_id": match.match_id,
        "drift": analysis.params.d, "threshold": analysis.params.h,
        "tuned": analysis.tuned_h is not None,
        "converged": analysis.tuner_converged,
        **cps.to_json(),
    })
    _write_csv_rows(args.out, "cusum.csv", ["t", "c_pos", "c_neg", "CP"],
                    zip(range(1, cps.T + 1), analysis.trace.c_pos.tolist(),
                        analysis.trace.c_neg.tolist(), cps.labels().tolist()))
    _summary(command="changepoints", match_id=match.match_id, n=cps.n,
             positive=sum(1 for s in cps.signs if s > 0),
             negative=sum(1 for s in cps.signs if s < 0),
             threshold=analysis.params.h)


def cmd_shift(args, run):
    match, ss = run.match, run.analysis.shift_series
    _write_json(args.out, "shift.json",
                {"schema_version": 1, "match_id": match.match_id,
                 **ss.to_json()})
    _write_csv_rows(args.out, "shift.csv", ["t", "V"],
                    enumerate(ss.values.tolist(), start=1))
    _summary(command="shift", match_id=match.match_id, d_max=ss.d_max,
             anchors=len(ss.anchors))


def _model_configs(args, input_dim):
    return (NetConfig(input_dim, (args.hidden,)),
            PsoConfig(swarm=args.swarm, iterations=args.pso_iterations,
                      seed=args.seed),
            BpConfig(learning_rate=args.learning_rate, epochs=args.epochs))


def cmd_train(args, run):
    X, names, y, col_map = run.scenario
    cols = col_map[args.scenario]
    train_idx, test_idx = stratified_split(y, args.split, args.seed)
    net_cfg, pso_cfg, bp_cfg = _model_configs(args, len(cols))
    net = train_bp_pso(X[np.ix_(train_idx, cols)], y[train_idx],
                       net_cfg, pso_cfg, bp_cfg, seed=args.seed)
    _write_json(args.out, "model.json", net.to_json())
    scores = net.predict_proba(X[np.ix_(test_idx, cols)])
    metrics = classification_metrics(scores, y[test_idx])
    _write_json(args.out, "train_metrics.json", {
        "schema_version": 1, "match_id": run.match.match_id,
        "scenario": args.scenario,
        "columns": [names[c] for c in cols],
        "test_metrics": metrics.to_json(),
    })
    _summary(command="train", match_id=run.match.match_id,
             scenario=args.scenario, test_auc=metrics.auc, final_loss=net.history["final_loss"])


def cmd_evaluate(args, run):
    X, _, y, col_map = run.scenario
    seeds = list(range(args.seed, args.seed + args.eval_seeds))
    net_builder = lambda dim: NetConfig(dim, (args.hidden,))
    pso_cfg = PsoConfig(swarm=args.swarm, iterations=args.pso_iterations)
    bp_cfg = BpConfig(learning_rate=args.learning_rate, epochs=args.epochs)
    table, per_seed = scenario_matrix(X, y, col_map, args.split, seeds,
                                      net_builder, pso_cfg, bp_cfg)
    _write_json(args.out, "scenario_metrics.json", {
        "schema_version": 1, "match_id": run.match.match_id, "seeds": seeds,
        "scenarios": {sid: table[sid].to_json() for sid in col_map},
    })
    _write_csv_rows(
        args.out, "scenario_metrics.csv",
        ["scenario", "precision", "recall", "f1", "auc"],
        [(sid, table[sid].precision, table[sid].recall,
          table[sid].f1, table[sid].auc) for sid in col_map])
    _summary(command="evaluate", match_id=run.match.match_id,
             auc={sid: table[sid].auc for sid in col_map})


def cmd_shap(args, run):
    X, names, y, col_map = run.scenario
    cols = col_map[args.scenario]
    col_names = [names[c] for c in cols]
    try:
        with open(args.model, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise BadModel(f"cannot read model {args.model!r}: {exc}") from None
    net = TrainedNet.from_json(doc)
    train_idx, test_idx = stratified_split(y, args.split, args.seed)
    rng = np.random.default_rng(args.seed)
    bg_idx = rng.choice(train_idx, size=min(args.background, len(train_idx)),
                        replace=False)
    # the scaler works cell by cell, so the background and each instance
    # are scaled once instead of every stacked coalition row
    cfg = ShapConfig(net.scaler.transform(X[np.ix_(bg_idx, cols)]))
    sample = test_idx[:args.shap_points]
    reports = [
        shapley_values(lambda rows: forward(net.config, net.params, rows),
                       net.scaler.transform(X[i, cols])[0], cfg, col_names)
        for i in sample
    ]
    ranking = mean_abs_shap(reports)
    _write_csv_rows(args.out, "shap.csv", ["feature", "mean_abs_phi", "rank"],
                    [(f, v, i + 1) for i, (f, v) in enumerate(ranking)])
    _write_csv_rows(
        args.out, "shap_points.csv",
        ["instance", "feature", "feature_value", "phi"],
        [(i, name, x, phi) for i, r in zip(sample.tolist(), reports)
         for name, x, phi in zip(col_names, X[i, cols].tolist(),
                                 r.phi.tolist())])
    _summary(command="shap", match_id=run.match.match_id,
             instances=len(reports), ranking=[f for f, _ in ranking])


def cmd_synth(args, run):
    boost = None
    if args.boost:
        delta = args.boost
        boost = lambda k: delta if k >= 1 else (-delta if k <= -1 else 0.0)
    cfg = synth.GeneratorConfig(p=args.p, T=args.points, matches=args.matches,
                                seed=args.seed, boost=boost)
    seqs = synth.gen_momentum(cfg)
    buf = io.StringIO()
    synth.sequences_to_csv(seqs, buf)
    _atomic_write(args.out, "synth.csv", buf.getvalue())
    _summary(command="synth", matches=args.matches, points=args.points,
             p=args.p, boost=args.boost, seed=args.seed)


def cmd_report(args, run):
    cmd_ingest(args, run)
    cmd_test_momentum(args, run)
    cmd_momentum(args, run)
    cmd_changepoints(args, run)
    cmd_shift(args, run)
    cmd_train(args, run)
    args.model = os.path.join(args.out, "model.json")
    cmd_shap(args, run)
    _atomic_write(args.out, "plot.py", PLOT_STUB)
    _summary(command="report", out=args.out)


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


def _feature_list(text):
    """argparse type: a non-empty comma-separated list of feature ids."""
    ids = [f.strip() for f in text.split(",") if f.strip()]
    if not ids:
        raise argparse.ArgumentTypeError(
            f"must name at least one feature id, got {text!r}")
    return ids


class _Command(argparse.ArgumentParser):
    """Subcommand parser that keeps its options by dest, so a config file
    can set their defaults through each flag's own type and choices."""

    def __init__(self, *args, **kwargs):
        self.options = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action

    def config_defaults(self, values):
        defaults = {}
        for key, raw in values.items():
            action = self.options.get(key)
            if action is None:
                continue
            if isinstance(action.const, bool):      # store_true
                defaults[key] = raw.lower() in ("1", "true", "yes")
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matchpulse",
        description="Momentum analysis for point-by-point racket-sport data")
    parser.add_argument("--config", help="flat key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Command)
    parser.commands = {}

    def add(name, fn, **kwargs):
        p = parser.commands[name] = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="master RNG seed")
        return p

    def add_input(p, required=True):
        p.add_argument("--input", required=required,
                       help="point-by-point CSV file")
        p.add_argument("--match-id", default=None,
                       help="match to analyze (default: first in file)")

    def add_momentum_opts(p):
        p.add_argument("--features", type=_feature_list,
                       default=",".join(pipeline.DEFAULT_BASE_FEATURES),
                       help="comma-separated feature ids for the momentum composite")
        p.add_argument("--epsilon", type=_POSITIVE_REAL,
                       default=ewm.DEFAULT_EPSILON, help="entropy log offset")
        p.add_argument("--pooled-weights", action="store_true",
                       help="compute entropy weights across all matches")

    def add_cusum_opts(p):
        p.add_argument("--drift", type=_DRIFT, default=None,
                       help="CUSUM drift d (default 0.05 * stdev(M))")
        p.add_argument("--threshold", type=_POSITIVE_REAL, default=None,
                       help="CUSUM threshold h (or tuner starting point)")
        p.add_argument("--target-changepoints", type=_POSITIVE, default=None,
                       help="tune h toward this change-point count")

    def add_model_opts(p):
        p.add_argument("--scenario", default="base_m_cp_v",
                       choices=list(pipeline.SCENARIOS))
        p.add_argument("--split", type=_FRACTION, default=0.8,
                       help="training fraction of the stratified split")
        p.add_argument("--hidden", type=_POSITIVE, default=8,
                       help="hidden layer width")
        p.add_argument("--swarm", type=_POSITIVE, default=30,
                       help="PSO swarm size")
        p.add_argument("--pso-iterations", type=_NON_NEGATIVE, default=100)
        p.add_argument("--learning-rate", type=_POSITIVE_REAL, default=0.05)
        p.add_argument("--epochs", type=_NON_NEGATIVE, default=500,
                       help="gradient-descent epochs after PSO")

    def add_streak_opts(p):
        p.add_argument("--cap", type=_CAP, default=streaks.DEFAULT_CAP,
                       help="pooling cap for streak lengths")
        p.add_argument("--exact", action="store_true",
                       help="always run the Monte-Carlo exact test")
        p.add_argument("--replicates", type=_POSITIVE, default=100_000,
                       help="Monte-Carlo replicates of the exact test")

    def add_shap_opts(p):
        p.add_argument("--background", type=_POSITIVE, default=100,
                       help="background sample size")
        p.add_argument("--shap-points", type=_POSITIVE, default=20,
                       help="number of test instances to attribute")

    p = add("ingest", cmd_ingest, help="parse a CSV and emit derived features")
    add_input(p)

    p = add("test-momentum", cmd_test_momentum,
            help="streak contingency table and independence tests")
    add_input(p)
    add_streak_opts(p)

    p = add("select-features", cmd_select_features,
            help="stepwise AUC feature selection over all matches")
    add_input(p)

    p = add("momentum", cmd_momentum, help="entropy weights and M_t series")
    add_input(p)
    add_momentum_opts(p)

    p = add("changepoints", cmd_changepoints, help="CUSUM change points on M_t")
    add_input(p)
    add_momentum_opts(p)
    add_cusum_opts(p)

    p = add("shift", cmd_shift, help="shift-intensity series V_t")
    add_input(p)
    add_momentum_opts(p)
    add_cusum_opts(p)

    p = add("train", cmd_train, help="train the PSO-seeded network")
    add_input(p)
    add_momentum_opts(p)
    add_cusum_opts(p)
    add_model_opts(p)

    p = add("evaluate", cmd_evaluate,
            help="compare the four scenario input layers")
    add_input(p)
    add_momentum_opts(p)
    add_cusum_opts(p)
    add_model_opts(p)
    p.add_argument("--eval-seeds", type=_POSITIVE, default=5,
                   help="number of split/train seeds to average")

    p = add("shap", cmd_shap, help="exact Shapley attribution of a model")
    add_input(p)
    add_momentum_opts(p)
    add_cusum_opts(p)
    add_model_opts(p)
    p.add_argument("--model", required=True, help="model.json from `train`")
    add_shap_opts(p)

    p = add("synth", cmd_synth, help="generate synthetic point sequences")
    p.add_argument("--matches", type=_POSITIVE, default=31)
    p.add_argument("--points", type=_POSITIVE, default=235)
    p.add_argument("--p", type=_FRACTION, default=0.5, help="base win probability")
    p.add_argument("--boost", type=float, default=0.0,
                   help="streak win-probability boost (0 = null process)")

    p = add("report", cmd_report, help="full pipeline for one match")
    add_input(p)
    add_streak_opts(p)
    add_momentum_opts(p)
    add_cusum_opts(p)
    add_model_opts(p)
    add_shap_opts(p)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()

    # apply config-file defaults before the real parse (CLI flags win)
    if "--config" in argv:
        try:
            cfg_path = argv[argv.index("--config") + 1]
        except IndexError:
            parser.error("--config requires a path")
        try:
            file_values = _load_config_file(cfg_path)
            unknown = set(file_values).difference(
                *(c.options for c in parser.commands.values()))
            if unknown:
                raise MatchPulseError(f"unknown config keys: {sorted(unknown)}")
            for command in parser.commands.values():
                command.config_defaults(file_values)
        except (OSError, MatchPulseError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    args = parser.parse_args(argv)
    try:
        args.fn(args, Run(args))
    except MatchPulseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
