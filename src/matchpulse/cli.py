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
    scenario_matrix,
    stratified_split,
    train_bp_pso,
)
from .stats import classification_metrics, roc_auc, stepwise_select

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
    buf.write(",".join(str(h) for h in header) + "\n")
    for row in rows:
        buf.write(",".join(
            repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
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
    def features(self):
        return [f.strip() for f in self.args.features.split(",") if f.strip()]

    @cached_property
    def match(self):
        return pipeline.pick_match(self.matches, self.args.match_id)

    @cached_property
    def momentum(self):
        """Entropy weights and M_t of the picked match."""
        # pick first, so a bad --match-id fails before any frame is derived
        match, args = self.match, self.args
        weights = None
        if args.pooled_weights:
            weights = ewm.pooled_entropy_weights(
                [ingest.standardize(f, self.features) for f in self.frames],
                epsilon=args.epsilon)
        return pipeline.analyze_momentum(match, self.features,
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
        X, names, y = pipeline.scenario_inputs(self.analysis, self.features)
        return X, names, y, pipeline.scenario_column_map(names, self.features)


def cmd_ingest(args, run):
    frames = run.frames
    buf = io.StringIO()
    for i, f in enumerate(frames):
        sub = io.StringIO()
        f.to_csv(sub)
        text = sub.getvalue()
        if i:
            text = text.split("\n", 1)[1]
        buf.write(text)
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
                    [(t + 1, float(v))
                     for t, v in enumerate(analysis.momentum.values)])
    _summary(command="momentum", match_id=match.match_id,
             points=analysis.momentum.T,
             weights=dict(zip(analysis.weights.column_ids,
                              [float(w) for w in analysis.weights.weights])))


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
    labels = cps.labels()
    _write_csv_rows(args.out, "cusum.csv", ["t", "c_pos", "c_neg", "CP"],
                    [(t + 1, float(analysis.trace.c_pos[t]),
                      float(analysis.trace.c_neg[t]), int(labels[t]))
                     for t in range(cps.T)])
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
                    [(t + 1, float(v)) for t, v in enumerate(ss.values)])
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
    buf = io.StringIO()
    net.save(buf)
    _atomic_write(args.out, "model.json", buf.getvalue() + "\n")
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
    cfg = ShapConfig(X[np.ix_(bg_idx, cols)])
    sample = test_idx[:args.shap_points]
    reports = [
        shapley_values(net.predict_proba, X[i, cols], cfg, col_names)
        for i in sample
    ]
    ranking = mean_abs_shap(reports)
    _write_csv_rows(args.out, "shap.csv", ["feature", "mean_abs_phi", "rank"],
                    [(f, v, i + 1) for i, (f, v) in enumerate(ranking)])
    _write_csv_rows(
        args.out, "shap_points.csv",
        ["instance", "feature", "feature_value", "phi"],
        [(int(i), col_names[j], float(X[i, cols[j]]), float(r.phi[j]))
         for i, r in zip(sample, reports) for j in range(len(cols))])
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

def build_parser():
    parser = argparse.ArgumentParser(
        prog="matchpulse",
        description="Momentum analysis for point-by-point racket-sport data")
    parser.add_argument("--config", help="flat key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
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
        p.add_argument("--features",
                       default=",".join(pipeline.DEFAULT_BASE_FEATURES),
                       help="comma-separated feature ids for the momentum composite")
        p.add_argument("--epsilon", type=float, default=ewm.DEFAULT_EPSILON,
                       help="entropy log offset")
        p.add_argument("--pooled-weights", action="store_true",
                       help="compute entropy weights across all matches")

    def add_cusum_opts(p):
        p.add_argument("--drift", type=float, default=None,
                       help="CUSUM drift d (default 0.05 * stdev(M))")
        p.add_argument("--threshold", type=float, default=None,
                       help="CUSUM threshold h (or tuner starting point)")
        p.add_argument("--target-changepoints", type=int, default=None,
                       help="tune h toward this change-point count")

    def add_model_opts(p):
        p.add_argument("--scenario", default="base_m_cp_v",
                       choices=list(pipeline.SCENARIOS))
        p.add_argument("--split", type=float, default=0.8,
                       help="training fraction of the stratified split")
        p.add_argument("--hidden", type=int, default=8,
                       help="hidden layer width")
        p.add_argument("--swarm", type=int, default=30, help="PSO swarm size")
        p.add_argument("--pso-iterations", type=int, default=100)
        p.add_argument("--learning-rate", type=float, default=0.05)
        p.add_argument("--epochs", type=int, default=500,
                       help="gradient-descent epochs after PSO")

    p = add("ingest", cmd_ingest, help="parse a CSV and emit derived features")
    add_input(p)

    p = add("test-momentum", cmd_test_momentum,
            help="streak contingency table and independence tests")
    add_input(p)
    p.add_argument("--cap", type=int, default=streaks.DEFAULT_CAP,
                   help="pooling cap for streak lengths")
    p.add_argument("--exact", action="store_true",
                   help="always run the Monte-Carlo exact test")
    p.add_argument("--replicates", type=int, default=100_000)

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
    p.add_argument("--eval-seeds", type=int, default=5,
                   help="number of split/train seeds to average")

    p = add("shap", cmd_shap, help="exact Shapley attribution of a model")
    add_input(p)
    add_momentum_opts(p)
    add_cusum_opts(p)
    add_model_opts(p)
    p.add_argument("--model", required=True, help="model.json from `train`")
    p.add_argument("--background", type=int, default=100,
                   help="background sample size")
    p.add_argument("--shap-points", type=int, default=20,
                   help="number of test instances to attribute")

    p = add("synth", cmd_synth, help="generate synthetic point sequences")
    p.add_argument("--matches", type=int, default=31)
    p.add_argument("--points", type=int, default=235)
    p.add_argument("--p", type=float, default=0.5, help="base win probability")
    p.add_argument("--boost", type=float, default=0.0,
                   help="streak win-probability boost (0 = null process)")

    p = add("report", cmd_report, help="full pipeline for one match")
    add_input(p)
    p.add_argument("--cap", type=int, default=streaks.DEFAULT_CAP)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--replicates", type=int, default=100_000)
    add_momentum_opts(p)
    add_cusum_opts(p)
    add_model_opts(p)
    p.add_argument("--background", type=int, default=100)
    p.add_argument("--shap-points", type=int, default=20)

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
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        known = set()
        for action in parser._subparsers._group_actions[0].choices.values():
            known.update(a.dest for a in action._actions)
        unknown = set(file_values) - known
        if unknown:
            print(f"error: unknown config keys: {sorted(unknown)}",
                  file=sys.stderr)
            return 1
        for action in parser._subparsers._group_actions[0].choices.values():
            defaults = {}
            for a in action._actions:
                if a.dest in file_values:
                    raw = file_values[a.dest]
                    defaults[a.dest] = a.type(raw) if a.type else (
                        raw.lower() in ("1", "true", "yes")
                        if isinstance(a.const, bool) else raw)
            action.set_defaults(**defaults)

    args = parser.parse_args(argv)
    try:
        args.fn(args, Run(args))
    except MatchPulseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
