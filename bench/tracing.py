"""In-process traced run: spans around the package's public functions.

During a traced run each function listed in TARGETS is replaced, in every
loaded `matchpulse` module that holds it, by a wrapper that records a span
(name, start, end, parent) and the counts visible at that boundary. The
package's source is not changed; the originals are restored afterwards.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from collections import Counter


def _parse_rows(tr, args, kwargs, result):
    tr.counts["ingest.parse_calls"] += 1
    tr.counts["ingest.rows"] += sum(len(m.points) for m in result)


def _exact(tr, args, kwargs, result):
    tr.counts["streaks.exact_replicates"] += result.replicates or 0


def _calibrate(tr, args, kwargs, result):
    tr.counts["synth.calibrate_datasets"] += (
        args[2] if len(args) > 2 else kwargs["datasets"])


def _tuned(tr, args, kwargs, result):
    tr.counts["changepoint.tune_iterations"] += result.iterations


def _stepwise(tr, args, kwargs, result):
    tr.counts["stats.stepwise_steps"] += len(result.steps)


def _trained(tr, args, kwargs, result):
    tr.counts["model.nets_trained"] += 1
    tr.counts["model.bp_epochs"] += len(result.history["bp_loss"])


def _count_objective(tr, args, kwargs):
    objective = args[0]

    def counted(params):
        tr.counts["model.pso_objective_evals"] += 1
        return objective(params)
    return (counted,) + tuple(args[1:]), kwargs


def _count_predict(tr, args, kwargs):
    predict = args[0]

    def counted(rows):
        tr.counts["explain.predict_calls"] += 1
        tr.counts["explain.predict_rows"] += len(rows)
        return predict(rows)
    return (counted,) + tuple(args[1:]), kwargs


# (module, attribute, span name, hook before the call, hook after it)
TARGETS = [
    ("ingest", "parse_csv", "ingest.parse_csv", None, _parse_rows),
    ("ingest", "derive_features", "ingest.derive_features", None, None),
    ("ingest", "standardize", "ingest.standardize", None, None),
    ("ingest", "FeatureFrame.to_csv", "ingest.features_write", None, None),
    ("ingest", "FeatureFrame.to_json", "ingest.features_write", None, None),
    ("streaks", "contingency_from_sequences", "streaks.contingency", None, None),
    ("streaks", "chi_squared_test", "streaks.chi_squared", None, None),
    ("streaks", "exact_test", "streaks.exact_test", None, _exact),
    ("streaks", "conditional_win_probs", "streaks.conditional_win_probs",
     None, None),
    ("synth", "gen_momentum", "synth.gen_momentum", None, None),
    ("synth", "calibrate", "synth.calibrate", None, _calibrate),
    ("ewm", "entropy_weights", "ewm.entropy_weights", None, None),
    ("ewm", "pooled_entropy_weights", "ewm.pooled_entropy_weights", None, None),
    ("ewm", "momentum_series", "ewm.momentum_series", None, None),
    ("changepoint", "cusum_detect", "changepoint.cusum_detect", None, None),
    ("changepoint", "tune_threshold", "changepoint.tune_threshold", None, _tuned),
    ("shift", "relative_distance", "shift.relative_distance", None, None),
    ("pipeline", "analyze_momentum", "pipeline.analyze_momentum", None, None),
    ("pipeline", "detect_changepoints", "pipeline.detect_changepoints",
     None, None),
    ("pipeline", "scenario_inputs", "pipeline.scenario_inputs", None, None),
    ("stats", "stepwise_select", "stats.stepwise_select", None, _stepwise),
    ("stats", "classification_metrics", "stats.classification_metrics",
     None, None),
    ("model", "pso_optimize", "model.pso_optimize", _count_objective, None),
    ("model", "train_bp_pso", "model.train_bp_pso", None, _trained),
    ("model", "scenario_matrix", "model.scenario_matrix", None, None),
    ("explain", "shapley_values", "explain.shapley_values", _count_predict, None),
]


class Tracer:
    """Spans as [name, start, end, parent index, failed] plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, False])
        self._stack.append(idx)
        try:
            yield
        except BaseException:
            self.spans[idx][4] = True
            self.counts[name + "_failed"] += 1
            raise
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name, before, after):
        def wrapper(*args, **kwargs):
            if before:
                args, kwargs = before(self, args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after:
                after(self, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its wrapper in all loaded package modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "matchpulse" or n.startswith("matchpulse.")]
        undo = []
        try:
            for mod_name, attr, name, before, after in TARGETS:
                owner = sys.modules["matchpulse." + mod_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    undo.append((cls, attr, original))
                    setattr(cls, attr, self.wrap(original, name, before, after))
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(original, name, before, after)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def totals(self):
        """name -> (inclusive seconds, self seconds, span count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            inc, own, n = out.get(name, (0.0, 0.0, 0))
            out[name] = (inc + end - start, own + end - start - child[i], n + 1)
        return out

    def to_json(self):
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p,
                       "failed": f} for n, s, e, p, f in self.spans],
            "counts": dict(self.counts),
            "totals": {k: {"inclusive_s": v[0], "self_s": v[1], "spans": v[2]}
                       for k, v in self.totals().items()},
        }


def run_in_process(cli_main, argv):
    """Run one CLI call in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()
