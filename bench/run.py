"""matchpulse benchmark: CLI workloads as fresh processes, plus a traced run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload tournament --seed 1 --seconds 50 --trace 0

One closed-loop client runs the workload's CLI calls one at a time, each a
fresh `python3 -m matchpulse.cli` process on a corpus generated from
--seed, in passes for about --seconds (at least two passes), and checks
every call's outputs. A set-up sample starts each pass and ends the run. With --trace 1 it instead runs one pass of fresh
processes for the CLI-layer numbers, then each call in-process, untraced
and then traced, for the per-layer numbers. The last line of
stdout is the result JSON; the full record (environment, corpus, every
call, spans) goes to .bench_work/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import corpus  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RUN_LIMIT_S = 170.0        # the whole run must end within 180 s
MIN_PASSES = 2             # the second pass repeats calls for the identity check

MODEL = "{model}"
WORKLOADS = {
    "tournament": {
        "matches": 31, "points": 300, "boost": 0.1, "calibrate": True,
        "calls": [("report", ["report"]),
                  ("test_momentum", ["test-momentum", "--exact"]),
                  ("changepoints", ["changepoints", "--target-changepoints", "40",
                                    "--pooled-weights"]),
                  ("select_features", ["select-features"])],
        # stepwise selection exits 1 at this baseline (ROADMAP item 2a)
        "may_refuse": {"select_features"},
    },
    "match-model": {
        "matches": 1, "points": 300, "boost": 0.1, "calibrate": False,
        "calls": [("train", ["train"]),
                  ("evaluate", ["evaluate", "--eval-seeds", "5"]),
                  ("shap", ["shap", "--model", MODEL])],
        "may_refuse": set(),
    },
}
COMMAND_SLUGS = sorted({c for wl in WORKLOADS.values() for c, _ in wl["calls"]})
CALIBRATION = {"alpha": 0.05, "datasets": 500}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


# ------------------------------------------------------------ processes

def spawn(argv, out_path, err_path, deadline, env):
    """Run argv to completion; returns (exit code, wall s, cpu s, maxrss KiB).

    The child is reaped with wait4 so its own rusage is attributed to
    this call alone. A child still running at `deadline` is killed.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        lock = threading.Lock()
        reaped = False

        def kill():
            with lock:
                if not reaped:
                    proc.kill()
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            # wait for exit without reaping, so kill() can never hit a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                reaped = True
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
    # already reaped: setting returncode keeps Popen from waiting again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def _read(path):
    """(text, last line) of a captured output file."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return text, text.strip().rsplit("\n", 1)[-1]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def setup_sample(work, deadline):
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    argv = [sys.executable, "-c",
            "import matchpulse.cli as c; c.build_parser()"]
    out, err = os.path.join(work, "setup.out"), os.path.join(work, "setup.err")
    code, wall, _, _ = spawn(argv, out, err, deadline, child_env())
    if code != 0:
        raise BenchError(f"importing matchpulse.cli failed: {_read(err)[1]}")
    return wall


def import_times(work, deadline):
    """(import matchpulse.cli cumulative s, scipy self s) from -X importtime."""
    argv = [sys.executable, "-X", "importtime", "-c", "import matchpulse.cli"]
    out, err = os.path.join(work, "imp.out"), os.path.join(work, "imp.err")
    code, _, _, _ = spawn(argv, out, err, deadline, child_env())
    if code != 0:
        raise BenchError("import matchpulse.cli failed under -X importtime")
    cli_us = scipy_us = 0
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    for line in _read(err)[0].splitlines():
        m = pattern.match(line)
        if not m:
            continue
        own, cumulative, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "matchpulse.cli":
            cli_us = cumulative
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += own
    if not cli_us:
        raise BenchError("no import time recorded for matchpulse.cli")
    return cli_us / 1e6, scipy_us / 1e6


# ------------------------------------------------------------ workload calls

def call_argv(args, corpus_path, out, pass_dir):
    """CLI arguments of one call; shap reads the model `train` wrote in this pass."""
    model = os.path.join(pass_dir, "train", "model.json")
    return [a.replace(MODEL, model) for a in args] + [
        "--input", corpus_path, "--out", out]


def run_cli_pass(wl, corpus_path, corpus_info, pass_dir, deadline, reference):
    """One pass of the workload's CLI calls as fresh processes.

    `reference` maps call id -> outcome of the first pass (artifact
    digests, or the refusal's last stderr line); this pass's outcome must
    match it byte for byte.
    """
    records = []
    os.makedirs(pass_dir)
    for call_id, args in wl["calls"]:
        out = os.path.join(pass_dir, call_id.replace("_", "-"))
        cli_args = call_argv(args, corpus_path, out, pass_dir)
        so, se = out + ".stdout", out + ".stderr"
        code, wall, cpu, rss = spawn(
            [sys.executable, "-m", "matchpulse.cli", *cli_args],
            so, se, deadline, child_env())
        stderr, last_err = _read(se)
        rec = {"call": call_id, "exit": code, "wall_s": wall, "cpu_s": cpu,
               "maxrss_kib": rss, "problems": [], "stderr_last": last_err,
               "artifact_bytes": 0}
        if code == 0:
            rec["problems"] = checks.check_call(
                args[0], cli_args, out, _read(so)[0], corpus_info)
            outcome = checks.artifact_digests(out)
            rec["artifact_bytes"] = sum(n for _, n in outcome.values())
        elif code != 1 or "Traceback" in stderr or not last_err.startswith("error:"):
            rec["problems"].append(f"{call_id}: exit {code} is not a clean "
                                   f"domain error: {last_err}")
            outcome = None
        elif call_id not in wl["may_refuse"]:
            rec["problems"].append(f"{call_id}: refused an input it accepts "
                                   f"at the baseline: {last_err}")
            outcome = None
        else:
            outcome = {"refused": last_err}
        if outcome is not None:
            if reference.setdefault(call_id, outcome) != outcome:
                rec["problems"].append(f"{call_id}: outcome differs from pass 1")
        records.append(rec)
    return records


def run_calibration(seed, reference):
    """The in-process calibration call on the tournament workload."""
    from matchpulse import streaks, synth

    def test(seqs):
        return streaks.chi_squared_test(streaks.contingency_from_sequences(seqs))
    cfg = synth.GeneratorConfig(p=0.5, T=300, matches=31, seed=seed)
    start = time.perf_counter()
    rate, (lo, hi) = synth.calibrate(test, CALIBRATION["alpha"],
                                     CALIBRATION["datasets"], cfg)
    wall = time.perf_counter() - start
    rec = {"call": "calibrate", "exit": 0, "wall_s": wall, "problems": [],
           "result": [rate, lo, hi]}
    if not 0.0 <= lo <= rate <= hi <= 1.0:
        rec["problems"].append(f"calibrate: bad rate/interval {rate} {lo} {hi}")
    if reference.setdefault("calibrate", rec["result"]) != rec["result"]:
        rec["problems"].append("calibrate: result differs from pass 1")
    return rec


def failed(rec):
    """A call fails on a non-zero exit or a failed output check. Only the
    latter, a crash, or a refusal of a call that succeeds at the baseline
    makes the run incorrect: a clean exit-1 domain error is the program's
    documented way to refuse an input."""
    return rec["exit"] != 0 or bool(rec["problems"])


# ------------------------------------------------------------ modes

def measure(wl, seed, seconds, work, corpus_path, corpus_info, deadline):
    setup = []
    reference, passes, pass_cost = {}, [], 0.0
    start = time.monotonic()
    # a further pass starts only if at least half of it fits in --seconds,
    # so a run measures for --seconds give or take half a pass
    while (len(passes) < MIN_PASSES
           or time.monotonic() - start + pass_cost / 2 < seconds):
        pass_start = time.monotonic()
        if pass_start + pass_cost > deadline - 10:
            break
        pass_dir = os.path.join(work, f"pass{len(passes) + 1}")
        setup.append(setup_sample(work, deadline))
        records = run_cli_pass(wl, corpus_path, corpus_info, pass_dir,
                               deadline, reference)
        shutil.rmtree(pass_dir)
        if wl["calibrate"]:
            records.append(run_calibration(seed, reference))
        passes.append(records)
        pass_cost = time.monotonic() - pass_start
    if len(passes) < MIN_PASSES:
        raise BenchError("no time left for a second pass")
    # one more set-up sample, so the samples span the whole run
    setup.append(setup_sample(work, deadline))
    calls = [r for p in passes for r in p]
    # every call's time counts, whatever its outcome: a call that starts to
    # succeed, or to refuse, then shows as a change of session_s
    walls = {}
    for r in calls:
        walls.setdefault(r["call"], []).append(r["wall_s"])
    rss = [r["maxrss_kib"] for r in calls if "maxrss_kib" in r]
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "session_s": (sum(statistics.median(w) for w in walls.values()),
                      len(passes)),
        "peak_rss_mb": (max(rss) / 1024.0, len(rss)),
    }
    detail = {"setup_s": setup, "passes": passes,
              "per_call": {c: {"n": len(w), "median_s": statistics.median(w),
                               "max_s": max(w)} for c, w in walls.items()}}
    return metrics, calls, detail


def traced(wl, seed, work, corpus_path, corpus_info, deadline):
    import tracing

    reference = {}
    cli_calls = run_cli_pass(wl, corpus_path, corpus_info,
                             os.path.join(work, "cli"), deadline, reference)
    import_s, scipy_s = import_times(work, deadline)
    from matchpulse import cli

    tracer = tracing.Tracer()

    def in_process(call_id, args, tag):
        """One CLI call through cli.main in this process; returns the record."""
        pass_dir = os.path.join(work, tag)
        out = os.path.join(pass_dir, call_id.replace("_", "-"))
        argv = call_argv(args, corpus_path, out, pass_dir)
        code, stdout, stderr = tracing.run_in_process(cli.main, argv)
        rec = {"call": call_id, "exit": code, "problems": [],
               "stderr_last": stderr.strip().rsplit("\n", 1)[-1]}
        if code == 0:
            rec["problems"] = checks.check_call(args[0], argv, out, stdout,
                                                corpus_info)
            outcome = checks.artifact_digests(out)
        else:
            outcome = {"refused": rec["stderr_last"]}
        if outcome != reference.get(call_id):
            rec["problems"].append(
                f"{call_id}: in-process outcome differs from the CLI's")
        return rec

    # each call runs untraced and then traced, back to back, so a drift in
    # machine speed hits both sides of trace.overhead_s alike
    steps = [(c, a, "cli." + a[0]) for c, a in wl["calls"]]
    if wl["calibrate"]:
        steps.append(("calibrate", None, None))
    replayed, cpu = [], {"plain": 0.0, "traced": 0.0}
    for call_id, args, span in steps:
        for tag in ("plain", "traced"):
            on = tag == "traced"
            with tracer.installed() if on else nullcontext():
                start = time.process_time()
                with tracer.span(span) if on and span else nullcontext():
                    rec = (in_process(call_id, args, tag) if args
                           else run_calibration(seed, reference))
                cpu[tag] += time.process_time() - start
            replayed.append(rec)
    plain_s, traced_s = cpu["plain"], cpu["traced"]

    totals = tracer.totals()
    counts = tracer.counts

    def total(name):
        """(inclusive s, self s, spans) of one span name; zeros if never called."""
        return totals.get(name, (0.0, 0.0, 0))

    by_call = {r["call"]: r for r in cli_calls}
    metrics = {
        "cli.import_s": (import_s, 1),
        "cli.import_scipy_s": (scipy_s, 1),
        "cli.artifact_bytes": (sum(r["artifact_bytes"] for r in cli_calls),
                               len(cli_calls)),
        "trace.overhead_s": (traced_s - plain_s, 1),
        # train_bp_pso's self time: the run minus its PSO child span
        "model.backprop_s": (total("model.train_bp_pso")[1],
                             total("model.train_bp_pso")[2]),
        "stats.stepwise_failed": (counts["stats.stepwise_select_failed"], 1),
    }
    for slug in COMMAND_SLUGS:
        rec = by_call.get(slug)
        n = int(rec is not None)
        metrics[f"cli.{slug}_s"] = (rec["wall_s"] if n else 0.0, n)
        metrics[f"cli.{slug}_cpu_s"] = (rec["cpu_s"] if n else 0.0, n)
    for _, _, name, _, _ in tracing.TARGETS:
        if name != "model.train_bp_pso":
            metrics[name + "_s"] = (total(name)[0], total(name)[2])
    for name in ("ingest.rows", "ingest.parse_calls", "streaks.exact_replicates",
                 "synth.calibrate_datasets", "changepoint.tune_iterations",
                 "stats.stepwise_steps", "model.pso_objective_evals",
                 "model.bp_epochs", "model.nets_trained", "explain.predict_calls",
                 "explain.predict_rows"):
        metrics[name] = (counts[name], 1)
    calls = cli_calls + replayed
    detail = {"cli_pass": cli_calls, "plain_s": plain_s, "traced_s": traced_s,
              "trace": tracer.to_json()}
    return metrics, calls, detail


# ------------------------------------------------------------ records

def environment(seed):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    commit = None
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                   "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "git_commit": commit, "seed": seed,
    }


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "matchpulse", "cli.py")):
        print(f"error: no matchpulse sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)       # the in-process calls use this checkout's package
    units = declared_metrics(args.trace)
    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        corpus_path = os.path.join(work, "corpus.csv")
        corpus_info = corpus.write_corpus(corpus_path, wl["matches"],
                                          wl["points"], wl["boost"], args.seed)
        if args.trace:
            metrics, calls, detail = traced(wl, args.seed, work, corpus_path,
                                            corpus_info, deadline)
        else:
            metrics, calls, detail = measure(wl, args.seed, args.seconds, work,
                                         corpus_path, corpus_info, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1

    failures = [{"call": r["call"], "exit": r["exit"],
                 "stderr_last": r.get("stderr_last"), "problems": r["problems"]}
                for r in calls if failed(r)]
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed), "corpus": corpus_info,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "attempted": len(calls), "failures": failures, **detail,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for name in sorted(metrics):
        value, n = metrics[name]
        print(f"{name:40s} {value:>16.6f} {units[name]:6s} n={n}")
    for f in failures:
        print(f"failed: {f['call']} exit {f['exit']}: "
              f"{'; '.join(f['problems']) or f['stderr_last']}")
    print(json.dumps({
        "correct": not any(r["problems"] for r in calls),
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
