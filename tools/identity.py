"""Byte-identity check of the CLI against a git revision.

    python3 tools/identity.py --base REV [--expect CALL ...]

Runs the calls below, on the bench corpora and on a small edge corpus, and
every `--help`, as fresh processes with the same relative --out paths, in a
detached git worktree of REV under .bench_work/ and in this tree. The last
line is a JSON verdict naming each call whose exit code, stdout, stderr or
--out files differ, and what differs. A call named by --expect may differ;
any other difference exits 1. Each expected call is run a second time in
this tree, and one whose two runs differ is named as unstable and exits 1
too: a changed output must still be the same on every run. It imports
bench/corpus.py for the corpora and nothing from the package.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work", "identity")
sys.path.insert(0, os.path.join(ROOT, "bench"))

import corpus  # noqa: E402

SEEDS = (1, 2)
# matches per corpus (300 points each) -> (call name, CLI arguments), run
# in order on seed s as call "s<s>/<name>"; shap reads the model train wrote
CALLS = {
    31: [("report", ["report"]), ("ingest", ["ingest"]),
         ("test-momentum-exact", ["test-momentum", "--exact"]),
         ("changepoints", ["changepoints"]), ("shift", ["shift"]),
         ("changepoints-tuned-pooled", ["changepoints", "--target-changepoints",
                                        "40", "--pooled-weights"]),
         ("momentum-pooled-0007", ["momentum", "--pooled-weights",
                                   "--match-id", "synthetic-0007"]),
         ("select-features", ["select-features"]),
         ("report-unknown-match", ["report", "--match-id", "nope"])],
    1: [("train", ["train"]), ("evaluate", ["evaluate", "--eval-seeds", "5"]),
        ("shap", ["shap", "--model", "{seed}/train/model.json"]),
        # 37-row background: each 2,035-row `predict` block ends in 3 rows
        # and the last in 1, which BLAS scores through its tail kernel, so a
        # coalition that moves within the blocks moves last bits
        ("shap-b37", ["shap", "--model", "{seed}/train/model.json",
                      "--background", "37", "--shap-points", "60"]),
        # fails in its `train` step, so it must write nothing
        ("report-split-fails", ["report", "--split", "0.999", "--epochs", "5",
                                "--pso-iterations", "2"])],
}
# run once on the edge corpus, as call "edge/<name>"
EDGE_CALLS = [("ingest", ["ingest"]), ("report", ["report"]),
              ("momentum-pooled", ["momentum", "--pooled-weights"]),
              ("shift", ["shift"])]


def edge_csv():
    """3x40 corpus whose match ids need CSV quoting (`,` `"` `\\n` `\\r\\n`)
    and hold a non-ASCII letter, with `-0` in an integer column and `-0.0`,
    `5e-324` and `1e16` in real columns of its first match."""
    rows = []
    ids = ['edge, "one"', "edge\ntwo", "\u00e9dge\r\nthree"]
    for i, (seq, match_id) in enumerate(
            zip(corpus.outcome_sequences(3, 40, 0.1, 1), ids)):
        rows += corpus.match_rows(seq, match_id, 1000 + i)
    for point, column, cell in [(1, "p1_games", "-0"), (2, "ball_speed", "-0.0"),
                                (3, "p1_distance_run", "5e-324"),
                                (4, "ball_speed", "1e16")]:
        rows[point - 1][corpus.HEADER.index(column)] = cell
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([corpus.HEADER, *rows])
    return buf.getvalue()


def run_call(tree, run_dir, name, argv):
    """Outcome of one fresh CLI process run from run_dir: part -> bytes."""
    proc = subprocess.run([sys.executable, "-m", "matchpulse.cli", *argv],
                          cwd=run_dir, capture_output=True, timeout=600,
                          env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src")))
    parts = {"exit": str(proc.returncode).encode(), "stdout": proc.stdout,
             "stderr": proc.stderr}
    out = os.path.join(run_dir, name)
    for folder, _, files in os.walk(out):
        for f in files:
            with open(os.path.join(folder, f), "rb") as fh:
                rel = os.path.relpath(os.path.join(folder, f), out)
                parts["out/" + rel.replace(os.sep, "/")] = fh.read()
    return parts


def run_tree(tree, run_dir, calls):
    """(call name -> outcome, call name -> argv), for every `--help` and then
    `calls` (name -> argv), run in order on the source in `tree`."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    results = {"help": run_call(tree, run_dir, "help", ["--help"])}
    listed = re.search(rb"\{([\w,-]+)\}", results["help"]["stdout"])
    commands = listed.group(1).decode().split(",") if listed else []
    calls = {"help": ["--help"],
             **{f"help/{c}": [c, "--help"] for c in commands}, **calls}
    for name, argv in calls.items():
        if name not in results:
            results[name] = run_call(tree, run_dir, name, argv)
    return results, calls


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    parser.add_argument("--expect", nargs="*", default=[], metavar="CALL",
                        help="calls that may differ, e.g. s1/report-unknown-match")
    args = parser.parse_args(argv)
    commit = git("rev-parse", "--verify", args.base + "^{commit}").stdout.strip()
    if not commit:
        parser.error(f"not a revision: {args.base}")
    os.makedirs(WORK, exist_ok=True)
    calls = {}
    for seed in SEEDS:
        for matches, group in CALLS.items():
            path = os.path.join(WORK, f"corpus-{matches}x300-seed{seed}.csv")
            corpus.write_corpus(path, matches, 300, 0.1, seed)
            for slug, argv in group:
                name = f"s{seed}/{slug}"
                calls[name] = [*(a.replace("{seed}", f"s{seed}") for a in argv),
                               "--input", path, "--out", name]
    edge = os.path.join(WORK, "corpus-edge-3x40.csv")
    with open(edge, "w", encoding="utf-8", newline="") as fh:
        fh.write(edge_csv())
    for slug, argv in EDGE_CALLS:
        calls[f"edge/{slug}"] = [*argv, "--input", edge, "--out", f"edge/{slug}"]
    tree = os.path.join(WORK, "base-tree")
    git("worktree", "remove", "--force", tree)      # left by an interrupted run
    added = git("worktree", "add", "--detach", tree, commit)
    if added.returncode:
        sys.exit(f"git worktree add failed: {added.stderr.strip()}")
    try:
        old, _ = run_tree(tree, os.path.join(WORK, "run-base"), calls)
    finally:
        git("worktree", "remove", "--force", tree)
    run_dir = os.path.join(WORK, "run-change")
    new, new_calls = run_tree(ROOT, run_dir, calls)
    unstable = []
    for name in sorted(set(args.expect) & set(new_calls)):
        shutil.rmtree(os.path.join(run_dir, name), ignore_errors=True)
        if run_call(ROOT, run_dir, name, new_calls[name]) != new[name]:
            unstable.append(name)
    differ = {}
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, {}), new.get(name, {})
        if parts := sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p)):
            differ[name] = parts
    unexpected = sorted(set(differ) - set(args.expect))
    print(json.dumps({"base": args.base, "commit": commit, "calls": len(new),
                      "identical": not differ, "differ": differ,
                      "expected": sorted(args.expect), "unexpected": unexpected,
                      "unstable": unstable}, sort_keys=True))
    return 1 if unexpected or unstable else 0


if __name__ == "__main__":
    sys.exit(main())
