"""Alternating parent/change pairs of untraced benchmark runs.

Exports REV with `git archive` into a fresh `parent/` directory and copies
the working tree's files (tracked and untracked, less what .gitignore
excludes) into a fresh `change/` directory beside it. Both names have six
characters, since `paper`'s peak_rss_mb moves with the length of the
checkout's path, and neither side runs from the working checkout, where
setup_s reads high. Each pair runs `bench/run.py --workload W --seed S
--seconds T --trace 0` once in each copy, T being the copy's
BENCHMARK.json `run_seconds`: odd pairs at seed 1 with the parent first,
even pairs at seed 2248 with the change first.

Prints each pair's end-to-end metrics for both sides, then, per metric,
both medians, the number of pairs in which the change read lower, and the
interquartile range of the parent's values. Exits 1, after printing the
run's output, as soon as a run exits non-zero, is not correct or has
failed commands. The copies live in a temporary directory (under $TMPDIR)
that is removed at the end.

Usage: python3 scripts/bench_pairs.py --parent HEAD --workload paper
       python3 scripts/bench_pairs.py --parent main --workload fmri --pairs 4
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def export(rev, root):
    """Fresh ``root/parent`` holding REV and ``root/change`` holding the
    working tree's files; returns the two directories."""
    parent, change = (os.path.join(root, side) for side in SIDES)
    os.makedirs(parent)
    archive = subprocess.run(["git", "archive", rev], cwd=REPO, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", parent], input=archive.stdout, check=True)
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO, check=True, capture_output=True, text=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        src, dest = os.path.join(REPO, name), os.path.join(change, name)
        if os.path.isfile(src):  # a tracked file deleted in the tree is left out
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            shutil.copy2(src, dest)
    return parent, change


def run_one(directory, workload, seed):
    """(exit code, result line or None, output) of one untraced run."""
    with open(os.path.join(directory, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=directory, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, ValueError):
        line = None
    return proc.returncode, line, proc.stdout + proc.stderr


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(pairs):
    """Per metric: (name, parent median, change median, pairs with the
    change lower, parent IQR), from a list of {side: {metric: value}}."""
    rows = []
    for name in pairs[0]["parent"]:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        rows.append((name, statistics.median(parent), statistics.median(change), lower, iqr(parent)))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as root:
        dirs = dict(zip(SIDES, export(args.parent, root)))
        pairs = []
        for i in range(1, args.pairs + 1):
            seed, order = (1, SIDES) if i % 2 else (2248, SIDES[::-1])
            print(f"pair {i} seed {seed} ({order[0]} first)")
            pair = {}
            for side in order:
                code, line, output = run_one(dirs[side], args.workload, seed)
                if code != 0 or line is None or not line["correct"] or line["failed"] > 0:
                    print(output, file=sys.stderr)
                    print(f"error: {side} run of pair {i} exited {code}, result {line}", file=sys.stderr)
                    return 1
                pair[side] = {k: m["value"] for k, m in line["metrics"].items()}
            for side in SIDES:
                print(f"  {side}: " + " ".join(f"{k}={v:.5g}" for k, v in pair[side].items()))
            pairs.append(pair)
    print(f"{args.workload}, {args.pairs} pairs: metric, parent median, change median, "
          "pairs with the change lower, parent IQR")
    for name, p, c, lower, spread in summary(pairs):
        print(f"  {name}: {p:.5g} -> {c:.5g}, lower in {lower} of {len(pairs)}, IQR {spread:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
