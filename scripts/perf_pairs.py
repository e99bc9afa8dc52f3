#!/usr/bin/env python3
"""Compare the working tree with a base revision on one perfbench
workload, in paired runs.

Run from the root of a checkout (or through `make perf-pairs`):

    python3 scripts/perf_pairs.py --base REV --workload paper|observed|livemem|bpsd \
        [--pairs 6] [--seed 1000]

It exports two trees outside the checkout: `git archive REV`, and a
copy of the working tree (tracked and untracked files, minus what
.gitignore lists). Each run is the benchmark's own command from
BENCHMARK.json (perfbench/run.py), run inside one of those trees with
`--trace 0` and BENCHMARK.json's `run_seconds`, so the checkout's
perfbench/go.mod, which `GOFLAGS=-mod=mod` rewrites, is never built.
Each tree's first run also compiles it into that tree's .bench_build/.

The pairs run in ABBA order (base first in odd pairs, the working tree
first in even ones), so the order effect cancels over an even count.
Each pair gets a fresh seed, the same on both sides. The script prints
every pair's end-to-end metrics (BENCHMARK.json's end_to_end list),
then each side's median and nearest-rank quartiles, and how many pairs
the working tree won. It exits 1 if any run fails or reports correct:
false. Scratch files go under the system temporary directory ($TMPDIR)
and are removed at exit.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def export_base(root, rev, dst):
    """Writes the tree of revision rev to dst."""
    os.makedirs(dst)
    archive = subprocess.run(["git", "archive", rev], cwd=root, check=True, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dst], input=archive.stdout, check=True)


def copy_worktree(root, dst):
    """Copies the working tree's tracked and untracked, unignored files to dst."""
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, stdout=subprocess.PIPE,
    ).stdout.decode().split("\0")
    for rel in files:
        src = os.path.join(root, rel)
        if not rel or not os.path.isfile(src):
            continue  # deleted but still in the index
        os.makedirs(os.path.dirname(os.path.join(dst, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dst, rel))


def run_once(tree, command, workload, seed, seconds):
    """Runs one untraced benchmark pass in tree; returns its result object."""
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("perf-pairs: %s in %s exited %d" % (" ".join(cmd), tree, done.returncode))
    return json.loads(lines[-1])


def quartiles(xs):
    """Nearest-rank 25th and 75th percentiles of xs."""
    s = sorted(xs)
    return tuple(s[max(math.ceil(q * len(s)) - 1, 0)] for q in (0.25, 0.75))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="base revision (commit, tag or branch)")
    ap.add_argument("--workload", required=True, help="perfbench workload")
    ap.add_argument("--pairs", type=int, default=6, help="number of pairs (even)")
    ap.add_argument("--seed", type=int, default=1000, help="seed of the first pair; pair i uses seed+i")
    args = ap.parse_args()
    if args.pairs < 2 or args.pairs % 2:
        ap.error("--pairs must be an even number of at least 2")

    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]

    scratch = tempfile.mkdtemp(prefix="perf-pairs-")
    try:
        trees = {"base": os.path.join(scratch, "base"), "work": os.path.join(scratch, "work")}
        export_base(root, args.base, trees["base"])
        copy_worktree(root, trees["work"])

        results = {"base": [], "work": []}
        failed = False
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["base", "work"] if i % 2 == 0 else ["work", "base"]
            for name in order:
                res = run_once(trees[name], spec["command"], args.workload, seed, spec["run_seconds"])
                if not res.get("correct") or res.get("failed"):
                    failed = True
                results[name].append(res)
            b, w = results["base"][-1]["metrics"], results["work"][-1]["metrics"]
            cells = ["%s %.4g->%.4g" % (m["name"], b[m["name"]]["value"], w[m["name"]]["value"])
                     for m in metrics]
            print("pair %d (seed %d, %s first): %s" % (i + 1, seed, order[0], ", ".join(cells)), flush=True)

        print("%-12s %12s %12s %8s %6s   %s" % ("metric", "base", "work", "change", "wins",
                                               "quartiles base | work"))
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            b = [r["metrics"][name]["value"] for r in results["base"]]
            w = [r["metrics"][name]["value"] for r in results["work"]]
            wins = sum(1 for x, y in zip(b, w) if (y < x if lower else y > x))
            mb, mw = statistics.median(b), statistics.median(w)
            change = (mw / mb - 1) * 100 if mb else float("nan")
            print("%-12s %12.4g %12.4g %+7.1f%% %3d/%d   %.4g-%.4g | %.4g-%.4g" % (
                (name, mb, mw, change, wins, args.pairs) + quartiles(b) + quartiles(w)))
        for name in ("base", "work"):
            rs = results[name]
            print("%s: %d runs, %d failed operations, all correct: %s" % (
                name, len(rs), sum(r.get("failed", 0) for r in rs), all(r.get("correct") for r in rs)))
        return 1 if failed else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
