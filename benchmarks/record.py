#!/usr/bin/env python3
"""Record a parent/change comparison of the perfbench benchmark.

    python3 benchmarks/record.py --parent HEAD~1 --change HEAD \
        --workloads mine_history study_cv --seeds 100-109

Run from the repository root. Both commits are exported with `git archive`
into one scratch directory, side by side, so that neither side runs from a
different place on disk (the benchmark's host-speed probe moves with where a
checkout sits). For each seed, one pair of `perfbench/run.py --trace 0` runs
(each BENCHMARK.json's run_seconds long) is made, one per side, and the side
that runs first alternates from pair to pair. Each workload appends one entry to BENCH_perfbench.json: the commits,
workload, seeds, pair count, each side's median and quartiles of every
end-to-end metric, "better in k/n" (pairs where the change is better; ties
count for neither side) and whether the median gap exceeds the spread
between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, directory: Path) -> str:
    """Write the tree of `rev` into `directory`; returns the full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return commit


def run_once(checkout: Path, workload, seed, seconds):
    """The result object of one untraced benchmark run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(declared, pairs):
    """Per metric: each side's median and quartiles, and the change's wins."""
    out = {}
    for spec in declared:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q1, p_q3 = quartiles(parent)
        c_q1, c_q3 = quartiles(change)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent_median": p_med,
            "parent_quartiles": [p_q1, p_q3],
            "change_median": c_med,
            "change_quartiles": [c_q1, c_q3],
            "change_vs_parent": c_med / p_med - 1 if p_med else None,
            "better_in": f"{wins}/{len(pairs)}",
            "gap_exceeds_parent_iqr": abs(c_med - p_med) > p_q3 - p_q1,
        }
    return out


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git revision)")
    parser.add_argument("--change", required=True, help="changed commit (any git revision)")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", required=True, help="one pair per seed, e.g. 100-109")
    parser.add_argument("--scratch", type=Path, default=ROOT / ".bench_record",
                        help="directory the two checkouts are exported into")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_perfbench.json")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    sides = {"parent": args.scratch / "parent", "change": args.scratch / "change"}
    commits = {side: export(getattr(args, side), path) for side, path in sides.items()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    declared, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    entries = json.loads(args.out.read_text()) if args.out.exists() else []
    for workload in args.workloads:
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: run_once(sides[side], workload, seed, seconds) for side in order}
            pairs.append(pair)
            wall = {side: round(pair[side]["metrics"]["wall_ref_s"]["value"], 3) for side in order}
            print(f"{workload} seed {seed} ({order[0]} first): wall_ref_s {wall}",
                  file=sys.stderr, flush=True)
        entry = {
            "commit": commits["change"],
            "parent": commits["parent"],
            "workload": workload,
            "seeds": seeds,
            "pairs": len(pairs),
            "seconds": seconds,
            "recorded": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
            "host": f"{platform.machine()}, {os.cpu_count()} cores, "
                    f"Python {platform.python_version()}",
            "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0
                               for p in pairs for s in sides),
            "metrics": summarize(declared, pairs),
        }
        entries.append(entry)
        args.out.write_text(json.dumps(entries, indent=1) + "\n")
        print(json.dumps({k: entry[k] for k in ("workload", "pairs", "all_correct")}
                         | {name: [m["parent_median"], m["change_median"], m["better_in"]]
                            for name, m in entry["metrics"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
