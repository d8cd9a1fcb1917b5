"""Run the benchmark in alternating pairs: a git revision against the working tree.

    python3 tools/bench_pairs.py --against REV [--workload W ...] [--pairs 10]
        [--seed S] [--seconds 4] --out BENCH_N.json

Exports git revision REV (the parent) with ``git archive`` and copies the
working tree's files (the change), each into a fresh directory, and
byte-compiles both before the first pair, so that neither side's
``setup_s`` includes compiling its sources.  For each workload (all of
BENCHMARK.json's by default) it then runs ``bench/run.py --workload W
--seed S --seconds T --trace 0`` of each tree in turn, ``--pairs`` times,
the parent first on even pairs and the change first on odd ones.

The output file holds the machine, the command, and per workload the
number of pairs, the pairs the change won per end-to-end metric (ties
count for neither), each side's median and quartiles with the ratio of
the medians, and every run's metrics and failure counts.  The script
prints, per workload and metric, the wins, the medians, and whether they
differ by more than the parent's interquartile range.  It exits 1 if a
run fails to produce its result line.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from trees import ROOT, compile_tree, copy_worktree, export

SIDES = ("parent", "change")


def run_bench(tree, workload, seed, seconds):
    """The metrics and failure counts of one bench/run.py process on tree."""
    done = subprocess.run([sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"bench/run.py of {tree} gave no result for {workload} "
                         f"(exit {done.returncode}):\n{done.stderr}") from None
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update((key, result[key]) for key in ("correct", "failed", "attempted"))
    return row


def quartiles(values):
    """(q1, median, q3) of values; all three are the value for one."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarise(runs, metrics):
    """(change_wins, summary) over the runs of one workload."""
    wins, summary = {}, {}
    for name, better in metrics.items():
        sign = 1 if better == "lower" else -1
        won = sum(sign * (r["change"][name] - r["parent"][name]) < 0 for r in runs)
        wins[name] = f"{won}/{len(runs)}"
        summary[name] = {}
        for side in SIDES:
            q1, median, q3 = quartiles([r[side][name] for r in runs])
            summary[name][side] = {"median": median, "q1": q1, "q3": q3}
        summary[name]["median_ratio_change_over_parent"] = (
            summary[name]["change"]["median"] / summary[name]["parent"]["median"])
    return wins, summary


def report(workload, entry):
    """Print one line per metric of a workload's entry."""
    for name, wins in entry["change_wins"].items():
        s = entry["summary"][name]
        parent, change = s["parent"], s["change"]
        resolved = abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
        print(f"{workload:<20} {name:<12} change wins {wins:>5}  median {parent['median']:.4g} -> "
              f"{change['median']:.4g} ({s['median_ratio_change_over_parent']:.3f}x)  "
              f"parent IQR {parent['q1']:.4g}-{parent['q3']:.4g}: "
              f"{'beyond it' if resolved else 'within it'}", flush=True)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="the git revision to run as the parent")
    parser.add_argument("--workload", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    command = (f"python3 bench/run.py --workload <w> --seed {args.seed} "
               f"--seconds {args.seconds:g} --trace 0")
    record = {
        "description": (
            f"bench/run.py final JSON lines for git revision {args.against} (parent) and the "
            f"working tree on {head} (change), {args.pairs} alternating pairs per workload, "
            f"made by tools/bench_pairs.py; 'first' names the tree that ran first in each pair "
            f"(parent on even pairs). Both trees are fresh copies, byte-compiled before the "
            f"first pair. Times are host-speed scaled. Every pair is reported."),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "glibc": platform.libc_ver()[1]},
        "command": command,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        export(args.against, trees["parent"])
        copy_worktree(trees["change"])
        for tree in trees.values():
            compile_tree(tree)
        for workload in args.workload:
            runs = []
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                run = {"pair": pair, "first": order[0]}
                for side in order:
                    run[side] = run_bench(trees[side], workload, args.seed, args.seconds)
                runs.append({key: run[key] for key in ("pair", "first", *SIDES)})
            wins, summary = summarise(runs, metrics)
            entry = {"pairs": args.pairs, "change_wins": wins, "summary": summary, "runs": runs}
            record["workloads"][workload] = entry
            report(workload, entry)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
