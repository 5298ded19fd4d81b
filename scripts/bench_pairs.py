#!/usr/bin/env python3
"""Run the benchmark on two trees in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload design --pairs 10 --seed 31

Pair k runs `perfbench/run.py --workload W --seed S+k` in each tree, one
after the other, with the parent first in even pairs and the change first in
odd ones.  Each pair's end-to-end metrics are printed as they arrive.  Then,
for each metric, the pairs where the change is better, each side's median
and quartiles, and the parent's interquartile range; and each side's median
of every job's median seconds.  A claimed gain needs the change better in at
least 9 of 10 pairs and the medians apart by more than the parent's
interquartile range.

Each tree runs with its own bytecode cache (PYTHONPYCACHEPREFIX) in the
script's temporary directory, empty at the start and written by the tree's
first run.  Bytecode that a tree's __pycache__ holds from earlier runs then
cannot move its setup_s, and both trees import from cached bytecode after
their first runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run(tree: Path, workload: str, seed: int, seconds: float, out: Path,
        pycache: Path) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{tree}: seed {seed} failed {result['failed']} of {result['attempted']} jobs")
    (record,) = json.loads(out.read_text())["runs"]
    jobs = {name: job["median_s"] for name, job in record["jobs"].items()}
    return {name: m["value"] for name, m in result["metrics"].items()}, jobs


def spread(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4g} (quartiles {q1:.4g}..{q3:.4g}, IQR {q3 - q1:.3g})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default="design")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    better = {m["name"]: m["better"] for m in json.loads(
        (args.change / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as scratch:
        for k in range(args.pairs):
            seed = args.seed + k
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                out = Path(scratch) / f"{side}-{seed}.json"
                pycache = Path(scratch) / f"{side}-pycache"
                sides[side].append(
                    run(getattr(args, side), args.workload, seed, args.seconds, out, pycache))
            (parent, _), (change, _) = sides["parent"][-1], sides["change"][-1]
            print(f"pair {k + 1} seed {seed} {order[0]} first: " + ", ".join(
                f"{name} {parent[name]:.4g}/{change[name]:.4g}" for name in better), flush=True)
    for name, direction in better.items():
        parent = [metrics[name] for metrics, _ in sides["parent"]]
        change = [metrics[name] for metrics, _ in sides["change"]]
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        print(f"{name} ({direction} is better): change better in {wins} of {len(parent)} pairs")
        print(f"  parent {spread(parent)}")
        print(f"  change {spread(change)}")
    print("job median seconds, median over the runs, parent -> change:")
    for job in sides["parent"][0][1]:
        medians = [statistics.median(jobs[job] for _, jobs in sides[s]) for s in ("parent", "change")]
        print(f"  {job}: {medians[0]:.4f} -> {medians[1]:.4f}")


if __name__ == "__main__":
    main()
