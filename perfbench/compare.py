#!/usr/bin/env python3
"""Compare two benchmark result files, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE.json CHANGE.json

A result file is what run.py writes with --out; one made by `--workload all
--runs K` holds K untraced runs per workload, which gives each metric a
run-to-run spread.  For every metric both files hold, the table shows each
side's median, the ratio CHANGE/BASE, the bound and a verdict:

  ok          not worse than the bound allows
  better      better by more than the bound
  WORSE       worse by more than the bound
  unresolved  a side's spread (interquartile range over median) is wider than
              the bound, or a side has a single run, so the data cannot tell;
              it stays unresolved unless every CHANGE run reads better than
              every BASE run

End-to-end metrics take their bounds from metrics.END_TO_END (as in
BENCHMARK.json) and metrics.DETAIL; per-layer metrics have no bound and show
only the ratio.  Exits 1 when any metric is WORSE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import metrics

BOUNDS = {name: bound for name, _, _, bound in metrics.END_TO_END + metrics.DETAIL}


def load_runs(path: str) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["runs"]


def _series(runs: list[dict]) -> dict[tuple[str, str], tuple[list[float], str, str]]:
    """(workload, metric) -> (values over runs, unit, better)."""
    out: dict = {}
    for run in runs:
        tables = ("per_layer",) if run["trace"] else ("end_to_end", "detail")
        for table in tables:
            for name, m in run.get(table, {}).items():
                entry = out.setdefault((run["workload"], name), ([], m["unit"], m["better"]))
                entry[0].append(m["value"])
    return out


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median; None for a single run."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def _ratio(new: float, old: float) -> float:
    if old == 0.0:
        return 1.0 if new == 0.0 else float("inf")
    return new / old


def verdict(old: list[float], new: list[float], better: str, bound: float | None) -> tuple[float, str]:
    ratio = _ratio(statistics.median(new), statistics.median(old))
    if bound is None:
        return ratio, "-"
    lower = better == "lower"
    worse = ratio > 1.0 + bound if lower else ratio < 1.0 - bound
    improved = ratio < 1.0 - bound if lower else ratio > 1.0 + bound
    spreads = [spread(old), spread(new)]
    clear_win = (max(new) < min(old)) if lower else (min(new) > max(old))
    if any(s is None or s > bound for s in spreads) and not clear_win and bound > 0.0:
        return ratio, "unresolved"
    if worse:
        return ratio, "WORSE"
    return ratio, "better" if improved else "ok"


def compare(base: list[dict], change: list[dict]) -> list[dict]:
    old, new = _series(base), _series(change)
    rows = []
    for key in sorted(old.keys() & new.keys()):
        (ov, unit, better), (nv, _, _) = old[key], new[key]
        bound = BOUNDS.get(key[1])
        ratio, word = verdict(ov, nv, better, bound)
        rows.append({
            "workload": key[0], "metric": key[1], "unit": unit, "better": better,
            "base": statistics.median(ov), "change": statistics.median(nv),
            "base_spread": spread(ov), "change_spread": spread(nv),
            "runs": (len(ov), len(nv)), "ratio": ratio, "bound": bound, "verdict": word,
        })
    return rows


def _pct(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.1%}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.base), load_runs(args.change))
    print(f"{'workload':8s} {'metric':44s} {'base':>12s} {'change':>12s} {'ratio':>7s} "
          f"{'bound':>6s} {'spread b/c':>15s} verdict")
    for r in rows:
        bound = "-" if r["bound"] is None else f"{r['bound']:.2f}"
        spreads = f"{_pct(r['base_spread'])}/{_pct(r['change_spread'])}"
        print(f"{r['workload']:8s} {r['metric']:44s} {r['base']:>12.6g} {r['change']:>12.6g} "
              f"{r['ratio']:>7.3f} {bound:>6s} {spreads:>15s} {r['verdict']} {r['unit']}")
    return 1 if any(r["verdict"] == "WORSE" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
