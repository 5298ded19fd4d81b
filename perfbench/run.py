#!/usr/bin/env python3
"""Benchmark of the polarbec pipeline: four workloads, untraced and traced runs.

    python3 perfbench/run.py --workload design --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --runs 3 --out all.json

One run builds the workload's inputs from --seed, then runs passes over the
workload's job list until the passes' timed work adds up to --seconds (a
started pass always completes), checks every output and prints every metric
by name with its unit.  The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  The full record (work counts,
provenance, per-job times, failures) goes to --out, by default under
.perfbench/results/, and a traced run writes its spans beside it.

`--workload all` runs every workload in its own process, untraced --runs
times and traced once, and reports the tracing overhead.  Compare two result
files with compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import metrics
from checks import compare_facts, load_reference
from spans import Tracer, library
from workloads import SCALES, WORKLOADS, Ctx

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Set-up is timed this many times per run, in fresh processes; the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120.0
RUN_TIMEOUT_S = 900.0


def import_library():
    """Import polarbec from this checkout's src/ and from nowhere else."""
    if not (SRC / "polarbec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polarbec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polarbec

    if Path(polarbec.__file__).resolve().parent != (SRC / "polarbec").resolve():
        raise SystemExit(f"perfbench: polarbec was imported from {polarbec.__file__}, not {SRC}")
    return polarbec


def _no_span(name: str):
    return nullcontext()


def run_pass(wl, inputs, lib, tracer, reference: dict, tmpdir: str, pass_id: int) -> dict:
    """Run every job once; time it, then check its outputs outside the timer."""
    os.makedirs(tmpdir)
    ctx = Ctx(lib, inputs, tmpdir, tracer.span if tracer else _no_span)
    if tracer:
        tracer.pass_id = pass_id
    record = {"scale": inputs["scale"], "jobs": {}, "work": {}}
    for job in wl.jobs(inputs):
        out, error = None, None
        with tracer.span(f"job.{job.name}") if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                out = job.run(ctx)
            except Exception as exc:  # noqa: BLE001 - a failed job is counted, the pass goes on
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        facts, failures = {}, [error] if error else []
        if error is None:
            ref = reference.get(job.name)
            try:
                facts = job.facts(out, ctx)
                failures = compare_facts(facts, ref, job.tol) + job.invariants(out, ctx, ref or {})
            except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
                failures = [f"check raised {type(exc).__name__}: {exc}"]
        del out
        record["jobs"][job.name] = {"s": seconds, "facts": facts, "failures": failures}
        record["work"][job.name] = dict(job.work)
    shutil.rmtree(tmpdir)
    return record


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that import the library and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
    return times


def _span_seconds(tracer: Tracer) -> dict[int, dict]:
    """Per pass: (job name, span name) -> seconds inside library spans."""
    jobs = {s["id"]: s["name"][len("job."):] for s in tracer.spans if s["name"].startswith("job.")}
    out: dict[int, dict] = {}
    for s in tracer.spans:
        if s["parent"] in jobs:
            key = (jobs[s["parent"]], s["name"])
            per_pass = out.setdefault(s["pass"], {})
            per_pass[key] = per_pass.get(key, 0.0) + s["end"] - s["start"]
    return out


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha1() -> str:
    h = hashlib.sha1()
    for path in sorted((SRC / "polarbec").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def provenance(args, polarbec) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "source_sha1": _source_sha1(),
        "package": f"polarbec {polarbec.__version__}",
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "peak_rss_mb": {"self": _peak_rss_mb(resource.RUSAGE_SELF),
                        "children": _peak_rss_mb(resource.RUSAGE_CHILDREN)},
    }


def run_workload(args, polarbec) -> tuple[dict, Tracer | None]:
    wl = WORKLOADS[args.workload]
    reference = load_reference(args.reference)[args.scale]
    setup = measure_setup(args)
    plain = library(None)
    inputs = wl.make_inputs(plain, args.seed, args.scale)
    tracer = Tracer() if args.trace else None
    lib = library(tracer) if tracer else plain

    os.makedirs(OUT_DIR / "tmp", exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR / "tmp")
    passes, walls = [], []
    start = time.perf_counter()
    try:
        # Timed job time, not check time, decides when the run has measured enough.
        while not passes or sum(walls) < args.seconds:
            tmpdir = os.path.join(scratch, f"pass{len(passes)}")
            passes.append(run_pass(wl, inputs, lib, tracer, reference, tmpdir, len(passes)))
            walls.append(metrics.pass_wall(passes[-1]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    measured = time.perf_counter() - start

    jobs = [j for p in passes for j in p["jobs"].values()]
    failed = sum(1 for j in jobs if j["failures"])
    peak = _peak_rss_mb(resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
    e2e = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
           "peak_rss_mb": peak}
    detail = {"failed_frac": failed / len(jobs)}
    per_pass = [metrics.detail_for_pass(p) for p in passes]
    for name, *_ in metrics.DETAIL[1:]:
        values = [d[name] for d in per_pass if d[name] is not None]
        if values:
            detail[name] = statistics.median(values)
    try:
        counts = wl.counts(passes[0])
    except (KeyError, TypeError):  # a failed job left no facts to count from
        counts = {}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "passes": len(passes),
        "measured_s": measured,
        "pass_wall_s": walls,
        "setup_probes_s": setup,
        "end_to_end": _with_units(e2e, metrics.END_TO_END),
        "detail": _with_units(detail, metrics.DETAIL),
        "counts": counts,
        "jobs": {
            name: {"median_s": statistics.median(p["jobs"][name]["s"] for p in passes)}
            for name in passes[0]["jobs"]
        },
        "failures": sorted({f"{name}: {msg}" for p in passes
                            for name, j in p["jobs"].items() for msg in j["failures"]}),
        "provenance": provenance(args, polarbec),
    }
    if tracer:
        span_s = _span_seconds(tracer)
        rates = [metrics.rates_for_pass(p, span_s.get(i, {})) for i, p in enumerate(passes)]
        layer = {name: statistics.median(r[name] for r in rates) for name, *_ in metrics.RATES}
        layer.update({name: counts.get(name, 0) for name, *_ in metrics.COUNTS})
        record["per_layer"] = _with_units(layer, metrics.PER_LAYER)
        record["layer_busy_s"] = tracer.layer_busy()
        record["spans"] = len(tracer.spans)
    return record, tracer


def _with_units(values: dict, table) -> dict:
    spec = {name: (unit, better) for name, unit, better, *_ in table}
    return {name: {"value": v, "unit": spec[name][0], "better": spec[name][1]}
            for name, v in values.items()}


def _print_metrics(title: str, table: dict) -> None:
    print(f"  {title}:")
    for name, m in table.items():
        print(f"    {name:44s} {m['value']:>16.6g} {m['unit']}")


def report(record: dict, out_path: Path) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"scale={record['scale']}: {record['passes']} passes in {record['measured_s']:.2f} s, "
          f"{record['failed']}/{record['attempted']} jobs failed")
    _print_metrics("end-to-end", record["end_to_end"])
    _print_metrics("workload metrics", record["detail"])
    if "per_layer" in record:
        _print_metrics("per-layer", record["per_layer"])
        busy = ", ".join(f"{k} {v:.3f} s" for k, v in sorted(record["layer_busy_s"].items()))
        print(f"  seconds inside each layer, all passes: {busy}")
    print("  job median seconds: " + ", ".join(
        f"{name} {j['median_s']:.4f}" for name, j in record["jobs"].items()))
    print("  work counts per pass (computed): " + ", ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in record["counts"].items()))
    print("  provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for line in record["failures"][:20]:
        print(f"  FAILED {line}")
    print(f"  result: {out_path}")


def contract_line(record: dict) -> str:
    table = record["per_layer"] if record["trace"] else record["end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in table.items()},
    })


def write_result(path: Path, runs: list[dict], **extra) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"runs": runs, **extra}, fh, indent=1, sort_keys=True)


def run_all(args) -> int:
    """Every workload in its own process: untraced --runs times, then traced once."""
    runs = []
    for name in WORKLOADS:
        for seed, trace in [(args.seed + i, 0) for i in range(args.runs)] + [(args.seed, 1)]:
            child_out = OUT_DIR / "results" / f"{name}-seed{seed}-trace{trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--scale", args.scale,
                   "--out", str(child_out)]
            if args.reference:
                cmd += ["--reference", args.reference]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            if proc.returncode != 0:
                print(f"perfbench: {name} seed={seed} trace={trace} exited {proc.returncode}: "
                      f"{proc.stderr.strip()}")
                return 1
            with open(child_out) as fh:
                runs.extend(json.load(fh)["runs"])
    print("tracing overhead (median traced pass wall time minus untraced):")
    overhead = {}
    for name in WORKLOADS:
        walls = {t: [w for r in runs if r["workload"] == name and r["trace"] == t
                     for w in r["pass_wall_s"]] for t in (0, 1)}
        untraced = statistics.median(walls[0])
        overhead[name] = statistics.median(walls[1]) - untraced
        print(f"  {name:8s} {overhead[name]:+.4f} s ({overhead[name] / untraced:+.2%})")
    bad = [r for r in runs if not r["correct"]]
    print(f"{len(runs)} runs, {len(bad)} with failed checks")
    out = Path(args.out) if args.out else OUT_DIR / "results" / f"all-seed{args.seed}.json"
    write_result(out, runs, tracing_overhead_s=overhead)
    print(f"result: {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="run passes until their timed work adds up to this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="tiny runs the same jobs at small sizes (smoke test)")
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload (all only)")
    parser.add_argument("--out", help="result file (JSON); default under .perfbench/results/")
    parser.add_argument("--reference", help="reference values (default perfbench/reference.json)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    polarbec = import_library()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        wl = WORKLOADS[args.workload]
        wl.jobs(wl.make_inputs(library(None), args.seed, args.scale))
        return 0

    record, tracer = run_workload(args, polarbec)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = Path(args.out) if args.out else OUT_DIR / "results" / f"{stem}.json"
    if tracer:
        trace_path = out_path.with_suffix(".trace.jsonl")
        out_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(str(trace_path))
        record["trace_file"] = str(trace_path)
    write_result(out_path, [record])
    report(record, out_path)
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
