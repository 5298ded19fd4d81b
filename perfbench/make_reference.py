#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the library as it stands.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload at both scales and stores each
job's facts.  Monte-Carlo tallies get a probability interval instead:

  simulate.n4   the exact block error of the n=4 code (exact enumeration);
  simulate.n10  a 1,000,000-trial estimate +- 5 standard errors;
  simulate.n16  the sandwich max_i Z_i <= P_block <= sum_i Z_i.

It also stores the count oracle for the functional iteration: the fraction
of level-n channels (n = 1..16, z0 = 1/2) with erasure in (0.01, 0.99).
The values are the seed commit's outputs; regenerate only when a change is
meant to alter them, and say so.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile

import numpy as np

from checks import REFERENCE_PATH
from run import OUT_DIR, git_commit, import_library, run_pass
from spans import library
from workloads import DECODE, SCALES, WORKLOADS

N10_TRIALS = 1_000_000
N10_SEED = 2 ** 40 + 10  # not a seed the benchmark draws


def sim_intervals(lib, exact_n4: float) -> dict:
    out = {"n4": (exact_n4, exact_n4)}
    n, z0, _ = DECODE["full"]["sims"]["n10"]
    root = lib.erasure.RootChannel(z0)
    spec = lib.construction.select_classical(root, n, rate=0.5)
    res = lib.codec.simulate(spec, root, N10_TRIALS, N10_SEED)
    p = res.block_errors / res.trials
    half = 5.0 * math.sqrt(p * (1.0 - p) / res.trials)
    out["n10"] = (p - half, p + half)
    n, z0, _ = DECODE["full"]["sims"]["n16"]
    spec = lib.construction.select_classical(lib.erasure.RootChannel(z0), n, rate=0.5)
    z = np.exp2(-spec.l_era)
    out["n16"] = (float(z.max()), min(1.0, math.fsum(z.tolist())))
    return out


def level_fractions(lib) -> list[float]:
    root = lib.erasure.RootChannel(0.5)
    out = []
    for n in range(1, 17):
        z = np.exp2(-lib.erasure.level_log_table(root, n)[0])
        out.append(float(np.mean((z > 0.01) & (z < 0.99))))
    return out


def main() -> None:
    import_library()
    lib = library(None)
    reference = {"commit": git_commit(), "n10_trials": N10_TRIALS, "n10_seed": N10_SEED}
    os.makedirs(OUT_DIR / "tmp", exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR / "tmp")
    try:
        for scale in SCALES:
            reference[scale] = {}
            for wl in WORKLOADS.values():
                inputs = wl.make_inputs(lib, 0, scale)
                tmpdir = os.path.join(scratch, f"{scale}-{wl.name}")
                record = run_pass(wl, inputs, lib, None, {}, tmpdir, 0)
                for name, job in record["jobs"].items():
                    reference[scale][name] = job["facts"]
                print(f"{scale} {wl.name}: {len(record['jobs'])} jobs")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    intervals = sim_intervals(lib, reference["full"]["exact"]["block_error"])
    fractions = level_fractions(lib)
    for scale in SCALES:
        for label, (lo, hi) in intervals.items():
            entry = reference[scale][f"simulate.{label}"]
            entry.pop("block_errors")
            entry.pop("wilson3")
            entry.update(p_lo=lo, p_hi=hi)
        reference[scale]["mu_estimate"]["level_fractions"] = fractions
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
