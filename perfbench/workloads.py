"""The four workloads: their inputs, timed jobs, output checks and work counts.

A workload is a list of jobs run in order; one pass runs every job once.  A
job's `run` does the timed library calls and returns their outputs; `facts`
reduces the outputs to plain values that are compared with the stored
reference (`reference.json`, made at the seed commit by
`make_reference.py`); `invariants` checks properties that must hold
whatever the reference says.  Checks run after the job's timer stops.

Every workload has two sizes: `full` is the benchmark, `tiny` runs the same
code paths in about a second for the smoke test.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from checks import digest, tally_consistent, wilson_band

SCALES = ("full", "tiny")

# A child process that runs longer than this is killed and its job fails.
CHILD_TIMEOUT_S = 120.0


@dataclass
class Ctx:
    """What a job sees: the library, the workload inputs and a fresh directory."""

    lib: Any
    inputs: dict
    tmpdir: str
    span: Callable
    state: dict = field(default_factory=dict)


@dataclass
class Job:
    name: str
    run: Callable[[Ctx], Any]
    facts: Callable[[Any, Ctx], dict]
    invariants: Callable[[Any, Ctx, dict], list[str]] = lambda out, ctx, ref: []
    work: dict = field(default_factory=dict)
    tol: dict = field(default_factory=dict)


def _fail_unless(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


# ---------------------------------------------------------------------------
# design: construct codes at large n.

DESIGN = {
    "full": {"sweep": (14, 16, 18, 20, 22), "mid": 24, "large": 26, "classical": 22,
             "cache": 22, "roundtrip": 20},
    "tiny": {"sweep": (14, 16), "mid": 18, "large": 20, "classical": 12,
             "cache": 12, "roundtrip": 14},
}
Z0 = 0.5
BETA, LOW_BETA, MU_P, MU_STAR, POCKETS, P_UB = 0.25, 0.10, 8.0, 3.8, 4, 2.0 ** -10


def _multipocket(ctx: Ctx, n: int, beta: float):
    root = ctx.lib.erasure.RootChannel(Z0)
    return ctx.lib.construction.construct_multipocket(
        root, n, beta, MU_P, MU_STAR, pockets=POCKETS, p_ub=P_UB
    )


def _pocket_counts(report, n: int) -> list[dict]:
    """Channels expanded and retained per pocket, computed from the report."""
    rows = []
    for s in report.pocket_stats:
        expanded = round(s.recruited_weight * 2 ** n)
        retained = round(s.retained_weight * 2 ** n)
        rows.append({"level": s.level, "expanded": expanded, "retained": retained})
    return rows


def _multipocket_facts(spec, report, n: int) -> dict:
    finite = spec.l_era[np.isfinite(spec.l_era)]
    return {
        "size": len(spec),
        "gap": report.gap,
        "union_bound_log": report.union_bound_log,
        "l_era_sum": float(np.sum(finite)),
        "selection_sha1": digest(spec.indices, spec.squaring_count, spec.source_pocket),
        "pockets": {f"p{i + 1}": row for i, row in enumerate(_pocket_counts(report, n))},
    }


def _multipocket_invariants(spec, report, n: int, beta: float) -> list[str]:
    quota = math.ceil(beta * n - 1e-9)
    return (
        _fail_unless(report.quota == quota, f"n={n}: quota {report.quota} != {quota}")
        + _fail_unless(
            bool(np.all(spec.squaring_count >= quota)),
            f"n={n}: a retained channel misses the squaring quota {quota}",
        )
        + _fail_unless(
            bool(np.all(spec.l_era >= 2.0 ** (beta * n))),
            f"n={n}: a retained channel has l_era below 2^(beta' n)",
        )
    )


MULTIPOCKET_TOL = {"union_bound_log": 1e-12, "l_era_sum": 1e-12}


def _sweep_job(sizes: dict) -> Job:
    ns = sizes["sweep"]

    def run(ctx):
        out = [(n, *_multipocket(ctx, n, BETA)) for n in ns]
        ctx.state["roundtrip_spec"] = next(s for n, s, _ in out if n == sizes["roundtrip"])
        return out

    return Job(
        "multipocket.small",
        run,
        facts=lambda out, ctx: {f"n{n}": _multipocket_facts(s, r, n) for n, s, r in out},
        invariants=lambda out, ctx, ref: [
            msg for n, s, r in out for msg in _multipocket_invariants(s, r, n, BETA)
        ],
        work={"channels": sum(2 ** n for n in ns)},
        tol=MULTIPOCKET_TOL,
    )


def _single_multipocket_job(name: str, n: int, beta: float) -> Job:
    return Job(
        name,
        lambda ctx: _multipocket(ctx, n, beta),
        facts=lambda out, ctx: _multipocket_facts(*out, n),
        invariants=lambda out, ctx, ref: _multipocket_invariants(*out, n, beta),
        work={"channels": 2 ** n},
        tol=MULTIPOCKET_TOL,
    )


def _classical_job(n: int) -> Job:
    def run(ctx):
        root = ctx.lib.erasure.RootChannel(Z0)
        le, lr = ctx.lib.erasure.level_log_table(root, n)
        spec = ctx.lib.construction.select_classical(root, n, rate=0.5, table=(le, lr))
        return le, lr, spec

    def invariants(out, ctx, ref):
        le, _, spec = out
        mean = float(np.exp2(-le).mean())
        return _fail_unless(
            abs(mean - Z0) <= 1e-9, f"level-{n} mean erasure {mean!r} is not within 1e-9 of {Z0}"
        ) + _fail_unless(len(spec) == 2 ** (n - 1), f"rate-1/2 code has {len(spec)} channels")

    return Job(
        "classical",
        run,
        facts=lambda out, ctx: {
            "size": len(out[2]),
            "table_sha1": digest(out[0], out[1]),
            "selection_sha1": digest(out[2].indices),
        },
        invariants=invariants,
        work={"channels": 2 ** n, "table_bytes": 16 * 2 ** n},
    )


def _cache_jobs(n: int) -> list[Job]:
    cache_bytes = 20 + 16 * 2 ** n  # PLZT header + one (l_era, l_rel) record per channel

    def miss(ctx):
        cache_dir = os.path.join(ctx.tmpdir, "cache")
        os.makedirs(cache_dir)
        le, lr = ctx.lib.erasure.cached_level_table(ctx.lib.erasure.RootChannel(Z0), n, cache_dir)
        ctx.state["cache"] = (cache_dir, le, lr)
        return le, lr

    def hit(ctx):
        cache_dir = ctx.state["cache"][0]
        return ctx.lib.erasure.cached_level_table(ctx.lib.erasure.RootChannel(Z0), n, cache_dir)

    def miss_invariants(out, ctx, ref):
        cache_dir = ctx.state["cache"][0]
        written = sum(os.path.getsize(os.path.join(cache_dir, f)) for f in os.listdir(cache_dir))
        return _fail_unless(
            written == cache_bytes, f"cache holds {written} bytes, expected {cache_bytes}"
        )

    def hit_invariants(out, ctx, ref):
        _, le, lr = ctx.state["cache"]
        same = digest(le, lr) == digest(*out)
        return _fail_unless(same, "cache hit returned different bits than the miss")

    facts = lambda out, ctx: {"table_sha1": digest(*out)}  # noqa: E731
    return [
        Job("cache.miss", miss, facts, miss_invariants, work={"cache_bytes": cache_bytes}),
        Job("cache.hit", hit, facts, hit_invariants, work={"cache_bytes": cache_bytes}),
    ]


def _roundtrip_job() -> Job:
    def run(ctx):
        spec = ctx.state["roundtrip_spec"]
        path = os.path.join(ctx.tmpdir, "code.txt")
        ctx.lib.construction.save_codespec(spec, path)
        return spec, ctx.lib.construction.load_codespec(path), path

    def facts(out, ctx):
        with open(out[2]) as fh:
            lines = sum(1 for _ in fh)
        return {"size": len(out[1]), "lines": lines}

    return Job(
        "codespec.roundtrip",
        run,
        facts,
        invariants=lambda out, ctx, ref: _fail_unless(
            out[1] == out[0], "load_codespec(save_codespec(spec)) differs from spec"
        ),
    )


def design_jobs(inputs: dict) -> list[Job]:
    sizes = DESIGN[inputs["scale"]]
    return [
        _sweep_job(sizes),
        _single_multipocket_job("multipocket.mid", sizes["mid"], BETA),
        _single_multipocket_job("multipocket.large", sizes["large"], BETA),
        _single_multipocket_job("multipocket.large_lowbeta", sizes["large"], LOW_BETA),
        _classical_job(sizes["classical"]),
        *_cache_jobs(sizes["cache"]),
        _roundtrip_job(),
    ]


def fixed_inputs(lib, seed: int, scale: str) -> dict:
    """Inputs of a workload whose every parameter is fixed."""
    return {"scale": scale}


def design_counts(record: dict) -> dict:
    counts = {}
    sizes = DESIGN[record["scale"]]
    for job, tag in (("multipocket.large", "n26"), ("multipocket.large_lowbeta", "n26b10")):
        facts = record["jobs"].get(job, {}).get("facts", {})
        for p, row in facts.get("pockets", {}).items():
            counts[f"construction.expanded.{tag}.{p}"] = row["expanded"]
            counts[f"construction.retained.{tag}.{p}"] = row["retained"]
            counts[f"construction.retain_ratio.{tag}.{p}"] = (
                row["retained"] / row["expanded"] if row["expanded"] else 0.0
            )
    counts["construction.channels_decided"] = sum(
        2 ** n for n in (*sizes["sweep"], sizes["mid"], sizes["large"], sizes["large"])
    )
    counts["construction.codespec_lines"] = record["jobs"]["codespec.roundtrip"]["facts"]["lines"]
    counts["erasure.table_bytes"] = record["work"]["classical"]["table_bytes"]
    counts["erasure.cache_bytes"] = record["work"]["cache.miss"]["cache_bytes"]
    return counts


# ---------------------------------------------------------------------------
# decode: validate codes by Monte-Carlo and by exact enumeration.

DECODE = {
    # label: (n, z0, trials) for simulate; exact: (n, z0)
    "full": {"sims": {"n4": (4, 0.2, 100_000), "n10": (10, 0.45, 20_000),
                      "n16": (16, 0.4, 1_000)}, "exact": (4, 0.2)},
    "tiny": {"sims": {"n4": (4, 0.2, 2_000), "n10": (10, 0.45, 500),
                      "n16": (16, 0.4, 20)}, "exact": (3, 0.2)},
}


def decode_inputs(lib, seed: int, scale: str) -> dict:
    """Classical rate-1/2 codes, and one simulate seed per code drawn from the workload seed."""
    sizes = DECODE[scale]
    seeds = np.random.SeedSequence(seed).generate_state(len(sizes["sims"]))
    codes = {}
    for (label, (n, z0, trials)), sim_seed in zip(sizes["sims"].items(), seeds):
        root = lib.erasure.RootChannel(z0)
        spec = lib.construction.select_classical(root, n, rate=0.5)
        codes[label] = (spec, root, trials, int(sim_seed))
    n, z0 = sizes["exact"]
    root = lib.erasure.RootChannel(z0)
    exact = (lib.construction.select_classical(root, n, rate=0.5), root)
    return {"scale": scale, "codes": codes, "exact": exact}


def _simulate_job(label: str, code) -> Job:
    spec, root, trials, sim_seed = code

    def facts(out, ctx):
        lo, hi = wilson_band(out.block_errors, out.trials, 3.0)
        return {"trials": out.trials, "block_errors": out.block_errors, "wilson3": [lo, hi]}

    def invariants(out, ctx, ref):
        lo, hi = ref["p_lo"], ref["p_hi"]
        return _fail_unless(
            out.trials == trials and tally_consistent(out.block_errors, out.trials, lo, hi),
            f"{out.block_errors}/{out.trials} block errors (seed {sim_seed}) is implausible "
            f"for a probability in [{lo!r}, {hi!r}]",
        )

    return Job(
        f"simulate.{label}",
        lambda ctx: ctx.lib.codec.simulate(spec, root, trials, sim_seed),
        facts,
        invariants,
        work={"trials": trials},
        tol={"block_errors": None, "wilson3": None},
    )


def decode_jobs(inputs: dict) -> list[Job]:
    spec, root = inputs["exact"]
    jobs = [_simulate_job(label, code) for label, code in inputs["codes"].items()]
    jobs.append(
        Job(
            "exact",
            lambda ctx: ctx.lib.codec.exact_block_error(spec, root),
            facts=lambda out, ctx: {"block_error": out},
            work={"patterns": 2 ** (2 ** spec.n)},
            tol={"block_error": 1e-12},
        )
    )
    return jobs


def decode_counts(record: dict) -> dict:
    jobs = record["jobs"]
    sims = [j for j in jobs if j.startswith("simulate.")]
    return {
        "codec.simulate.trials": sum(record["work"][j]["trials"] for j in sims),
        "codec.simulate.block_errors": sum(jobs[j]["facts"].get("block_errors", 0) for j in sims),
        "codec.exact.patterns": record["work"]["exact"]["patterns"],
    }


# ---------------------------------------------------------------------------
# region: criterion -> mu* -> frontier -> corollaries.

REGION = {
    "full": {"alphas": tuple(round(0.56 + 0.01 * k, 2) for k in range(21)), "grid": 100_000,
             "samples": 53, "reference_points": 53, "steps": 50, "g_grid": 2 ** 18},
    "tiny": {"alphas": (0.64,), "grid": 10_000, "samples": 5, "reference_points": 5,
             "steps": 20, "g_grid": 8192},
}
REFERENCE_MU_STAR = 3.627
FRONTIER_TOL = 1e-6


def _alpha_jobs(alpha: float, grid: int, samples: int) -> list[Job]:
    tag = f"a{alpha:.2f}"

    def criterion_run(ctx):
        res = ctx.lib.criterion.sup_ratio(ctx.lib.criterion.CandidateH.power(alpha), grid_size=grid)
        ctx.state[tag] = ctx.lib.criterion.mu_star_from_ratio(res.ratio)
        return res, ctx.state[tag]

    def criterion_invariants(out, ctx, ref):
        ratio = out[0].ratio
        if alpha != 0.64:
            return []
        return _fail_unless(0.825 <= ratio <= 0.840, f"sup ratio {ratio} outside [0.825, 0.840]")

    def frontier_invariants(points, ctx, ref):
        mu = ctx.state[tag]
        betas = [p.beta_p for p in points]
        return _fail_unless(
            abs(points[0].inv_mu_p - 1.0 / (mu * (1.0 + 1e-9))) <= 5e-4,
            f"top 1/mu' {points[0].inv_mu_p} does not match mu* {mu}",
        ) + _fail_unless(
            all(b <= c for b, c in zip(betas, betas[1:])),
            "frontier beta' is not non-decreasing as 1/mu' falls",
        )

    return [
        Job(
            f"sup_ratio.{tag}",
            criterion_run,
            facts=lambda out, ctx: {"ratio": out[0].ratio, "argmax": out[0].argmax, "mu_star": out[1]},
            invariants=criterion_invariants,
            work={"grid_points": grid},
            tol={"ratio": 1e-9, "argmax": 1e-6, "mu_star": 1e-9},
        ),
        Job(
            f"frontier.{tag}",
            lambda ctx: ctx.lib.frontier.trace_frontier(ctx.state[tag], samples=samples),
            facts=lambda pts, ctx: {
                "beta_p": [p.beta_p for p in pts],
                "inv_mu_p": [p.inv_mu_p for p in pts],
            },
            invariants=frontier_invariants,
            work={"points": samples},
            tol={"beta_p": FRONTIER_TOL, "inv_mu_p": 1e-12},
        ),
        Job(
            f"corollaries.{tag}",
            lambda ctx: ctx.lib.frontier.verify_corollaries(ctx.state[tag]),
            facts=lambda rep, ctx: {
                "passed": rep.passed,
                "segment_min_margin": rep.segment_min_margin,
                "containment_margins": [m for _, m in rep.containment_margins],
            },
            invariants=lambda rep, ctx, ref: _fail_unless(rep.passed, "corollary checks failed"),
            work={"corollary_calls": 1},
            tol={"segment_min_margin": FRONTIER_TOL, "containment_margins": FRONTIER_TOL},
        ),
    ]


def _reference_job(count: int) -> Job:
    def run(ctx):
        fr = ctx.lib.frontier
        points = fr.REFERENCE_BOUNDARY_3627[:count]
        betas = [fr.max_beta(1.0 / inv, REFERENCE_MU_STAR) for _, inv in points]
        return (
            points,
            betas,
            fr.conjectured_intercept(REFERENCE_MU_STAR),
            fr.verify_corollaries(REFERENCE_MU_STAR),
        )

    def invariants(out, ctx, ref):
        points, betas, intercept, rep = out
        worst = max(abs(b - ref_b) for b, (ref_b, _) in zip(betas, points))
        return (
            _fail_unless(worst <= 2e-3, f"max_beta deviates by {worst} from the stored boundary")
            + _fail_unless(abs(intercept - 0.4469) <= 5e-4, f"intercept {intercept} is not ~0.4469")
            + _fail_unless(rep.passed, "corollary checks at mu*=3.627 failed")
        )

    return Job(
        "reference.3627",
        run,
        facts=lambda out, ctx: {"max_beta": out[1], "intercept": out[2], "passed": out[3].passed},
        invariants=invariants,
        work={"max_beta_calls": count, "corollary_calls": 1},
        tol={"max_beta": FRONTIER_TOL, "intercept": 1e-12},
    )


def _mu_estimate_job(steps: int, grid: int) -> Job:
    def run(ctx):
        iterates = ctx.lib.criterion.iterate_g(0.01, 0.99, steps, grid_size=grid)
        return iterates, ctx.lib.criterion.estimate_mu(iterates, 0.5)

    def invariants(out, ctx, ref):
        iterates, mu = out
        # Count oracle: g_n(1/2) against the fraction of level-n channels
        # with erasure in (0.01, 0.99), stored from exact level tables.
        fractions = ref["level_fractions"]
        worst = max(abs(float(iterates[n](0.5)) - f) for n, f in enumerate(fractions, 1))
        return _fail_unless(3.55 <= mu <= 3.70, f"mu {mu} outside [3.55, 3.70]") + _fail_unless(
            worst <= 2e-3, f"count-oracle deviation {worst} exceeds 2e-3"
        )

    return Job(
        "mu_estimate",
        run,
        facts=lambda out, ctx: {"mu": out[1]},
        invariants=invariants,
        work={"grid_updates": grid * steps},
        tol={"mu": 1e-9},
    )


def region_jobs(inputs: dict) -> list[Job]:
    sizes = REGION[inputs["scale"]]
    jobs = [j for a in sizes["alphas"] for j in _alpha_jobs(a, sizes["grid"], sizes["samples"])]
    jobs.append(_reference_job(sizes["reference_points"]))
    jobs.append(_mu_estimate_job(sizes["steps"], sizes["g_grid"]))
    return jobs


def region_counts(record: dict) -> dict:
    work = record["work"].values()
    return {
        "frontier.points": sum(w.get("points", 0) + w.get("max_beta_calls", 0) for w in work),
        "criterion.grid_points": sum(w.get("grid_points", 0) + w.get("grid_updates", 0) for w in work),
    }


# ---------------------------------------------------------------------------
# cli: the command-line pipeline, one process per command.

CLI = {
    "full": {"classical_n": 22, "multipocket_n": 20, "code_n": 12, "trials": 10_000},
    "tiny": {"classical_n": 12, "multipocket_n": 14, "code_n": 6, "trials": 500},
}
CLI_BATCH = 4096  # the simulate subcommand's default rows per tally

REPORT_KEYS = {
    "criterion": {"sup_ratio", "argmax", "left_limit", "right_limit", "polarizes",
                  "mu_star", "mu_star_above_2"},
    "mu-estimate": {"mu", "steps", "g_final_z0"},
    "frontier": {"points", "top_inv_mu", "intercept_estimate"},
    "corollaries": {"mu_star", "beta_star", "segment_check", "containment_check", "passed"},
    "construct": {"size", "rate", "capacity", "gap", "union_bound_log", "pockets"},
    "simulate": {"trials", "block_errors", "estimate", "wilson_ci95", "z0", "code_n", "code_size"},
}


def cli_inputs(lib, seed: int, scale: str) -> dict:
    (sim_seed,) = np.random.SeedSequence(seed).generate_state(1)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lib.erasure.__file__)))
    return {"scale": scale, "sim_seed": int(sim_seed), "env": dict(os.environ, PYTHONPATH=src)}


def _cli_call(ctx: Ctx, label: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(ctx.inputs["env"], POLARBEC_CACHE_DIR=os.path.join(ctx.tmpdir, "cache"))
    with ctx.span(f"cli.{label}"):
        return subprocess.run(
            [sys.executable, "-m", "polarbec.cli", *args],
            env=env,
            cwd=ctx.tmpdir,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )


def _report(proc: subprocess.CompletedProcess, sub: str) -> tuple[dict, list[str]]:
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {}, [f"exit {proc.returncode}, expected 0: {tail[0]}"]
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        return {}, [f"report is not JSON: {exc}"]
    missing = REPORT_KEYS[sub] - set(report)
    return report, [f"report lacks keys {sorted(missing)}"] if missing else []


def _csv_rows(path: str) -> int:
    if not os.path.exists(path):
        return -1
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _cli_job(label: str, sub: str, args: list[str], facts_of, extra=None) -> Job:
    """A subcommand expected to exit 0; facts_of picks the compared report values."""

    def run(ctx):
        proc = _cli_call(ctx, label, [sub, *args])
        report, problems = _report(proc, sub)
        ctx.state[label] = report
        return report, problems

    def invariants(out, ctx, ref):
        report, problems = out
        if problems or extra is None:
            return problems
        return extra(report, ctx)

    return Job(
        label,
        run,
        facts=lambda out, ctx: facts_of(out[0]) if not out[1] else {},
        invariants=invariants,
        work={"processes": 1},
        tol={"sup_ratio": 1e-9, "mu_star": 1e-9, "mu": 1e-9, "top_inv_mu": 1e-9,
             "intercept_estimate": FRONTIER_TOL, "union_bound_log": 1e-12},
    )


def cli_jobs(inputs: dict) -> list[Job]:
    sizes = CLI[inputs["scale"]]
    classical = ["--mode", "classical", "--n", str(sizes["classical_n"]), "--rate", "0.5"]
    multipocket = ["--n", str(sizes["multipocket_n"]), "--beta-p", str(BETA), "--mu-p", str(MU_P),
                   "--mu-star", str(MU_STAR), "--pockets", str(POCKETS), "--code-out", "mp.txt"]
    small = ["--mode", "classical", "--n", str(sizes["code_n"]), "--z0", "0.4", "--rate", "0.5",
             "--code-out", "code.txt"]
    simulate = ["--code", "code.txt", "--csv", "sim.csv", "--seed", str(inputs["sim_seed"]),
                "--trials", str(sizes["trials"])]
    construct_facts = lambda r: {"size": r["size"], "gap": r["gap"],  # noqa: E731
                                 "union_bound_log": r["union_bound_log"]}

    def frontier_extra(report, ctx):
        rows = _csv_rows(os.path.join(ctx.tmpdir, "frontier.csv"))
        return _fail_unless(rows == len(report["points"]), f"frontier CSV has {rows} rows")

    def cold_extra(report, ctx):
        cache = os.path.join(ctx.tmpdir, "cache")
        files = os.listdir(cache) if os.path.isdir(cache) else []
        return _fail_unless(len(files) == 1, f"cold run left {len(files)} cache files")

    def warm_extra(report, ctx):
        return _fail_unless(report == ctx.state["construct.cold"], "warm report differs from cold")

    def code_file_extra(name):
        def check(report, ctx):
            with open(os.path.join(ctx.tmpdir, name)) as fh:
                lines = sum(1 for _ in fh)
            return _fail_unless(lines == report["size"] + 3, f"{name} has {lines} lines")
        return check

    def simulate_extra(report, ctx):
        rows = _csv_rows(os.path.join(ctx.tmpdir, "sim.csv"))
        return _fail_unless(
            report["trials"] == sizes["trials"]
            and 0 <= report["block_errors"] <= report["trials"]
            and report["code_n"] == sizes["code_n"]
            and rows == math.ceil(sizes["trials"] / CLI_BATCH),
            f"simulate report or CSV is inconsistent ({rows} CSV rows)",
        )

    def refusal_run(ctx):
        return _cli_call(ctx, "refusal", ["construct", "--mode", "classical", "--n", "30",
                                          "--rate", "0.5"])

    def refusal_facts(proc, ctx):
        try:
            return {"error": json.loads(proc.stderr.strip().splitlines()[-1])["error"]}
        except (json.JSONDecodeError, IndexError, KeyError, TypeError):
            return {}

    def refusal_invariants(proc, ctx, ref):
        lines = proc.stderr.strip().splitlines()
        try:
            line = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            return [f"refusal did not end with a JSON error line: {lines[-1:]}"]
        return _fail_unless(
            proc.returncode == 2 and not proc.stdout and line.get("exit_code") == 2
            and bool(line.get("message")),
            f"refusal exited {proc.returncode} with {line}",
        )

    return [
        _cli_job("criterion", "criterion", [],
                 lambda r: {"sup_ratio": r["sup_ratio"], "mu_star": r["mu_star"]}),
        _cli_job("mu-estimate", "mu-estimate", [], lambda r: {"mu": r["mu"]}),
        _cli_job("frontier", "frontier", ["--csv", "frontier.csv"],
                 lambda r: {"points": len(r["points"]), "top_inv_mu": r["top_inv_mu"],
                            "intercept_estimate": r["intercept_estimate"]},
                 frontier_extra),
        _cli_job("corollaries", "corollaries", [], lambda r: {"passed": r["passed"]}),
        _cli_job("construct.cold", "construct", classical, construct_facts, cold_extra),
        _cli_job("construct.warm", "construct", classical, construct_facts, warm_extra),
        _cli_job("construct.multipocket", "construct", multipocket, construct_facts,
                 code_file_extra("mp.txt")),
        _cli_job("construct.classical", "construct", small, construct_facts,
                 code_file_extra("code.txt")),
        _cli_job("simulate", "simulate", simulate,
                 lambda r: {"trials": r["trials"], "code_size": r["code_size"]}, simulate_extra),
        Job("refusal", refusal_run, refusal_facts, refusal_invariants, work={"processes": 1}),
    ]


def cli_counts(record: dict) -> dict:
    return {
        "cli.processes": sum(w.get("processes", 0) for w in record["work"].values()),
        "erasure.cache_bytes": 20 + 16 * 2 ** CLI[record["scale"]]["classical_n"],
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[Any, int, str], dict]
    jobs: Callable[[dict], list[Job]]
    counts: Callable[[dict], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("design", "large-n multi-pocket and classical construction, level tables, "
                 "the table cache and the code file", fixed_inputs, design_jobs, design_counts),
        Workload("decode", "Monte-Carlo simulation in its RNG-bound and profile-bound regimes, "
                 "and exact enumeration", decode_inputs, decode_jobs, decode_counts),
        Workload("region", "criterion, mu* and frontier sweep over alpha, the reference "
                 "boundary and the functional iteration", fixed_inputs, region_jobs,
                 region_counts),
        Workload("cli", "one process per subcommand of the user pipeline, with cold and "
                 "warm cache", cli_inputs, cli_jobs, cli_counts),
    )
}
