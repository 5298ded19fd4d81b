"""Metric definitions and how each is derived from the passes of one run.

END_TO_END and PER_LAYER are the metrics `BENCHMARK.json` names: every run
reports all of them, so none may depend on a job only one workload has.
DETAIL holds the workload-specific end-to-end metrics; they are printed and
stored in the result file, where `compare.py` reads them, with the bound
given here.

Per-layer timings are rates (work per second spent inside the layer's
spans), and a rate reads 0 on a workload that never calls that function.
"""

from __future__ import annotations

import statistics

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

DETAIL = (
    ("failed_frac", "ratio", "lower", 0.0),
    ("construct_mchannels_per_s", "M/s", "higher", 0.25),
    ("sim_trials_per_s.n10", "1/s", "higher", 0.25),
    ("sim_trials_per_s.n16", "1/s", "higher", 0.25),
    ("exact_s", "s", "lower", 0.25),
    ("frontier_s", "s", "lower", 0.25),
    ("cli_start_s", "s", "lower", 0.25),
)

# (name, unit, span name, job name or prefix (None: every job), work key, scale)
RATES = (
    ("erasure.level_log_table.mch_per_s", "M/s", "erasure.level_log_table", "classical", "channels", 1e-6),
    ("erasure.cache_miss.mb_per_s", "MB/s", "erasure.cached_level_table", "cache.miss", "cache_bytes", 1e-6),
    ("erasure.cache_hit.mb_per_s", "MB/s", "erasure.cached_level_table", "cache.hit", "cache_bytes", 1e-6),
    ("construction.multipocket.mch_per_s.small", "M/s", "construction.construct_multipocket", "multipocket.small", "channels", 1e-6),
    ("construction.multipocket.mch_per_s.n24", "M/s", "construction.construct_multipocket", "multipocket.mid", "channels", 1e-6),
    ("construction.multipocket.mch_per_s.n26", "M/s", "construction.construct_multipocket", "multipocket.large", "channels", 1e-6),
    ("construction.multipocket.mch_per_s.n26b10", "M/s", "construction.construct_multipocket", "multipocket.large_lowbeta", "channels", 1e-6),
    ("construction.select_classical.mch_per_s", "M/s", "construction.select_classical", "classical", "channels", 1e-6),
    ("construction.save_codespec.klines_per_s", "k/s", "construction.save_codespec", "codespec.roundtrip", "lines", 1e-3),
    ("construction.load_codespec.klines_per_s", "k/s", "construction.load_codespec", "codespec.roundtrip", "lines", 1e-3),
    ("codec.simulate.trials_per_s.n4", "1/s", "codec.simulate", "simulate.n4", "trials", 1.0),
    ("codec.simulate.trials_per_s.n10", "1/s", "codec.simulate", "simulate.n10", "trials", 1.0),
    ("codec.simulate.trials_per_s.n16", "1/s", "codec.simulate", "simulate.n16", "trials", 1.0),
    # derived: exact_block_error runs sc_decode_bec once per erasure pattern
    ("codec.sc_decode_bec.calls_per_s", "1/s", "codec.exact_block_error", "exact", "patterns", 1.0),
    ("criterion.sup_ratio.mpts_per_s", "M/s", "criterion.sup_ratio", "sup_ratio", "grid_points", 1e-6),
    ("criterion.iterate_g.mpts_per_s", "M/s", "criterion.iterate_g", "mu_estimate", "grid_updates", 1e-6),
    ("frontier.trace_frontier.points_per_s", "1/s", "frontier.trace_frontier", "frontier", "points", 1.0),
    ("frontier.max_beta.calls_per_s", "1/s", "frontier.max_beta", "reference.3627", "max_beta_calls", 1.0),
    ("frontier.verify_corollaries.calls_per_s", "1/s", "frontier.verify_corollaries", None, "corollary_calls", 1.0),
) + tuple(
    (f"cli.{label}.runs_per_s", "1/s", f"cli.{label}", label, "processes", 1.0)
    for label in ("criterion", "mu-estimate", "frontier", "corollaries", "construct.cold",
                  "construct.warm", "construct.multipocket", "construct.classical",
                  "simulate", "refusal")
)

# (name, unit, better): work counts computed by each workload's `counts`
COUNTS = (
    ("erasure.table_bytes", "bytes", "lower"),
    ("erasure.cache_bytes", "bytes", "lower"),
    *(
        (f"construction.{kind}.n26.p{p}", unit, better)
        for kind, unit, better in (("expanded", "count", "lower"),
                                   ("retained", "count", "higher"),
                                   ("retain_ratio", "ratio", "higher"))
        for p in range(1, 5)
    ),
    ("codec.simulate.trials", "count", "higher"),
    ("codec.simulate.block_errors", "count", "lower"),
    ("codec.exact.patterns", "count", "lower"),
    ("frontier.points", "count", "higher"),
    ("cli.processes", "count", "lower"),
)

PER_LAYER = tuple((name, unit, "higher") for name, unit, *_ in RATES) + COUNTS


def _matches(job: str, prefix: str | None) -> bool:
    return prefix is None or job == prefix or job.startswith(prefix + ".")


def _work(record: dict, job: str, key: str) -> float:
    value = record["work"][job].get(key)
    if value is None:
        value = record["jobs"][job]["facts"].get(key, 0)
    return value


def pass_wall(record: dict) -> float:
    return sum(j["s"] for j in record["jobs"].values())


def _job_s(record: dict, job: str):
    return record["jobs"][job]["s"] if job in record["jobs"] else None


def detail_for_pass(record: dict) -> dict:
    jobs = record["jobs"]
    mp = [j for j in jobs if j.startswith("multipocket.")]
    frontier = [jobs[j]["s"] for j in jobs if j.startswith("frontier.")]
    out = {
        "construct_mchannels_per_s": (
            sum(_work(record, j, "channels") for j in mp) / sum(jobs[j]["s"] for j in mp) * 1e-6
            if mp else None
        ),
        "exact_s": _job_s(record, "exact"),
        "frontier_s": statistics.median(frontier) if frontier else None,
        "cli_start_s": _job_s(record, "criterion"),
    }
    for label in ("n10", "n16"):
        s = _job_s(record, f"simulate.{label}")
        out[f"sim_trials_per_s.{label}"] = (
            _work(record, f"simulate.{label}", "trials") / s if s else None
        )
    return out


def rates_for_pass(record: dict, span_seconds: dict) -> dict:
    """Per-layer rates of one pass; span_seconds maps (job, span name) to seconds."""
    out = {}
    for name, _, span, prefix, key, scale in RATES:
        jobs = [j for j in record["jobs"] if _matches(j, prefix)]
        busy = sum(span_seconds.get((j, span), 0.0) for j in jobs)
        work = sum(_work(record, j, key) for j in jobs if (j, span) in span_seconds)
        out[name] = work * scale / busy if busy > 0.0 else 0.0
    return out
