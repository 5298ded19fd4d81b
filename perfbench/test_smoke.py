"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import compare  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(tmp_path, workload, trace, *extra):
    out = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--scale", "tiny",
         "--seconds", "0", "--seed", "3", "--trace", str(trace), "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(out.read_text())["runs"][0]


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_workload_passes_its_checks(tmp_path, workload):
    line, record = _bench(tmp_path, workload, 0)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, record["failures"]
    assert set(line["metrics"]) == {m[0] for m in metrics.END_TO_END}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert record["detail"]["failed_frac"]["value"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_writes_spans(tmp_path, workload):
    line, record = _bench(tmp_path, workload, 1)
    assert line["correct"], record["failures"]
    assert set(line["metrics"]) == {m[0] for m in metrics.PER_LAYER}
    lines = Path(record["trace_file"]).read_text().splitlines()
    spans = [json.loads(s) for s in lines]
    assert all({"name", "start", "end", "parent", "pass"} <= set(s) for s in spans)
    calls = [s for s in spans if not s["name"].startswith("job.")]
    assert calls and all(s["parent"] is not None and s["end"] >= s["start"] for s in calls)


def test_wrong_reference_value_is_a_failed_check(tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    ref["tiny"]["exact"]["block_error"] *= 1.001
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    line, record = _bench(tmp_path, "decode", 0, "--reference", str(path))
    assert not line["correct"] and line["failed"] == 1
    assert record["detail"]["failed_frac"]["value"] > 0


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _runs(values):
    return [{"workload": "design", "trace": 0, "detail": {},
             "end_to_end": {"wall_s": {"value": v, "unit": "s", "better": "lower"}}}
            for v in values]


def test_compare_verdicts():
    base = _runs([10.0, 10.1, 10.2, 10.1, 10.0])
    assert compare.compare(base, base)[0]["verdict"] == "ok"
    assert compare.compare(base, _runs([13.0, 13.1, 13.2, 13.1, 13.0]))[0]["verdict"] == "WORSE"
    assert compare.compare(base, _runs([7.5, 7.6, 7.7, 7.6, 7.5]))[0]["verdict"] == "better"
    assert compare.compare(base, _runs([8.0, 12.0, 10.0, 14.0, 9.0]))[0]["verdict"] == "unresolved"
    assert compare.compare(base, _runs([10.0]))[0]["verdict"] == "unresolved"


@pytest.mark.parametrize("n,p", [(20, 0.3), (50, 0.02), (30, 0.9)])
def test_binomial_tails_match_direct_sums(n, p):
    pmf = [math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]
    for k in range(n + 1):
        assert math.isclose(checks.binomial_tail(k, n, p, upper=True), sum(pmf[k:]),
                            rel_tol=1e-9, abs_tol=1e-15)
        assert math.isclose(checks.binomial_tail(k, n, p, upper=False), sum(pmf[:k + 1]),
                            rel_tol=1e-9, abs_tol=1e-15)
