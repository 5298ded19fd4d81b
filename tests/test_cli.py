"""End-to-end command-line behavior: configs, reports, side files, exit codes."""

import csv
import json
import subprocess
import sys

import pytest

from polarbec.cli import entrypoint


def run_cli(capsys, *argv):
    code = entrypoint(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def test_criterion_default_run(capsys):
    code, out, err = run_cli(capsys, "criterion")
    assert code == 0 and err is None
    assert out["config"]["subcommand"] == "criterion"
    assert out["config"]["alpha"] == 0.64
    assert out["sup_ratio"] == pytest.approx(0.8326048558320692, abs=1e-6)
    assert out["polarizes"] is True and out["mu_star_above_2"] is True
    assert out["mu_star"] == pytest.approx(3.78, abs=0.02)


def test_criterion_alpha_half(capsys):
    code, out, _ = run_cli(capsys, "criterion", "--alpha", "0.5")
    assert code == 0
    assert out["sup_ratio"] == pytest.approx(3.0**0.5 / 2.0, abs=1e-9)
    assert out["polarizes"] is True and out["mu_star_above_2"] is True
    assert out["mu_star"] == pytest.approx(4.818841679306406, abs=1e-6)


def test_criterion_dipped_table_does_not_polarize(capsys, tmp_path):
    # parabola with its center node crushed: the ratio at xi = 1/2 blows up
    table = tmp_path / "dipped.csv"
    rows = []
    for k in range(65):
        x = k / 64
        scale = 0.1 if k == 32 else 1.0
        rows.append(f"{x},{x * (1.0 - x) * scale}\n")
    table.write_text("".join(rows))
    code, out, _ = run_cli(capsys, "criterion", "--h-table", str(table))
    assert code == 0
    assert out["sup_ratio"] >= 7.0
    assert out["polarizes"] is False
    assert out["mu_star_above_2"] is False and out["mu_star"] is None


def test_criterion_table_must_vanish_at_ends(capsys, tmp_path):
    table = tmp_path / "flat.csv"
    table.write_text("".join(f"{x / 64},1.0\n" for x in range(65)))
    code, _, err = run_cli(capsys, "criterion", "--h-table", str(table))
    assert code == 2 and err["error"] == "InvalidCandidateError"


def test_criterion_bad_alpha_exits_2(capsys):
    code, out, err = run_cli(capsys, "criterion", "--alpha", "1.5")
    assert code == 2 and out is None
    assert err["exit_code"] == 2 and err["error"] == "ValueError"
    assert "alpha" in err["message"]


def test_criterion_ratio_csv(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "criterion", "--ratio-csv", str(target))
    assert code == 0
    rows = list(csv.reader(target.open()))
    assert rows[0] == ["xi", "ratio"]
    assert len(rows) > 1000
    assert max(float(r[1]) for r in rows[1:]) <= 0.8326048558320692 + 1e-9


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"alpha": 0.5}))
    code, out, _ = run_cli(capsys, "criterion", "--config", str(cfg))
    assert code == 0 and out["config"]["alpha"] == 0.5
    code, out, _ = run_cli(
        capsys, "criterion", "--config", str(cfg), "--alpha", "0.64"
    )
    assert code == 0 and out["config"]["alpha"] == 0.64  # flag wins


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "criterion", "--config", str(cfg))
    assert code == 2 and "bogus" in err["message"]


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "criterion", "--config", str(tmp_path / "absent.json")
    )
    assert code == 2 and err["exit_code"] == 2


def test_mu_estimate_run_and_csv(capsys, tmp_path):
    target = tmp_path / "iters.csv"
    code, out, _ = run_cli(
        capsys, "mu-estimate", "--steps", "20", "--iterates-csv", str(target)
    )
    assert code == 0
    assert out["mu"] == pytest.approx(3.63, abs=0.05)
    assert out["steps"] == 20
    rows = list(csv.reader(target.open()))
    assert rows[0] == ["step", "g_z0"]
    assert len(rows) == 22  # header + initial indicator + 20 iterates
    vals = [float(r[1]) for r in rows[1:]]
    assert vals[0] == 1.0 and all(b <= a for a, b in zip(vals, vals[1:]))


def test_mu_estimate_too_few_steps_exits_2(capsys):
    code, _, err = run_cli(capsys, "mu-estimate", "--steps", "5")
    assert code == 2 and err["error"] == "ValueError"


def test_mu_estimate_degenerate_exits_3(capsys):
    code, _, err = run_cli(capsys, "mu-estimate", "--z0", "1.0")
    assert code == 3 and err["error"] == "DegenerateFitError"


def test_construct_multipocket_report(capsys):
    code, out, _ = run_cli(capsys, "construct", "--pockets", "4")
    assert code == 0
    assert out["size"] == 2312
    assert out["n0"] == 8 and out["quota"] == 5
    assert [p["level"] for p in out["pockets"]] == [2, 4, 6, 8]
    assert out["rate"] == pytest.approx(0.0352783203125, abs=1e-15)
    assert out["gap"] == pytest.approx(0.5 - 0.0352783203125, abs=1e-12)
    assert out["union_bound_log"] > 1e3


def test_construct_writes_and_simulate_reads(capsys, tmp_path):
    code_file = tmp_path / "code.txt"
    code, out, _ = run_cli(
        capsys,
        "construct",
        "--mode",
        "classical",
        "--n",
        "4",
        "--rate",
        "0.5",
        "--code-out",
        str(code_file),
    )
    assert code == 0 and out["code_file"] == str(code_file)
    assert out["size"] == 8
    tally = tmp_path / "tally.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--code",
        str(code_file),
        "--trials",
        "3000",
        "--seed",
        "9",
        "--batch",
        "1000",
        "--csv",
        str(tally),
    )
    assert code == 0
    assert out["trials"] == 3000 and out["code_n"] == 4 and out["code_size"] == 8
    lo, hi = out["wilson_ci95"]
    assert lo <= out["estimate"] <= hi
    rows = list(csv.reader(tally.open()))
    assert rows[0] == ["trial_block", "errors", "trials", "estimate", "ci_lo", "ci_hi"]
    assert len(rows) == 4  # header + 3 batches
    assert sum(int(r[1]) for r in rows[1:]) == out["block_errors"]


def test_simulate_seed_out_of_range_exits_2(capsys, tmp_path):
    code_file = tmp_path / "code.txt"
    code, _, _ = run_cli(
        capsys, "construct", "--mode", "classical", "--n", "2", "--rate", "0.5",
        "--code-out", str(code_file),
    )
    assert code == 0
    for seed in ("18446744073709551616", "-1"):
        code, out, err = run_cli(capsys, "simulate", "--code", str(code_file), f"--seed={seed}")
        assert code == 2 and out is None
        assert err["exit_code"] == 2 and err["error"] == "ValueError"
        assert "seed" in err["message"]


def test_simulate_without_code_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate")
    assert code == 2 and "--code" in err["message"]


def test_construct_idempotent(capsys, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code_a = tmp_path / "a.txt"
    code_b = tmp_path / "b.txt"
    for out_path, code_path in ((out_a, code_a), (out_b, code_b)):
        rc = entrypoint(
            [
                "construct",
                "--pockets",
                "4",
                "--n",
                "14",
                "--output",
                str(out_path),
                "--code-out",
                str(code_path),
            ]
        )
        assert rc == 0
    assert out_a.read_bytes().replace(b"a.txt", b"") == out_b.read_bytes().replace(
        b"b.txt", b""
    )
    assert code_a.read_bytes() == code_b.read_bytes()


def test_construct_empty_code_exits_3_with_hint(capsys):
    code, _, err = run_cli(capsys, "construct", "--n", "8", "--pockets", "4")
    assert code == 3 and err["error"] == "EmptyCodeError"
    assert "largest achievable beta_p" in err["message"]


def test_construct_classical_needs_target(capsys):
    code, _, err = run_cli(capsys, "construct", "--mode", "classical", "--n", "4")
    assert code == 2 and "rate" in err["message"]


def test_construct_tight_budget_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "construct",
        "--mode",
        "classical",
        "--n",
        "4",
        "--budget",
        "1e-9",
    )
    assert code == 3 and err["error"] == "InfeasibleTargetError"


def test_construct_level_fractions(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct",
        "--n",
        "20",
        "--beta-p",
        "0.01",
        "--level-fractions",
        "0.7,0.9",
    )
    assert code == 0
    assert [p["level"] for p in out["pockets"]] == [14, 18]
    code, out, _ = run_cli(
        capsys,
        "construct",
        "--n",
        "20",
        "--beta-p",
        "0.01",
        "--level-fractions",
        "0.5,0.7,0.9",
    )
    assert code == 0
    assert [p["level"] for p in out["pockets"]] == [10, 14, 18]


def test_construct_cache_env_reused(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("POLARBEC_CACHE_DIR", str(cache))
    rc = entrypoint(["construct", "--mode", "classical", "--n", "10", "--rate", "0.4"])
    assert rc == 0
    files = sorted(p.name for p in cache.iterdir())
    assert len(files) == 1 and files[0].startswith("plzt-m10-")
    rc = entrypoint(["construct", "--mode", "classical", "--n", "10", "--rate", "0.4"])
    assert rc == 0
    assert sorted(p.name for p in cache.iterdir()) == files
    capsys.readouterr()


def test_frontier_report_and_csv(capsys, tmp_path):
    target = tmp_path / "frontier.csv"
    code, out, _ = run_cli(
        capsys, "frontier", "--samples", "5", "--csv", str(target)
    )
    assert code == 0
    assert len(out["points"]) == 5
    assert out["top_inv_mu"] == pytest.approx(0.2757099528, abs=1e-6)
    assert out["intercept_estimate"] == pytest.approx(0.4999991673976183, abs=1e-6)
    rows = list(csv.reader(target.open()))
    assert rows[0] == ["inv_mu_p", "beta_p", "worst_pi", "margin"]
    assert len(rows) == 6
    for row in rows[1:]:
        assert float(row[3]) > -1e-12  # every traced point is achievable
        if float(row[1]) > 0.0:
            assert float(row[3]) < 1e-3  # nonzero rows hug the boundary


def test_corollaries_pass(capsys):
    code, out, _ = run_cli(capsys, "corollaries", "--grid", "2000")
    assert code == 0
    assert out["passed"] is True
    assert out["segment_check"]["ok"] is True
    assert out["containment_check"]["ok"] is True
    assert len(out["containment_check"]["per_gamma"]) == 5
    code, out, _ = run_cli(capsys, "corollaries", "--grid", "2000", "--gammas", "0.4,0.8")
    assert code == 0 and len(out["containment_check"]["per_gamma"]) == 2


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    rc = entrypoint(["corollaries", "--grid", "2000", "--output", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["passed"] is True


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        entrypoint(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for sub in ("criterion", "mu-estimate", "construct", "frontier", "simulate", "corollaries"):
        assert sub in text


def test_subcommand_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        entrypoint(["construct", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--beta-p", "--mu-p", "--pockets", "--level-fractions", "--code-out"):
        assert flag in text


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        entrypoint(["transmogrify"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_module_invocation_round_trip(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "polarbec.cli", "corollaries", "--grid", "2000"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["passed"] is True and report["config"]["grid"] == 2000
