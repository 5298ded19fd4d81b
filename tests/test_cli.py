"""End-to-end command-line behavior: configs, reports, side files, exit codes."""

import csv
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polarbec import cli, codec, construction, criterion, errors
from polarbec.cli import SUBCOMMANDS, _float_list, _real, entrypoint
from polarbec.erasure import RootChannel, cached_level_table

README = Path(__file__).resolve().parents[1] / "README.md"


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
    # the ratio's one end limit, under the key of either end
    assert out["left_limit"] == out["right_limit"] == 2.0**-0.5


def test_criterion_bad_alpha_exits_2(capsys):
    code, out, err = run_cli(capsys, "criterion", "--alpha", "1.5")
    assert code == 2 and out is None
    assert err["exit_code"] == 2 and err["error"] == "ValueError"
    assert "alpha" in err["message"]


def test_criterion_h_table_is_gone(capsys, tmp_path):
    # there is no tabulated candidate: --h-table is a flag argparse does not know,
    # and h_table a config key resolve_config does not know
    with pytest.raises(SystemExit) as refused:
        entrypoint(["criterion", "--h-table", str(tmp_path / "h.csv")])
    assert refused.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"h_table": str(tmp_path / "h.csv")}))
    code, out, err = run_cli(capsys, "criterion", "--config", str(cfg))
    assert code == 2 and out is None and err["error"] == "ValueError"
    assert err["message"] == "unknown config keys for criterion: h_table"


def test_criterion_over_memory_budget_exits_2(capsys, monkeypatch):
    # 56 bytes a ratio point and 4 KiB: one byte less than the default
    # grid's estimate is refused, before any point is allocated
    need = 56 * 4096 + 4096
    monkeypatch.setattr(errors, "_memory_budget", lambda: need - 1)
    code, out, err = run_cli(capsys, "criterion")
    assert code == 2 and out is None and err["error"] == "LevelTooLargeError"
    assert err["message"] == (
        "the ratio curve on 4,096 points would need about 233,472 bytes, over the "
        "budget of 233,471 bytes (half of physical memory)"
    )
    monkeypatch.setattr(errors, "_memory_budget", lambda: need)
    assert run_cli(capsys, "criterion")[0] == 0
    # a grid of 10**12 points would need some 56 TB: refused at the real budget
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "criterion", "--grid", "1000000000000")
    assert code == 2 and out is None and err["error"] == "LevelTooLargeError"


def test_criterion_ratio_csv(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "criterion", "--ratio-csv", str(target))
    assert code == 0
    rows = list(csv.reader(target.read_text().splitlines()))
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
    # level_fractions is gone, as a key and as a flag: --levels is the one
    # explicit pocket list
    for sub, key in (("criterion", "bogus"), ("construct", "level_fractions")):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: 1}))
        code, _, err = run_cli(capsys, sub, "--config", str(cfg))
        assert code == 2 and err["message"] == f"unknown config keys for {sub}: {key}"
    with pytest.raises(SystemExit) as refused:
        entrypoint(["construct", "--level-fractions", "0.7,0.9"])
    assert refused.value.code == 2
    capsys.readouterr()


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "criterion", "--config", str(tmp_path / "absent.json")
    )
    assert code == 2 and err["exit_code"] == 2


def test_construct_bad_mode_exits_2_with_json_line(capsys):
    code, out, err = run_cli(capsys, "construct", "--mode", "bogus")
    assert code == 2 and out is None
    assert err["exit_code"] == 2 and err["error"] == "ValueError"
    assert "bogus" in err["message"]


@pytest.mark.parametrize(
    "config, flags, key",
    [
        ({"n": 12.7, "mode": "classical", "rate": 0.5}, [], "n"),
        ({"levels": [2.6, 4.2, 6, 8], "pockets": 4}, [], "levels"),
        ({}, ["--levels", "2.6,4,6,8"], "levels"),
    ],
)
def test_non_integer_exits_2(capsys, tmp_path, config, flags, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "construct", "--config", str(cfg), *flags)
    assert code == 2 and out is None
    assert err["exit_code"] == 2 and err["error"] == "ValueError"
    assert f"construct option {key}:" in err["message"]


def _every_key_args(tmp_path):
    code_file = tmp_path / "tiny.txt"
    assert entrypoint(
        ["construct", "--mode", "classical", "--n", "2", "--rate", "0.5",
         "--code-out", str(code_file), "--output", str(tmp_path / "tiny.json")]
    ) == 0
    out = str(tmp_path / "side.csv")
    code_out = str(tmp_path / "c.txt")
    # each construct mode reads some of its keys, and pockets and levels
    # exclude each other; the three runs give them all
    return [
        ("criterion", {"alpha": 0.5, "grid": 1000, "ratio_csv": out}),
        ("mu-estimate", {"a": 0.02, "b": 0.98, "steps": 10, "grid": 4096, "z0": 0.5,
                         "fit_fraction": 0.5, "iterates_csv": out}),
        ("construct", {"mode": "classical", "n": 3, "z0": 0.4, "rate": 0.5, "budget": None,
                       "code_out": code_out}),
        ("construct", {"mode": "multipocket", "n": 9, "z0": 0.4, "beta_p": 0.01, "mu_p": 8,
                       "mu_star": 3.8, "pockets": 4, "p_ub": 0.5, "code_out": code_out}),
        ("construct", {"n": 6, "levels": [2, 4], "p_ub": 0.5, "beta_p": 0.01}),
        ("frontier", {"mu_star": 3.627, "samples": 3, "csv": out}),
        ("simulate", {"code": str(code_file), "z0": 0.3, "trials": 64, "seed": 5,
                      "batch": 32, "csv": out}),
        ("corollaries", {"mu_star": 3.627, "beta_star": 0.4469, "gammas": [0.5, 0.9]}),
    ]


def test_config_with_every_key_echoes_like_flags(capsys, tmp_path):
    given = {}
    for sub, values in _every_key_args(tmp_path):
        given.setdefault(sub, set()).update(values)
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps(values))
        code, from_file, err = run_cli(capsys, sub, "--config", str(cfg))
        assert code == 0, err
        flags = []
        for key, value in values.items():
            if value is not None:
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                flags += ["--" + key.replace("_", "-"), text]
        code, from_flags, err = run_cli(capsys, sub, *flags)
        assert code == 0, err
        # compared as JSON text, so an unconverted 8 differs from 8.0
        assert json.dumps(from_file["config"]) == json.dumps(from_flags["config"])
        keys = {row[0] for row in SUBCOMMANDS[sub][2]}
        assert set(from_file["config"]) == {"subcommand", *keys}
    # every key of every subcommand was given in some run
    assert given == {sub: {row[0] for row in rows} for sub, (_, _, rows) in SUBCOMMANDS.items()}


# per construct mode, a value for each option that only the other mode reads
UNREAD = {
    "classical": {"beta_p": 0.3, "mu_p": 8, "mu_star": 3.8, "pockets": 3, "p_ub": 0.5,
                  "levels": [2, 4]},
    "multipocket": {"rate": 0.5, "budget": 0.1},
}


@pytest.mark.parametrize(
    "mode, key", [(mode, key) for mode, values in UNREAD.items() for key in values]
)
def test_construct_option_the_mode_does_not_read_exits_2(capsys, tmp_path, mode, key):
    # named whether it comes as a flag or as a config key; the run stops
    # before any table is built, so n = 40 returns at once
    value = UNREAD[mode][key]
    other = "multipocket" if mode == "classical" else "classical"
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: value}))
    base = ["construct", "--mode", mode, "--n", "40"]
    for extra in (["--" + key.replace("_", "-"), text], ["--config", str(cfg)]):
        code, out, err = run_cli(capsys, *base, *extra)
        assert code == 2 and out is None and err["error"] == "ValueError"
        assert err["message"] == (
            f"construct option {key} is read only in {other} mode, not in {mode} mode"
        )


def test_construct_defaults_and_nulls_of_unread_options_pass(capsys, tmp_path):
    # a default is never refused, nor a null for an option whose default is
    # null; the second run is the default multi-pocket build
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"levels": None}))
    argv = ["construct", "--mode", "classical", "--n", "4", "--rate", "0.5"]
    code, out, _ = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 0 and out["config"]["pockets"] == 8 and out["config"]["levels"] is None
    cfg.write_text(json.dumps({"rate": None, "budget": None}))
    code, out, _ = run_cli(capsys, "construct", "--config", str(cfg))
    assert code == 0 and out["config"]["rate"] is None


def test_mu_estimate_run_and_csv(capsys, tmp_path):
    target = tmp_path / "iters.csv"
    code, out, _ = run_cli(
        capsys, "mu-estimate", "--steps", "20", "--iterates-csv", str(target)
    )
    assert code == 0
    assert out["mu"] == pytest.approx(3.63, abs=0.05)
    assert out["steps"] == 20
    rows = list(csv.reader(target.read_text().splitlines()))
    assert rows[0] == ["step", "g_z0"]
    assert len(rows) == 22  # header + initial indicator + 20 iterates
    vals = [float(r[1]) for r in rows[1:]]
    assert vals[0] == 1.0 and all(b <= a for a, b in zip(vals, vals[1:]))


def test_mu_estimate_too_few_steps_exits_2(capsys):
    code, _, err = run_cli(capsys, "mu-estimate", "--steps", "5")
    assert code == 2 and err["error"] == "ValueError"


def test_mu_estimate_over_memory_budget_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mu-estimate", "--steps", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out is None and err["error"] == "LevelTooLargeError"
    assert "MiB" in err["message"] and "half of physical memory" in err["message"]


def test_frontier_over_memory_budget_exits_2_at_once(capsys):
    # about 169 bytes a sample: 10**8 samples need some 16 GB, over half of
    # physical memory on any host below 32 GB; larger hosts get more samples
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    samples = max(10**8, phys // 100)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "frontier", "--samples", str(samples))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out is None and err["error"] == "LevelTooLargeError"
    assert f"trace_frontier with {samples} samples" in err["message"]
    assert "MiB" in err["message"] and "half of physical memory" in err["message"]


def test_mu_estimate_degenerate_exits_3(capsys):
    code, _, err = run_cli(capsys, "mu-estimate", "--z0", "1.0")
    assert code == 3 and err["error"] == "DegenerateFitError"


@pytest.mark.parametrize(
    "flag, name",
    [
        ("--z0=nan", "z0"),
        ("--z0=1.5", "z0"),
        ("--fit-fraction=0", "fit_fraction"),
        ("--fit-fraction=1.5", "fit_fraction"),
        ("--fit-fraction=nan", "fit_fraction"),
        ("--fit-fraction=0.05", "fit window"),  # 1 of 12 iterates
    ],
)
def test_mu_estimate_bad_z0_or_fit_fraction_exits_2(capsys, monkeypatch, flag, name):
    # refused before the iteration runs
    def iterate_g(*args, **kwargs):
        raise AssertionError("iterate_g ran before the checks")

    monkeypatch.setattr(criterion, "iterate_g", iterate_g)
    code, out, err = run_cli(capsys, "mu-estimate", "--steps", "11", "--grid", "4096", flag)
    assert code == 2 and out is None
    assert err["error"] == "ValueError" and name in err["message"]


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
    rows = list(csv.reader(tally.read_text().splitlines()))
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


@pytest.mark.parametrize(
    "line",
    [
        "j=1 m=0 lera=1.0",  # missing key
        "j=1 m=0 sq=0 lera=1.0 x=2",  # extra token
        "j=1 m=0 sq=0 lera=1.0 j=2",  # repeated key
        "j=one m=0 sq=0 lera=1.0",  # non-integer j
        "j=18446744073709551616 m=0 sq=0 lera=1.0",  # j past 64 bits
        "j=1 m=0 sq=256 lera=1.0",  # sq past its byte
    ],
)
def test_simulate_bad_code_line_exits_2(capsys, tmp_path, line):
    code_file = tmp_path / "code.txt"
    code_file.write_text(f"n=2\nz0=0.5\nparams=mode=classical\n{line}\n")
    code, out, err = run_cli(capsys, "simulate", "--code", str(code_file))
    assert code == 2 and out is None and err["error"] == "ValueError"
    assert f"{code_file}, line 4" in err["message"]


@pytest.mark.parametrize(
    ("header", "lineno", "detail"),
    [
        ("n=abc\nz0=0.5\n", 1, "invalid literal for int() with base 10: 'abc'"),
        ("\nn=4\nz0=half\n", 3, "could not convert string to float: 'half'"),
        # a channel line in place of params= would be read as the params,
        # and the code would lose that channel
        ("n=2\nz0=0.5\nj=1 m=0 sq=0 lera=1.0 ", None, "malformed header"),
    ],
)
def test_simulate_bad_code_header_value_exits_2(capsys, tmp_path, header, lineno, detail):
    code_file = tmp_path / "code.txt"
    code_file.write_text(f"{header}params=mode=classical\nj=1 m=0 sq=0 lera=1.0\n")
    code, out, err = run_cli(capsys, "simulate", "--code", str(code_file))
    assert code == 2 and out is None and err["error"] == "ValueError"
    where = code_file if lineno is None else f"{code_file}, line {lineno}"
    assert err["message"] == f"{where}: {detail}"


@pytest.mark.parametrize(
    ("line", "detail"),
    [
        # sq= counts the squarings below level m only: 1 for j - 1 = 0b11
        # below m = 3, not the path's 2
        ("j=4 m=3 sq=2 lera=1.0", "channel j=4 m=3 has sq=2, but j and m give sq=1"),
        ("j=4 m=5 sq=0 lera=1.0", "source pocket outside [0, 4]"),
    ],
)
def test_simulate_code_with_a_wrong_squaring_count_or_pocket_exits_2(
    capsys, tmp_path, line, detail
):
    code_file = tmp_path / "code.txt"
    code_file.write_text(f"n=4\nz0=0.5\nparams=mode=classical\nj=1 m=0 sq=0 lera=1.0\n{line}\n")
    code, out, err = run_cli(capsys, "simulate", "--code", str(code_file))
    assert code == 2 and out is None and err["error"] == "ValueError"
    assert err["message"] == f"{code_file}: {detail}"


def test_simulate_over_memory_budget_exits_2(capsys, tmp_path, monkeypatch, workers):
    # one channel, but simulate would hold 2**40 words per 64 trials
    code_file = tmp_path / "code.txt"
    code_file.write_text("n=40\nz0=0.5\nparams=mode=classical\nj=1 m=0 sq=0 lera=1.0\n")
    code, out, err = run_cli(capsys, "simulate", "--code", str(code_file))
    assert code == 2 and out is None and err["error"] == "LevelTooLargeError"
    assert "n=40" in err["message"]
    # n = 4, but 10**13 batches of one trial would hold some 1,700 TiB of tally
    code_file.write_text("n=4\nz0=0.5\nparams=mode=classical\nj=1 m=0 sq=0 lera=1.0\n")
    code, out, err = run_cli(
        capsys, "simulate", "--code", str(code_file), "--trials", str(10**13), "--batch", "1"
    )
    assert code == 2 and out is None and err["error"] == "LevelTooLargeError"
    assert "n=4" in err["message"]
    # On one worker, n = 26 needs its 512 MiB slab of one word row, the
    # profile's scratch of half a 2**15-word piece, numpy's three buffers of
    # 512 words and 4 KiB for the iterator, three times a draw's two
    # 2**16-word buffers, and 64 bytes for each of the 3 batches of 10,000
    # trials and the end.
    # One byte less is refused; the estimate itself is admitted, and the
    # first draw stops the run, as it would stop a run that an estimate too
    # small let through.
    def stop(*args):
        raise RuntimeError("admitted")

    monkeypatch.setattr(codec, "_draw_group", stop)
    workers(1)
    need = 2**29 + 8 * (2**14 + 3 * 512) + 4096 + 3 * 2 * 2**19 + 64 * 4
    code_file.write_text("n=26\nz0=0.5\nparams=mode=classical\nj=1 m=0 sq=0 lera=1.0\n")
    monkeypatch.setattr(errors, "_memory_budget", lambda: need - 1)
    code, out, err = run_cli(capsys, "simulate", "--code", str(code_file))
    assert code == 2 and out is None and err["error"] == "LevelTooLargeError"
    assert err["message"].startswith("simulate at n=26, 64 trials a slab would need about 515 MiB")
    monkeypatch.setattr(errors, "_memory_budget", lambda: need)
    for count in (1, 2):
        # on two CPUs the worker the budget cannot hold is dropped
        workers(count)
        code, out, err = run_cli(capsys, "simulate", "--code", str(code_file))
        assert code == 4 and out is None and err["message"] == "admitted"


def test_simulate_code_over_memory_budget_exits_2_before_parsing(capsys, tmp_path, monkeypatch):
    # 32 bytes of columns for each 20 bytes of file, 8 for each byte of the
    # piece being parsed (here the whole file), the 128 KiB buffer of a read
    # and 16 KiB more, checked before any line is read: one byte less and
    # the bad line below is never reached
    code_file = tmp_path / "code.txt"
    code_file.write_text("n=4\nz0=0.5\nparams=\n" + "j=1 m=0 sq=0 lera=1.0\n" * 100 + "bad\n")
    size = code_file.stat().st_size
    need = 32 * (size // 20 + 1) + 8 * size + (1 << 17) + (1 << 14)
    monkeypatch.setattr(errors, "_memory_budget", lambda: need - 1)
    code, out, err = run_cli(capsys, "simulate", "--code", str(code_file))
    assert code == 2 and out is None and err["error"] == "LevelTooLargeError"
    assert f"the code file {code_file} would need about" in err["message"]
    monkeypatch.setattr(errors, "_memory_budget", lambda: need)
    code, out, err = run_cli(capsys, "simulate", "--code", str(code_file))
    assert code == 2 and err["error"] == "ValueError" and f"{code_file}, line 104" in err["message"]


def test_simulate_code_with_n_past_64_bits_exits_2(capsys, tmp_path):
    # uint64 channel indices cannot reach past 2**64, so n is refused before
    # any 2**n-sized integer or array is built
    code_file = tmp_path / "code.txt"
    code_file.write_text(
        "n=1000000000000\nz0=0.5\nparams=mode=classical\nj=1 m=0 sq=0 lera=1.0\n"
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--code", str(code_file))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out is None and err["error"] == "ValueError"
    assert err["message"] == (
        f"{code_file}: n=1000000000000 is outside [0, 64): channel indices are 64-bit"
    )


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


def test_construct_empty_code_blames_n_below_max_beta(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--levels", "1,2", "--n", "4", "--beta-p", "0.01"
    )
    assert code == 3 and err["error"] == "EmptyCodeError"
    assert "pockets=2" in err["message"]
    assert "largest achievable beta_p" not in err["message"]
    assert "n=4 is too small" in err["message"]


def _refuse_tables(monkeypatch, tmp_path):
    # a refused classical plan reads, builds and caches no level table
    def no_table(*args, **kwargs):
        raise AssertionError("a level table was requested")

    monkeypatch.setattr(cli, "cached_level_table", no_table)
    monkeypatch.setattr(construction, "level_log_table", no_table)
    cache = tmp_path / "cache"
    monkeypatch.setenv("POLARBEC_CACHE_DIR", str(cache))
    return cache


def test_construct_classical_needs_target(capsys, tmp_path, monkeypatch):
    cache = _refuse_tables(monkeypatch, tmp_path)
    classical = ["construct", "--mode", "classical", "--n", "22"]
    for extra, words in (
        ([], ["rate (--rate)", "max_sum_erasure (--budget)"]),
        (["--rate", "0.5", "--budget", "0.1"], ["exactly one target"]),
        (["--rate", "1.5"], ["rate must lie in [0, 1], got 1.5"]),
    ):
        code, out, err = run_cli(capsys, *classical, *extra)
        assert code == 2 and out is None and err["error"] == "ValueError"
        assert all(w in err["message"] for w in words), err["message"]
    assert not cache.exists()


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


@pytest.mark.parametrize(
    "budget, code, error",
    [("nan", 2, "ValueError"), ("0", 3, "InfeasibleTargetError"), ("-inf", 3, "InfeasibleTargetError")],
)
def test_construct_nan_budget_exits_2_and_a_budget_of_0_or_below_exits_3(
    capsys, tmp_path, monkeypatch, budget, code, error
):
    cache = _refuse_tables(monkeypatch, tmp_path)
    for n in ("8", "22"):
        got, out, err = run_cli(capsys, "construct", "--mode", "classical", "--n", n, f"--budget={budget}")
        assert got == code and out is None
        assert err["error"] == error and "budget" in err["message"]
    assert not cache.exists()


@pytest.mark.parametrize("rate", ["0", "0.001"])
def test_construct_empty_classical_code_is_a_report(capsys, tmp_path, rate):
    # round(0.001 * 256) = 0 channels: size 0, rate 0, the whole capacity as
    # gap and an infinite union bound; the header-only code file simulates
    code_file = tmp_path / "code.txt"
    code, out, err = run_cli(
        capsys, "construct", "--mode", "classical", "--n", "8", "--rate", rate,
        "--code-out", str(code_file),
    )
    assert code == 0 and err is None
    assert out["size"] == 0 and out["rate"] == 0.0 and out["gap"] == out["capacity"]
    assert out["union_bound_log"] == math.inf
    code, out, err = run_cli(capsys, "simulate", "--code", str(code_file), "--trials", "64")
    assert code == 0 and err is None and out["block_errors"] == 0


def test_construct_infinite_budget_takes_every_channel(capsys):
    code, out, _ = run_cli(capsys, "construct", "--mode", "classical", "--n", "8", "--budget", "inf")
    assert code == 0 and out["size"] == 256 and out["rate"] == 1.0


def test_construct_levels_and_pockets_exit_2(capsys, tmp_path):
    # An explicit level list sets the pockets, so the other of these options,
    # by flag or by file, is refused rather than ignored.
    values = {"levels": "14,18", "pockets": "3"}
    for first, second in itertools.combinations(values, 2):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({second: values[second]}))
        flags = ["--" + key.replace("_", "-") for key in (first, second)]
        for extra in ([flags[1], values[second]], ["--config", str(config)]):
            argv = ["construct", "--n", "20", flags[0], values[first], *extra]
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out is None and err["error"] == "ValueError"
            assert err["message"] == f"give {flags[0]} or {flags[1]}, not both"


def test_construct_multipocket_over_memory_budget_exits_2(capsys, tmp_path, monkeypatch):
    # 42 bytes a slot of the code, 80 a recruit and one chunk's 48 bytes a
    # channel (3 MiB at n = 16), against a budget of 1 MiB
    argv = ["construct", "--n", "16", "--code-out"]
    code, fits, _ = run_cli(capsys, *argv, str(tmp_path / "fits.txt"))
    assert code == 0
    monkeypatch.setattr(errors, "_memory_budget", lambda: 1 << 20)
    target = tmp_path / "refused.txt"
    code, out, err = run_cli(capsys, *argv, str(target))
    assert code == 2 and out is None and err["error"] == "LevelTooLargeError"
    assert f"the level-16 code of up to {fits['size']:,} channels" in err["message"]
    assert "over the budget of 1 MiB" in err["message"]
    assert os.listdir(tmp_path) == ["fits.txt"]


@pytest.mark.parametrize("mode", [[], ["--mode", "classical", "--rate", "0.5"]])
def test_construct_huge_n_exits_2_at_once(capsys, mode):
    # no 2**n-sized integer is built on the way to the refusal
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "--n", "1000000000000", *mode)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out is None and "is outside" in err["message"]


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


def test_construct_empty_cache_env_means_no_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("POLARBEC_CACHE_DIR", "")
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "construct", "--mode", "classical", "--n", "6", "--rate", "0.5")
    assert code == 0 and err is None
    assert os.listdir(tmp_path) == []


def test_construct_heals_truncated_cache(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("POLARBEC_CACHE_DIR", str(cache))
    argv = ["construct", "--mode", "classical", "--n", "10", "--rate", "0.4"]
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0
    (entry,) = cache.iterdir()
    entry.write_bytes(entry.read_bytes()[:100])
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err is None and out == want
    assert [p.name for p in cache.iterdir()] == [entry.name]
    assert entry.stat().st_size == 20 + 16 * 2**10


def test_construct_classical_over_memory_budget_exits_2(capsys, tmp_path, monkeypatch):
    # The classical plan is checked before its table is built or read: 16
    # bytes a channel for the table, 33 a chosen channel for the code (1.0
    # MiB at n = 16, rate 1/2) and 48 a channel of one chunk's temporaries,
    # against a budget of 0.5 MiB.  The cache read keeps its own check: the
    # level-15 read needs exactly its two 256 KiB columns, so one byte less
    # refuses it.
    cache = tmp_path / "cache"
    monkeypatch.setenv("POLARBEC_CACHE_DIR", str(cache))
    argv = ["construct", "--mode", "classical", "--rate", "0.5", "--n"]
    assert run_cli(capsys, *argv, "15")[0] == 0  # a cache entry to read back
    monkeypatch.setattr(errors, "_memory_budget", lambda: 1 << 19)
    code, out, err = run_cli(capsys, *argv, "16")
    assert code == 2 and out is None and err["error"] == "LevelTooLargeError"
    assert "the classical code at level 16 would need about 5 MiB" in err["message"]
    assert not any(cache.glob("plzt-m16-*"))
    code, out, err = run_cli(capsys, *argv, "15")
    assert code == 2 and out is None and err["error"] == "LevelTooLargeError"
    assert "the classical code at level 15 would need about 3 MiB" in err["message"]
    assert cached_level_table(RootChannel(0.5), 15, str(cache))[0].size == 1 << 15
    monkeypatch.setattr(errors, "_memory_budget", lambda: (1 << 19) - 1)
    with pytest.raises(errors.LevelTooLargeError) as refused:
        cached_level_table(RootChannel(0.5), 15, str(cache))
    assert "reading the level-15 table" in str(refused.value)
    # below 1 MiB both amounts are exact bytes, not "about 0 MiB"
    assert str(refused.value).endswith(
        "would need about 524,288 bytes, over the budget of 524,287 bytes "
        "(half of physical memory)"
    )
    # n = 30 is refused by the same estimate, naming it and the budget
    monkeypatch.setattr(errors, "_memory_budget", lambda: 1 << 30)
    code, _, err = run_cli(capsys, *argv, "30")
    assert code == 2 and err["error"] == "LevelTooLargeError"
    assert err["message"] == (
        "the classical code at level 30 would need about 33,328 MiB, over the budget "
        "of 1,024 MiB (half of physical memory)"
    )


def test_frontier_report_and_csv(capsys, tmp_path):
    target = tmp_path / "frontier.csv"
    code, out, _ = run_cli(
        capsys, "frontier", "--samples", "5", "--csv", str(target)
    )
    assert code == 0
    assert len(out["points"]) == 5
    assert out["top_inv_mu"] == pytest.approx(0.2757099528, abs=1e-6)
    assert out["intercept_estimate"] == pytest.approx(0.4999991673976183, abs=1e-6)
    rows = list(csv.reader(target.read_text().splitlines()))
    assert rows[0] == ["inv_mu_p", "beta_p", "worst_pi", "margin"]
    assert len(rows) == 6
    for row in rows[1:]:
        assert float(row[3]) > -1e-12  # every traced point is achievable
        if float(row[1]) > 0.0:
            assert float(row[3]) < 1e-3  # nonzero rows hug the boundary


def test_corollaries_pass(capsys):
    code, out, _ = run_cli(capsys, "corollaries")
    assert code == 0
    assert out["passed"] is True
    assert out["segment_check"]["ok"] is True
    assert out["containment_check"]["ok"] is True
    assert len(out["containment_check"]["per_gamma"]) == 5
    code, out, _ = run_cli(capsys, "corollaries", "--gammas", "0.4,0.8")
    assert code == 0 and len(out["containment_check"]["per_gamma"]) == 2


def test_corollaries_config_takes_a_json_list_of_gammas(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"gammas": [0.4, 0.8]}))
    code, out, err = run_cli(capsys, "corollaries", "--config", str(cfg))
    assert code == 0, err
    assert out["config"]["gammas"] == [0.4, 0.8]
    assert [g["gamma"] for g in out["containment_check"]["per_gamma"]] == [0.4, 0.8]
    code, out, _ = run_cli(capsys, "corollaries")
    assert out["config"]["gammas"] == [0.3, 0.5, 0.7, 0.9, 0.99]


def test_corollaries_grid_option_is_gone(capsys, tmp_path):
    # the segment check takes the exact maximum, so there is no grid to size
    with pytest.raises(SystemExit) as exc:
        entrypoint(["corollaries", "--grid", "2000"])
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid": 2000}))
    code, out, err = run_cli(capsys, "corollaries", "--config", str(cfg))
    assert code == 2 and out is None and "grid" in err["message"]


@pytest.mark.parametrize("beta_star", ["-0.1", "1.5", "nan"])
def test_corollaries_beta_star_outside_unit_interval_exits_2(capsys, beta_star):
    code, out, err = run_cli(capsys, "corollaries", "--beta-star", beta_star)
    assert code == 2 and out is None
    assert err["error"] == "ValueError" and "beta_star" in err["message"]


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    rc = entrypoint(["corollaries", "--output", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["passed"] is True


@pytest.mark.parametrize(
    "argv, first, second",
    [
        (["construct", "--mode", "classical", "--n", "4", "--code-out", "{}", "--rate"],
         "0.5", "0.25"),
        (["frontier", "--output", "{}", "--samples"], "5", "6"),
        (["frontier", "--csv", "{}", "--samples"], "5", "6"),
    ],
)
def test_failed_write_keeps_target_and_leaves_no_temp_file(
    capsys, tmp_path, monkeypatch, argv, first, second
):
    target = tmp_path / "target"
    argv = [str(target) if a == "{}" else a for a in argv]
    assert entrypoint([*argv, first]) == 0
    capsys.readouterr()
    old = target.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    code, out, err = run_cli(capsys, *argv, second)
    assert code == 2 and out is None and err["message"] == "disk full"
    assert os.listdir(tmp_path) == ["target"]
    assert target.read_bytes() == old


def test_write_through_symlink_keeps_the_link(capsys, tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old")
    (tmp_path / "link.json").symlink_to(real)
    rc = entrypoint(["corollaries", "--output", str(tmp_path / "link.json")])
    assert rc == 0
    assert (tmp_path / "link.json").is_symlink()
    assert json.loads(real.read_text())["passed"] is True
    assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]


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
    for flag in ("--beta-p", "--mu-p", "--pockets", "--levels", "--code-out"):
        assert flag in text


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        entrypoint(["transmogrify"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_module_invocation_round_trip(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "polarbec.cli", "corollaries", "--beta-star", "0.44"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["passed"] is True and report["config"]["beta_star"] == 0.44


# (fixed arguments of a small run, float options swept); a list option gets
# the swept value as its second entry.
_MULTIPOCKET = ["construct", "--n", "8", "--beta-p", "0.01", "--p-ub", "0.5"]
_NON_FINITE_RUNS = [
    (["criterion"], ["alpha"]),
    (["mu-estimate", "--steps", "11", "--grid", "4096"], ["a", "b", "z0", "fit_fraction"]),
    (_MULTIPOCKET + ["--levels", "2,4"], ["z0", "beta_p", "mu_p", "mu_star", "p_ub"]),
    (["construct", "--mode", "classical", "--n", "8"], ["rate", "budget"]),
    (["frontier", "--samples", "5"], ["mu_star"]),
    (["simulate", "--trials", "64"], ["z0"]),
    (["corollaries"], ["mu_star", "beta_star", "gammas"]),
]


def test_non_finite_sweep_covers_every_float_option():
    floats = {
        (sub, key)
        for sub, (_, _, options) in SUBCOMMANDS.items()
        for key, _, kind, *_ in options
        if kind in (_real, _float_list)
    }
    assert {(argv[0], key) for argv, keys in _NON_FINITE_RUNS for key in keys} == floats


def _no_nan(constant):
    if constant == "NaN":
        raise ValueError("NaN is not valid JSON")
    return float(constant)  # Infinity: union_bound_log is infinite at z0 = 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv, key",
    [(argv, key) for argv, keys in _NON_FINITE_RUNS for key in keys],
    ids=lambda p: p[0] if isinstance(p, list) else p,
)
def test_non_finite_float_options_are_refused_or_give_valid_json(capsys, tmp_path, argv, key, value):
    if argv[0] == "simulate":
        code_file = tmp_path / "code.txt"
        made = ["construct", "--mode", "classical", "--n", "4", "--rate", "0.5"]
        assert entrypoint(made + ["--code-out", str(code_file)]) == 0
        capsys.readouterr()
        argv = argv + ["--code", str(code_file)]
    flag = f"--{key.replace('_', '-')}"
    text = ("0.25," if key == "gammas" else "") + value
    code = entrypoint(argv + [f"{flag}={text}"])
    captured = capsys.readouterr()
    # a separate value, -inf among them, reads as the joined one
    assert (entrypoint(argv + [flag, text]), capsys.readouterr()) == (code, captured)
    if code == 0:
        assert captured.err == ""
        report = json.loads(captured.out, parse_constant=_no_nan)
        assert report["config"][key] is not None
    else:
        assert code in (2, 3) and captured.out == ""
        assert json.loads(captured.err)["exit_code"] == code


def _readme_examples() -> list[str]:
    # the polarbec lines of the sh block after "## Command line"
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("polarbec ")]


def test_readme_names_only_flags_the_cli_has():
    # test_readme_examples_run runs only the sh block; this reads the prose too
    known = {"--config", "--output", "--no-build-isolation"} | {
        "--" + key.replace("_", "-") for _, _, options in SUBCOMMANDS.values() for key, *_ in options
    }
    named = set(re.findall(r"--[a-z][a-z0-9-]*", README.read_text(encoding="utf-8")))
    assert named <= known, sorted(named - known)


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    # in order, in one directory: simulate reads the code.txt that the
    # classical construct before it writes
    monkeypatch.setenv("POLARBEC_CACHE_DIR", "")
    monkeypatch.chdir(tmp_path)
    lines = _readme_examples()
    assert len(lines) == 7
    for line in lines:
        code, out, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0 and err is None, (line, err)
        assert out["config"]["subcommand"] == shlex.split(line)[1]
