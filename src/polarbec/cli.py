"""Command-line front-end for the construction and analysis pipeline.

Every subcommand resolves its configuration as flags > --config JSON file >
built-in defaults, echoes the resolved config in the report, and writes the
report as JSON to stdout or --output.  Side files (CSV curves, code files)
go wherever their flags point.  Exit codes: 0 success, 2 bad usage or
parameters, 3 feasible-looking parameters with no feasible result, 4 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

import numpy as np

from . import criterion, frontier
from .codec import simulate, wilson_interval
from .construction import (
    _check_classical,
    construct_multipocket,
    load_codespec,
    save_codespec,
    select_classical,
    union_bound,
)
from .erasure import RootChannel, _atomic_write, cached_level_table
from .errors import (
    DegenerateFitError,
    EmptyCodeError,
    InfeasibleTargetError,
    LevelTooLargeError,
)

CACHE_ENV = "POLARBEC_CACHE_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    # Flag text must be an integer literal; a JSON number must be integral.
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _list_of(item):
    def convert(value) -> list:
        parts = value.replace(",", " ").split() if isinstance(value, str) else value
        if not isinstance(parts, list) or not parts:
            raise ValueError("expected a comma-separated list of numbers")
        return [item(p) for p in parts]

    return convert


_float_list = _list_of(_real)
_int_list = _list_of(_integer)


def resolve_config(sub: str, args: argparse.Namespace) -> dict:
    """Merge the table's defaults, the optional config file, and explicit flags.

    Flag text and config-file values pass through the same per-option type;
    null is accepted only where the default is None.  An option tagged with
    modes may be given only when the mode option names one of them, and at
    most one of the subcommand's EXCLUSIVE options may be given.
    """
    _, _, options = SUBCOMMANDS[sub]
    merged = {key: default for key, default, *_ in options}
    given = {}
    if args.config is not None:
        with open(args.config) as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ValueError("--config must hold a JSON object")
        unknown = sorted(set(given) - set(merged))
        if unknown:
            raise ValueError(f"unknown config keys for {sub}: {', '.join(unknown)}")
    given.update({key: v for key in merged if (v := getattr(args, key)) is not None})
    for key, default, kind, *_ in options:
        if key not in given or (given[key] is None and default is None):
            continue
        try:
            merged[key] = kind(given[key])
        except (ValueError, OverflowError) as exc:  # float() of a huge JSON int
            raise ValueError(f"{sub} option {key}: {exc}") from None
    # only an option given explicitly, never a default, can be one too many
    for key, _, _, _, *modes in options:
        if modes and given.get(key) is not None and merged["mode"] not in modes[0]:
            raise ValueError(
                f"{sub} option {key} is read only in {' or '.join(modes[0])} mode,"
                f" not in {merged['mode']} mode"
            )
    clash = [key.replace("_", "-") for key in EXCLUSIVE.get(sub, ()) if given.get(key) is not None]
    if len(clash) > 1:
        raise ValueError(f"give --{clash[0]} or --{clash[1]}, not both")
    return merged


def _write_json(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with _atomic_write(output) as fh:
            fh.write(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with _atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_criterion(config: dict) -> dict:
    h = criterion.CandidateH.power(config["alpha"])
    result = criterion.sup_ratio(h, grid_size=config["grid"])
    polarizes = result.ratio < 1.0
    above_2 = polarizes and result.ratio > 2.0 ** -0.5
    mu_star = criterion.mu_star_from_ratio(result.ratio) if above_2 else None
    if config["ratio_csv"] is not None:
        xs, ratios = criterion.ratio_curve(h, config["grid"])
        _write_csv(
            config["ratio_csv"],
            ["xi", "ratio"],
            zip(xs.tolist(), ratios.tolist()),
        )
    return {
        "sup_ratio": result.ratio,
        "argmax": result.argmax,
        "left_limit": result.end_limit,
        "right_limit": result.end_limit,
        "polarizes": polarizes,
        "mu_star": mu_star,
        "mu_star_above_2": above_2,
    }


def cmd_mu_estimate(config: dict) -> dict:
    # refuse a bad z0 or fit fraction before paying for the iteration
    criterion._fit_start(config["steps"] + 1, config["z0"], config["fit_fraction"])
    iterates = criterion.iterate_g(
        config["a"], config["b"], config["steps"], grid_size=config["grid"]
    )
    mu = criterion.estimate_mu(iterates, config["z0"], config["fit_fraction"])
    values = [float(g(config["z0"])) for g in iterates]
    if config["iterates_csv"] is not None:
        _write_csv(
            config["iterates_csv"],
            ["step", "g_z0"],
            list(enumerate(values)),
        )
    return {
        "mu": mu,
        "steps": config["steps"],
        "g_final_z0": values[-1],
    }


def cmd_construct(config: dict) -> dict:
    root = RootChannel(config["z0"])
    n = config["n"]
    if config["mode"] == "classical":
        _check_classical(n, config["rate"], config["budget"])
        spec = select_classical(
            root,
            n,
            rate=config["rate"],
            max_sum_erasure=config["budget"],
            table=cached_level_table(root, n, os.environ.get(CACHE_ENV) or None),
        )
        report = {"union_bound_log": union_bound(spec), "pockets": []}
    elif config["mode"] == "multipocket":
        spec, cons = construct_multipocket(
            root,
            n,
            config["beta_p"],
            config["mu_p"],
            config["mu_star"],
            pockets=config["pockets"],
            p_ub=config["p_ub"],
            levels=config["levels"],
        )
        report = {
            "union_bound_log": cons.union_bound_log,
            "n0": cons.n0,
            "quota": cons.quota,
            "pockets": [
                {
                    "level": s.level,
                    "recruited": s.recruited_weight,
                    "retained": s.retained_weight,
                    "lost_fraction": s.lost_fraction,
                }
                for s in cons.pocket_stats
            ],
        }
    else:
        raise ValueError(f"unknown mode {config['mode']!r}")
    report.update(
        size=len(spec), rate=spec.rate, capacity=root.capacity, gap=root.capacity - spec.rate
    )
    if config["code_out"] is not None:
        save_codespec(spec, config["code_out"])
        report["code_file"] = config["code_out"]
    return report


def cmd_frontier(config: dict) -> dict:
    mu_star = config["mu_star"]
    points = frontier.trace_frontier(mu_star, samples=config["samples"])
    rows = [(p.beta_p, p.inv_mu_p) for p in points]
    if config["csv"] is not None:
        betas, invs = np.array(rows).T
        mu_p = np.full(invs.size, frontier.INFINITE_MU)
        np.divide(1.0, invs, out=mu_p, where=invs > 0.0)
        res = frontier.is_achievable(betas, mu_p, mu_star)
        _write_csv(
            config["csv"],
            ["inv_mu_p", "beta_p", "worst_pi", "margin"],
            zip(invs.tolist(), betas.tolist(), res.worst_pi.tolist(), res.worst_margin.tolist()),
        )
    return {
        "points": [list(r) for r in rows],
        "top_inv_mu": rows[0][1],
        "intercept_estimate": rows[-1][0],
    }


def cmd_simulate(config: dict) -> dict:
    if config["code"] is None:
        raise ValueError("simulate needs --code pointing at a code file")
    spec = load_codespec(config["code"])
    z0 = spec.z0 if config["z0"] is None else config["z0"]
    root = RootChannel(z0)
    result = simulate(
        spec,
        root,
        config["trials"],
        config["seed"],
        batch=config["batch"],
    )
    if config["csv"] is not None:
        _write_csv(
            config["csv"],
            ["trial_block", "errors", "trials", "estimate", "ci_lo", "ci_hi"],
            (
                (block, errors, trials, errors / trials, *wilson_interval(errors, trials))
                for block, (errors, trials) in enumerate(result.batches.tolist())
            ),
        )
    lo, hi = result.wilson_ci95
    return {
        "trials": result.trials,
        "block_errors": result.block_errors,
        "estimate": result.estimate,
        "wilson_ci95": [lo, hi],
        "z0": z0,
        "code_n": spec.n,
        "code_size": len(spec),
    }


def cmd_corollaries(config: dict) -> dict:
    report = frontier.verify_corollaries(
        mu_star=config["mu_star"],
        beta_star=config["beta_star"],
        gammas=tuple(config["gammas"]),
    )
    return report.as_dict()


# Per subcommand, options of which at most one may be given: an explicit
# level list sets the pockets and their count.
EXCLUSIVE = {"construct": ("levels", "pockets")}

# Per subcommand: handler, help line, and (key, default, type, help) rows,
# with the modes that read the option appended where only some modes do.
# Each key is also the flag --key (with _ written as -) and the config key.
MULTIPOCKET, CLASSICAL = ("multipocket",), ("classical",)

SUBCOMMANDS = {
    "criterion": (cmd_criterion, "sup-ratio check for a candidate h and the implied mu*", (
        ("alpha", 0.64, _real, "power-family exponent"),
        ("grid", 4096, _integer, "ratio grid size"),
        ("ratio_csv", None, _text, "write the sampled ratio curve here"),
    )),
    "mu-estimate": (cmd_mu_estimate, "estimate mu from the functional iteration", (
        ("a", 0.01, _real, "indicator left edge"),
        ("b", 0.99, _real, "indicator right edge"),
        ("steps", 30, _integer, "iteration count"),
        ("grid", 8192, _integer, "grid size"),
        ("z0", 0.5, _real, "evaluation point"),
        ("fit_fraction", 0.5, _real, "trailing fraction of iterates used in the fit"),
        ("iterates_csv", None, _text, "write step,g_z0 samples here"),
    )),
    "construct": (cmd_construct, "build a code and report rate, gap, and pocket stats", (
        ("mode", "multipocket", _text, "multipocket or classical"),
        ("n", 16, _integer, "level, block length 2**n"),
        ("z0", 0.5, _real, "channel erasure rate"),
        ("beta_p", 0.30, _real, "target error exponent", MULTIPOCKET),
        ("mu_p", 8.0, _real, "target gap exponent", MULTIPOCKET),
        ("mu_star", 3.8, _real, "criterion exponent", MULTIPOCKET),
        ("pockets", 8, _integer, "pocket count D", MULTIPOCKET),
        ("p_ub", 2.0 ** -10, _real, "recruit tail budget", MULTIPOCKET),
        ("levels", None, _int_list, "explicit pocket levels, e.g. 2,4,6,8", MULTIPOCKET),
        ("rate", None, _real, "classical mode: target rate", CLASSICAL),
        ("budget", None, _real, "classical mode: union-bound budget", CLASSICAL),
        ("code_out", None, _text, "write the selected channel file here"),
    )),
    "frontier": (cmd_frontier, "trace the achievable (beta', 1/mu') boundary", (
        ("mu_star", 3.627, _real, "criterion exponent"),
        ("samples", 53, _integer, "boundary points"),
        ("csv", None, _text, "write inv_mu_p,beta_p,worst_pi,margin rows here"),
    )),
    "simulate": (cmd_simulate, "Monte-Carlo block error rate for a stored code", (
        ("code", None, _text, "code file produced by construct"),
        ("z0", None, _real, "override the stored channel erasure rate"),
        ("trials", 10_000, _integer, "trial count"),
        ("seed", 0, _integer, "random seed"),
        ("batch", 4096, _integer, "trials per tally row"),
        ("csv", None, _text, "write per-batch tallies here"),
    )),
    "corollaries": (cmd_corollaries, "numeric checks tying the region to its reference points", (
        ("mu_star", 3.627, _real, "criterion exponent"),
        ("beta_star", 0.4469, _real, "straight-segment error exponent"),
        ("gammas", frontier.DEFAULT_CONTAINMENT_GAMMAS, _float_list, "comma-separated sweep"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarbec",
        description="Polar-code construction and analysis on the binary erasure channel.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, options) in SUBCOMMANDS.items():
        sp = subs.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON file with defaults for this subcommand")
        sp.add_argument("--output", help="write the JSON report here instead of stdout")
        for key, default, _, text, *_ in options:
            suffix = "" if default is None else f" (default {default})"
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=text + suffix)
    return parser


def _fail(exc: Exception, code: int) -> int:
    payload = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


# how a negative number starts, -inf and -nan among them
_NEGATIVE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Each "--key" followed by a negative number as "--key=number":
    argparse reads a separate -inf, -nan or -1e5 as a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1][:2] == "--" and "=" not in out[-1] and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def entrypoint(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    sub = args.subcommand
    try:
        config = resolve_config(sub, args)
        report = {"config": {"subcommand": sub, **config}}
        report.update(SUBCOMMANDS[sub][0](config))
        _write_json(report, args.output)
    except (ValueError, OSError, LevelTooLargeError) as exc:
        return _fail(exc, EXIT_USAGE)
    except (InfeasibleTargetError, EmptyCodeError, DegenerateFitError) as exc:
        return _fail(exc, EXIT_INFEASIBLE)
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit 4
        return _fail(exc, EXIT_INTERNAL)
    return EXIT_OK


def main() -> None:
    sys.exit(entrypoint())


if __name__ == "__main__":
    main()
