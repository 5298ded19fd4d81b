"""Output checks: reference comparison, binomial tally tests, digests."""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# A Monte-Carlo tally fails its check when it is less likely than this under
# every probability the reference allows.  This is the one-sided tail of a
# 5-sigma normal deviation: at about a hundred tallies per benchmark
# evaluation, a 3-sigma test would raise a false failure one evaluation in
# four, while 5 sigma still flags any decoder or sampler change that moves
# the rate by a few standard errors.
FALSE_ALARM = 2.9e-7


def load_reference(path: str | None = None) -> dict:
    with open(path or REFERENCE_PATH) as fh:
        return json.load(fh)


def digest(*arrays: np.ndarray) -> str:
    """SHA-1 over the raw bytes of the arrays, for bit-for-bit comparison."""
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _flatten(value, prefix: str = ""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{prefix}{key}.")
    else:
        yield prefix[:-1], value


def compare_facts(facts: dict, reference: dict | None, tol: dict) -> list[str]:
    """Compare a job's facts with the stored ones.

    tol maps a leaf key (the last dotted component) to a tolerance: a float
    is a relative-and-absolute tolerance, None skips the key (seed-dependent
    observations), and absent means exact equality.  Lists compare
    element-wise under the same rule.
    """
    if reference is None:
        return ["no reference values stored for this job"]
    ref = dict(_flatten(reference))
    failures = []
    for key, got in _flatten(facts):
        leaf = key.rsplit(".", 1)[-1]
        if leaf in tol and tol[leaf] is None:
            continue
        if key not in ref:
            failures.append(f"{key}: no reference value")
            continue
        want = ref[key]
        if not _close(got, want, tol.get(leaf, 0.0)):
            failures.append(f"{key}: got {got!r}, reference {want!r}")
    return failures


def _close(got, want, tol: float) -> bool:
    if isinstance(got, (list, tuple)):
        return (
            isinstance(want, list)
            and len(got) == len(want)
            and all(_close(g, w, tol) for g, w in zip(got, want))
        )
    if isinstance(got, float) and isinstance(want, (int, float)) and tol:
        return math.isclose(got, want, rel_tol=tol, abs_tol=tol)
    return got == want


def _log_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def _tail_away_from_mode(k: int, n: int, p: float, upper: bool) -> float:
    """P(X >= k) if upper else P(X <= k), for k on the far side of the mode."""
    term = math.exp(_log_pmf(k, n, p))
    total = 0.0
    odds = p / (1.0 - p)
    while 0 <= k <= n and term > 0.0:
        total += term
        if term < total * 1e-17:
            break
        if upper:
            term *= (n - k) / (k + 1) * odds
            k += 1
        else:
            term *= k / (n - k + 1) / odds
            k -= 1
    return min(total, 1.0)


def binomial_tail(k: int, n: int, p: float, upper: bool) -> float:
    """P(X >= k) (upper) or P(X <= k) for X ~ Binomial(n, p)."""
    if upper and k <= 0 or not upper and k >= n:
        return 1.0
    if p <= 0.0:
        return 0.0 if upper else 1.0
    if p >= 1.0:
        return 1.0 if upper else 0.0
    mode = math.floor((n + 1) * p)
    if upper:
        if k > mode:
            return _tail_away_from_mode(k, n, p, True)
        return 1.0 - _tail_away_from_mode(k - 1, n, p, False)
    if k < mode:
        return _tail_away_from_mode(k, n, p, False)
    return 1.0 - _tail_away_from_mode(k + 1, n, p, True)


def tally_consistent(errors: int, trials: int, p_lo: float, p_hi: float) -> bool:
    """Whether errors/trials is plausible for some probability in [p_lo, p_hi]."""
    too_many = binomial_tail(errors, trials, p_hi, upper=True) < FALSE_ALARM
    too_few = binomial_tail(errors, trials, p_lo, upper=False) < FALSE_ALARM
    return not (too_many or too_few)


def wilson_band(errors: int, trials: int, z: float) -> tuple[float, float]:
    """Score interval for a binomial proportion, computed independently of the library."""
    p = errors / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)
