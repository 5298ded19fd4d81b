"""Acceptance gate: the nine headline checks, one printed line each.

Each test computes its quantities, records a PASS/FAIL line through the
shared `record` fixture (printed in the terminal summary), and only then
asserts.  Check 4 is split: its two endpoint claims stand or fall
independently.  4a checks the gamma -> 1 end of the interpolation curve as a
limit: beta_p < 1/2 for every gamma < 1 (0.489730 at gamma = 0.999), so the
test pins that value against an independent high-precision reference and
checks that the gap 1/2 - beta_p shrinks to 0 at its leading-order rate.
"""

import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import test_construction
from oracles import exact_block_error_reference, linear_erasures, polarize_prob

from polarbec import codec, construction as co, criterion as cr, erasure as er
from polarbec import frontier as fr


def test_acceptance_1_sup_ratio(record):
    t0 = time.perf_counter()
    res = cr.sup_ratio(cr.CandidateH.power(0.64), grid_size=100_000)
    dt = time.perf_counter() - t0
    ok = 0.825 <= res.ratio <= 0.840 and dt < 1.0
    record(
        f"[acceptance 1] {'PASS' if ok else 'FAIL'}: sup ratio {res.ratio:.6f} "
        f"(need [0.825, 0.840]) in {dt:.2f} s (< 1 s)"
    )
    assert 0.825 <= res.ratio <= 0.840
    assert dt < 1.0


def test_acceptance_2_mu_estimate(record):
    t0 = time.perf_counter()
    iterates = cr.iterate_g(0.01, 0.99, 30, grid_size=1 << 13)
    mu = cr.estimate_mu(iterates, 0.5)
    worst = 0.0
    le, lr = er.level_log_table(er.RootChannel(0.5), 1)
    for n in range(1, 17):
        if n > 1:
            le, lr = er.extend_log_table(le, lr, 1)
        z = linear_erasures(le)
        frac = float(np.mean((z > 0.01) & (z < 0.99)))
        worst = max(worst, abs(float(iterates[n](0.5)) - frac))
    dt = time.perf_counter() - t0
    ok = 3.55 <= mu <= 3.70 and worst <= 2e-3 and dt < 10.0
    record(
        f"[acceptance 2] {'PASS' if ok else 'FAIL'}: mu {mu:.4f} "
        f"(need [3.55, 3.70]), count-oracle dev {worst:.2e} (<= 2e-3), "
        f"{dt:.2f} s (< 10 s)"
    )
    assert 3.55 <= mu <= 3.70
    assert worst <= 2e-3
    assert dt < 10.0


def test_acceptance_3_frontier(record):
    t0 = time.perf_counter()
    points = fr.trace_frontier(3.627)
    worst = 0.0
    for beta_ref, inv_ref in fr.REFERENCE_BOUNDARY_3627:
        got = fr.max_beta(1.0 / inv_ref, 3.627)
        worst = max(worst, abs(got - beta_ref))
    top_inv = points[0].inv_mu_p
    intercept = fr.conjectured_intercept(3.627)
    dt = time.perf_counter() - t0
    ok = (
        worst <= 2e-3
        and abs(top_inv - 0.2757) <= 5e-4
        and abs(intercept - 0.4469) <= 5e-4
        and dt < 5.0
    )
    record(
        f"[acceptance 3] {'PASS' if ok else 'FAIL'}: 53-point dev {worst:.2e} "
        f"(<= 2e-3), top 1/mu {top_inv:.4f} (~0.2757), intercept "
        f"{intercept:.4f} (~0.4469), {dt:.2f} s (< 5 s)"
    )
    assert worst <= 2e-3
    assert abs(top_inv - 0.2757) <= 5e-4
    assert abs(intercept - 0.4469) <= 5e-4
    assert dt < 5.0


def _reference_beta_p(gamma: float, mu_star: float) -> float:
    """gamma * H2inv((gamma (mu_star + 1) - 1) / (gamma mu_star)) at 50 digits.

    Own entropy and own bisection in `decimal`, independent of `criterion`.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        g, m = Decimal(gamma), Decimal(mu_star)
        arg = (g * (m + 1) - 1) / (g * m)
        ln2 = Decimal(2).ln()

        def h2(p: Decimal) -> Decimal:
            q = 1 - p
            return -(p * p.ln() + q * q.ln()) / ln2

        lo, hi = Decimal(0), Decimal("0.5")
        for _ in range(170):  # 2**-170 is below 50 digits
            mid = (lo + hi) / 2
            if h2(mid) < arg:
                lo = mid
            else:
                hi = mid
        return float(g * (lo + hi) / 2)


def test_acceptance_4a_gamma_endpoint_beta(record):
    mu_star = 3.627
    beta = fr.gamma_tradeoff(0.999, mu_star).beta_p
    ref = _reference_beta_p(0.999, mu_star)
    ref_ok = abs(beta - ref) <= 1e-11
    # gamma_k = 1 - 10**-k: 1/2 - beta_p > 0 shrinks like
    # eps/2 + sqrt(eps ln2 / (2 gamma mu*)) + O(eps**1.5), eps = 1 - gamma
    rows = []
    for k in range(3, 9):
        gamma = 1.0 - 10.0**-k
        eps = 1.0 - gamma
        gap = 0.5 - fr.gamma_tradeoff(gamma, mu_star).beta_p
        lead = eps / 2.0 + math.sqrt(eps * math.log(2.0) / (2.0 * gamma * mu_star))
        rows.append((k, eps, gap, lead))
    gaps = [gap for _, _, gap, _ in rows]
    limit_ok = all(g > 0.0 for g in gaps) and all(
        b < a for a, b in zip(gaps, gaps[1:])
    )
    rate_ok = all(abs(gap - lead) <= eps / 4.0 for _, eps, gap, lead in rows)
    ok = ref_ok and limit_ok and rate_ok
    record(
        f"[acceptance 4a] {'PASS' if ok else 'FAIL'}: beta_p at gamma=0.999 is "
        f"{beta:.6f}, reference {ref:.6f} (dev {abs(beta - ref):.1e} <= 1e-11); "
        "gap 1/2 - beta_p vs leading term at gamma=1-10^-k: "
        + ", ".join(f"k={k} {gap:.3e}/{lead:.3e}" for k, _, gap, lead in rows)
        + f"; positive and decreasing: {limit_ok}, within eps/4: {rate_ok}"
    )
    assert ref_ok
    assert limit_ok
    assert rate_ok


def test_acceptance_4b_gamma_endpoint_mu(record):
    gamma = 1.0 / (1.0 + 3.627) + 1e-6
    pt = fr.gamma_tradeoff(gamma, 3.627)
    mu_p = 1.0 / pt.inv_mu_p
    ok = abs(mu_p - (1.0 + 3.627)) < 1e-2
    record(
        f"[acceptance 4b] {'PASS' if ok else 'FAIL'}: mu_p at gamma=1/(1+mu*)+1e-6 "
        f"is {mu_p:.6f}, need within 1e-2 of {1.0 + 3.627}"
    )
    assert abs(mu_p - (1.0 + 3.627)) < 1e-2


def test_acceptance_5_corollaries(record):
    rep = fr.verify_corollaries(3.627)
    ok = rep.passed
    record(
        f"[acceptance 5] {'PASS' if ok else 'FAIL'}: segment min margin "
        f"{rep.segment_min_margin:.2e} at xi={rep.segment_argmin_xi:.4f}, "
        f"containment margins all positive: {rep.containment_ok}"
    )
    assert rep.segment_ok
    assert rep.containment_ok
    assert rep.passed


def test_acceptance_6_martingale(record):
    devs = {}
    for z0 in (0.1, 0.3, 0.5, 0.9):
        le, _ = er.level_log_table(er.RootChannel(z0), 20)
        devs[z0] = abs(float(linear_erasures(le).mean()) - z0)
    worst = max(devs.values())
    ok = worst <= 1e-9
    record(
        f"[acceptance 6] {'PASS' if ok else 'FAIL'}: level-20 mean erasure vs z0, "
        f"worst dev {worst:.2e} (<= 1e-9)"
    )
    assert worst <= 1e-9


def _genie_marginals_level4(z0: Fraction) -> list[Fraction]:
    size = 16
    bits = (np.arange(1 << size)[:, None] >> np.arange(size)[None, :]) & 1
    erased_count = bits.sum(axis=1)
    profile = codec._resolution_profile(bits == 0)
    out = []
    for i in range(size):
        counts = np.bincount(erased_count[~profile[:, i]], minlength=size + 1)
        total = Fraction(0)
        for k, c in enumerate(counts.tolist()):
            if c:
                total += c * z0**k * (1 - z0) ** (size - k)
        out.append(total)
    return out


def test_acceptance_7_oracle_equivalence(record):
    lines = []
    all_ok = True
    for z0 in (0.2, 0.5):
        root = er.RootChannel(z0)
        spec = co.select_classical(root, 4, rate=0.5)
        exact = codec.exact_block_error(spec, root)
        assert exact == exact_block_error_reference(spec, root)
        sim = codec.simulate(spec, root, trials=100_000, seed=7)
        lo3, hi3 = codec.wilson_interval(sim.block_errors, sim.trials, z=3.0)
        in_band = lo3 <= exact <= hi3
        probs = np.exp2(-spec.l_era)
        sandwich = float(probs.max()) - 1e-15 <= exact <= min(1.0, float(probs.sum())) + 1e-15
        zq = Fraction(z0)
        genie = _genie_marginals_level4(zq)
        chain = [zq]
        for _ in range(4):
            chain = [polarize_prob(z, b) for z in chain for b in (0, 1)]
        genie_ok = genie == chain
        all_ok = all_ok and in_band and sandwich and genie_ok
        lines.append(
            f"z0={z0}: exact {exact:.6f}, sim {sim.estimate:.6f} "
            f"(3-sigma band {'hit' if in_band else 'MISS'}), sandwich "
            f"{'ok' if sandwich else 'VIOLATED'}, genie marginals "
            f"{'exact' if genie_ok else 'MISMATCH'}"
        )
        assert in_band
        assert sandwich
        assert genie_ok
    record(
        f"[acceptance 7] {'PASS' if all_ok else 'FAIL'}: " + "; ".join(lines)
    )


def test_acceptance_8_multipocket_guarantee(record):
    root = er.RootChannel(0.5)
    spec, _ = co.construct_multipocket(
        root, 16, 0.30, 8.0, 3.8, pockets=4, p_ub=2.0**-10
    )
    want = test_construction.brute_force_multipocket(
        root, 16, 0.30, 8.0, 3.8, 4, 2.0**-10
    )
    nonempty = len(spec) > 0
    quota_ok = bool(np.all(spec.squaring_count >= 5))
    erasure_ok = bool(np.all(spec.l_era >= 2.0**4.8))
    same = sorted(want) == spec.indices.tolist() and all(
        want[int(j)][:2] == (int(m), int(sq))
        for j, m, sq in zip(spec.indices, spec.source_pocket, spec.squaring_count)
    )
    ok = nonempty and quota_ok and erasure_ok and same
    record(
        f"[acceptance 8] {'PASS' if ok else 'FAIL'}: {len(spec)} channels, "
        f"squaring >= 5: {quota_ok}, erasure <= 2^-2^4.8: {erasure_ok}, "
        f"matches brute force: {same}"
    )
    assert nonempty and quota_ok and erasure_ok
    assert same


def test_acceptance_9_gap_decay(record):
    t0 = time.perf_counter()
    ns = [14, 16, 18, 20, 22]
    gaps = []
    for n in ns:
        _, report = co.construct_multipocket(
            er.RootChannel(0.5), n, 0.25, 8.0, 3.8, pockets=4, p_ub=2.0**-10
        )
        gaps.append(report.gap)
    slope = float(np.polyfit(ns, np.log2(gaps), 1)[0])
    dt = time.perf_counter() - t0
    non_increasing = all(b <= a for a, b in zip(gaps, gaps[1:]))
    slope_ok = abs(slope - (-1.0 / 8.0)) <= 0.20
    ok = non_increasing and slope_ok and dt < 120.0
    record(
        f"[acceptance 9] {'PASS' if ok else 'FAIL'}: gaps "
        f"{[round(g, 5) for g in gaps]} non-increasing: {non_increasing}, "
        f"log2-gap slope {slope:.4f} within 0.20 of -0.125: {slope_ok}, "
        f"{dt:.1f} s (< 120 s)"
    )
    assert non_increasing
    assert slope_ok
    assert dt < 120.0
