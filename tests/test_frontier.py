"""Achievable-region membership, frontier tracing, and the corollary checks."""

import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import region_scan

from polarbec import errors
from polarbec import frontier as fr
from polarbec.criterion import binary_entropy, binary_entropy_inv, golden_section_max

MU = 3.627


def test_achievable_at_zero_beta_huge_mu():
    res = fr.is_achievable(0.0, 1e6, MU)
    assert res.achievable
    assert res.worst_margin > 0.999


def test_reference_boundary_point_sits_on_edge():
    beta, inv = fr.REFERENCE_BOUNDARY_3627[0]
    res = fr.is_achievable(beta, 1.0 / inv, MU)
    assert abs(res.worst_margin) <= 1e-12  # full-precision row: one ulp from 0
    assert res.worst_pi == 0.0
    assert not res.achievable  # below the strictness slack
    # same point rounded to four digits tips visibly past the edge
    rounded = fr.is_achievable(0.3976, 1.0 / 0.030494, MU)
    assert rounded.worst_margin == pytest.approx(-2.336048991491424e-05, rel=1e-6)
    assert not rounded.achievable


def test_not_achievable_above_frontier():
    res = fr.is_achievable(0.45, 4.0, MU)
    assert not res.achievable
    assert res.worst_margin < -0.1


def test_region_query_validation():
    with pytest.raises(ValueError):
        fr.is_achievable(0.3, 3.0, MU)  # mu_p <= mu_star
    with pytest.raises(ValueError):
        fr.is_achievable(0.3, 8.0, 1.5)
    with pytest.raises(ValueError):
        fr.is_achievable(-0.1, 8.0, MU)


def test_max_beta_anchors():
    assert fr.max_beta(fr.INFINITE_MU, MU) == pytest.approx(
        0.4999991673976183, abs=1e-9
    )
    assert fr.max_beta(20.0, MU) == pytest.approx(0.36589984595775604, abs=1e-9)
    assert fr.max_beta(10.0, MU) == pytest.approx(0.28484452702105045, abs=1e-9)
    assert fr.max_beta(4.0, MU) == pytest.approx(0.041678568348288536, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    mu_star=st.floats(min_value=2.05, max_value=8.0),
    ratio=st.floats(min_value=1.0 + 1e-3, max_value=1e3),
)
def test_max_beta_sits_on_the_oracle_boundary(mu_star, ratio):
    mu_p = mu_star * ratio
    b = fr.max_beta(mu_p, mu_star)
    for check in (fr.is_achievable, region_scan):
        assert check(b * (1.0 - 1e-7), mu_p, mu_star).achievable
        assert not check(b * (1.0 + 1e-7) + 1e-12, mu_p, mu_star).achievable


@settings(max_examples=200, deadline=None)
@given(
    mu_star=st.floats(min_value=2.05, max_value=8.0),
    beta_p=st.one_of(st.floats(min_value=0.0, max_value=0.6), st.floats(min_value=1.0, max_value=4.0)),
    ratio=st.one_of(
        st.floats(min_value=1.0 + 1e-6, max_value=1e4),
        st.floats(min_value=1.0 + 1e-6, max_value=1.1),  # s1 > 1 for most beta_p
    ),
)
def test_is_achievable_matches_the_region_scan(mu_star, beta_p, ratio):
    # The closed form evaluates the left side at its maximum, so its margin
    # is at most the scan's.  It may read a little above it only by the
    # scan's own rounding: the scan's d = mu_p - mu_star pi and 1 - pi cancel
    # near pi = 1, amplifying it by up to mu_p / (mu_p - mu_star).  Where
    # mu_p / mu_star is 1 + 1e-6 the scan sits about 1e-11 from the 50-digit
    # maximum (the closed form's own digits: the 50-digit test below).
    mu_p = mu_star * ratio
    got = fr.is_achievable(beta_p, mu_p, mu_star)
    scan = region_scan(beta_p, mu_p, mu_star)
    if abs(scan.worst_margin - fr.ACHIEVABILITY_SLACK) > 1e-9:
        assert got.achievable == scan.achievable
    noise = 1e-15 * mu_p / (mu_p - mu_star)
    assert scan.worst_margin - 1e-9 <= got.worst_margin <= scan.worst_margin + noise
    assert 0.0 <= got.worst_pi <= 1.0


def _region_lhs_50_digits(beta_p: float, mu_p: float, mu_star: float, pi: float) -> Decimal:
    """The region's left side at these exact floats, in 50-digit `decimal`
    with its own entropy, independent of `criterion` and `frontier`."""
    with localcontext() as ctx:
        ctx.prec = 50
        b, mp, ms, p = map(Decimal, (beta_p, mu_p, mu_star, pi))
        d = mp - ms * p
        s = b * mp / d
        if s > 1:
            h = s
        elif s in (0, 1):
            h = Decimal(0)
        else:
            h = -(s * s.ln() + (1 - s) * (1 - s).ln()) / Decimal(2).ln()
        return (1 - p) / d + h


def test_is_achievable_keeps_its_digits_near_mu_star():
    # mu_p within a relative 1e-8 .. 1e-4 of mu_star, where d = mu_p -
    # mu_star pi and 1 - pi both cancel near pi = 1.  With 1 - pi over d,
    # 3,000 such questions read margins up to 1.4e-9 off the 50-digit left
    # side at is_achievable's own worst pi, 1,400 times the slack; with
    # 1 - pi read off d, within 2.6e-16 of max(1, |left side|).
    rng = np.random.default_rng(2024)
    mu_star = rng.uniform(2.5, 6.0, 300)
    mu_p = mu_star * (1.0 + 10.0 ** rng.uniform(-8.0, -4.0, 300))
    beta_p = 10.0 ** rng.uniform(-9.0, -5.0, 300)
    for b, mp, ms in zip(beta_p.tolist(), mu_p.tolist(), mu_star.tolist()):
        got = fr.is_achievable(b, mp, ms)
        lhs = _region_lhs_50_digits(b, mp, ms, got.worst_pi)
        err = abs(Decimal(got.worst_margin) - (1 - lhs))
        assert err <= Decimal("1e-15") * max(1, abs(lhs)), (b, mp, ms, got)


def test_max_beta_keeps_its_digits_near_mu_star():
    # mu_p within a relative 1e-12 .. 1e-4 of mu_star, where 1/mu_star -
    # 1/mu_p cancels.  Read as (mu_p - mu_star)/(mu_star mu_p), the straight
    # segment stays within 1e-15 of its 50-digit value, and so does the
    # pi = 1 end's (mu_p - mu_star)/mu_p at mu_star = 1e6; the differences
    # of reciprocals read up to 1.4e-4 off.
    with localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()
        for ms in (2.5, 3.0, MU, 5.0, 8.0):
            c = 1 / Decimal(ms) + Decimal(fr.ACHIEVABILITY_SLACK)
            theta = -(((1 - c) * ln2).exp() - 1).ln() / ln2
            mu_p = ms * (1.0 + np.logspace(-12.0, -4.0, 50))
            for mp, got in zip(mu_p.tolist(), fr.max_beta(mu_p, ms).tolist()):
                want = (1 / Decimal(ms) - 1 / Decimal(mp)) / theta
                assert abs(Decimal(got) - want) <= Decimal("1e-15") * want, (ms, mp, got)
        ms = 1e6
        h = Decimal(binary_entropy_inv(1.0 - fr.ACHIEVABILITY_SLACK))
        mu_p = ms * (1.0 + np.logspace(-12.0, -4.0, 50))
        for mp, got in zip(mu_p.tolist(), fr.max_beta(mu_p, ms).tolist()):
            want = h * (Decimal(mp) - Decimal(ms)) / Decimal(mp)
            assert abs(Decimal(got) - want) <= Decimal("1e-15") * want, (ms, mp, got)
    # The frontier's top point (mu_p = mu_star (1 + 1e-9)) lies on the edge
    # of the region it bounds: at mu_star = 5 its margin read -1.83e-10.
    top = fr.trace_frontier(5.0)[0]
    res = fr.is_achievable(top.beta_p, 1.0 / top.inv_mu_p, 5.0)
    assert abs(res.worst_margin - fr.ACHIEVABILITY_SLACK) < 1e-14, res


@pytest.mark.parametrize(
    "beta_p, mu_p",
    [
        (0.0, 8.0),
        (5e-324, 8.0),
        (1e-300, 8.0),
        (0.3, fr.INFINITE_MU),
        (0.5, 2.0 * MU),  # s1 = 0.5 * 2 mu_star / mu_star is exactly 1
        (np.nextafter(0.5, 1.0), 2.0 * MU),  # s1 just above 1
        (1.5, 8.0),
    ],
)
def test_is_achievable_gives_no_warning_at_the_edges(beta_p, mu_p):
    # 2**K overflows for tiny beta_p, and K divides by 0 at beta_p = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fr.is_achievable(beta_p, mu_p, MU)
    scan = region_scan(beta_p, mu_p, MU)
    assert got.achievable == scan.achievable
    assert scan.worst_margin - 1e-9 <= got.worst_margin <= scan.worst_margin + 1e-15
    if beta_p < 1e-299:  # the left side falls in pi
        assert got.worst_pi == 0.0 and got.worst_margin == 1.0 - 1.0 / mu_p


def test_max_beta_pi_one_end_binds_for_huge_mu_star():
    # s* = 1 - 2**-(1 - c) lies above H2inv(1 - eps) once mu_star passes ~5e5
    mu_star, mu_p = 1e6, 2e6
    s_star = 1.0 - 2.0 ** -(1.0 - 1.0 / mu_star - fr.ACHIEVABILITY_SLACK)
    assert s_star > binary_entropy_inv(1.0 - fr.ACHIEVABILITY_SLACK)
    b = fr.max_beta(mu_p, mu_star)
    assert fr.is_achievable(b * (1.0 - 1e-7), mu_p, mu_star).achievable
    res = fr.is_achievable(b * (1.0 + 1e-7), mu_p, mu_star)
    assert not res.achievable and res.worst_pi == 1.0


@pytest.mark.parametrize("mu_star", [2.1, 2.5, 3.0, 3.627, 5.0, 8.0, 20.0])
def test_segment_extrapolates_to_conjectured_intercept(mu_star):
    # eps = 0: the quotient (1/mu_star) s / (H2(s) - 1 + 1/mu_star) at its
    # tangent point s* = 1 - 2**-(1 - 1/mu_star) is the segment at 1/mu_p = 0
    s = 1.0 - 2.0 ** -(1.0 - 1.0 / mu_star)
    at_zero = (1.0 / mu_star) * s / (binary_entropy(s) - 1.0 + 1.0 / mu_star)
    assert at_zero == pytest.approx(fr.conjectured_intercept(mu_star), abs=1e-12)
    # max_beta near the top of the frontier lies on that straight line; the
    # slack eps = 1e-12 moves its intercept by a few 1e-12
    invs = (0.9 / mu_star, 0.95 / mu_star)
    b1, b2 = (fr.max_beta(1.0 / inv, mu_star) for inv in invs)
    extrapolated = b1 - invs[0] * (b2 - b1) / (invs[1] - invs[0])
    assert extrapolated == pytest.approx(fr.conjectured_intercept(mu_star), abs=1e-10)


@pytest.mark.parametrize("mu_star", [MU, 1e6])
def test_max_beta_array_equals_per_element_calls(mu_star):
    # the top end takes the segment (or the pi = 1 end), the bottom pi = 0
    mu_p = mu_star * np.array([1.0 + 1e-9, 1.01, 1.5, 4.0, 1e3])
    mu_p = np.append(mu_p, fr.INFINITE_MU)
    got = fr.max_beta(mu_p, mu_star)
    assert got.shape == mu_p.shape
    assert got.tolist() == [fr.max_beta(float(m), mu_star) for m in mu_p]
    assert isinstance(fr.max_beta(np.float64(mu_p[2]), mu_star), float)


def test_max_beta_refuses_an_array_holding_one_low_mu_p():
    with pytest.raises(ValueError, match="mu_p must exceed mu_star, got 3.0 <= 3.627"):
        fr.max_beta(np.array([8.0, 3.0, 20.0]), MU)
    with pytest.raises(ValueError, match="got 3.627 <= 3.627"):
        fr.max_beta(np.array([8.0, MU]), MU)


def test_trace_frontier_checks_mu_star_before_dividing_by_it():
    with pytest.raises(ValueError, match="mu_star must exceed 2"):
        fr.trace_frontier(0.0)


def test_max_beta_monotone_in_mu():
    assert fr.max_beta(4.0, MU) < fr.max_beta(10.0, MU) < fr.max_beta(20.0, MU)


def test_trace_frontier_shape_and_endpoints():
    pts = fr.trace_frontier(MU)
    assert len(pts) == 53
    assert pts[0].inv_mu_p == pytest.approx(1.0 / (MU * (1.0 + 1e-9)), rel=1e-12)
    assert pts[0].inv_mu_p == pytest.approx(0.2757, abs=1e-4)
    assert pts[-1].inv_mu_p == 0.0
    assert pts[-1].beta_p == pytest.approx(0.4999991673976183, abs=1e-9)
    betas = [p.beta_p for p in pts]
    invs = [p.inv_mu_p for p in pts]
    assert all(b < a for a, b in zip(invs, invs[1:]))  # inv strictly falls
    assert all(b > a for a, b in zip(betas, betas[1:]))  # beta strictly rises


def test_trace_frontier_validation():
    with pytest.raises(ValueError):
        fr.trace_frontier(MU, samples=1)
    with pytest.raises(ValueError):
        fr.trace_frontier(1.9)


@pytest.mark.parametrize("row", [0, 10, 30, 52])
def test_reference_boundary_reproduced(row):
    beta_ref, inv_ref = fr.REFERENCE_BOUNDARY_3627[row]
    assert fr.max_beta(1.0 / inv_ref, MU) == pytest.approx(beta_ref, abs=2e-3)


def test_reference_boundary_frozen_spot_values():
    assert fr.max_beta(1.0 / 0.0241938247074105, MU) == pytest.approx(
        0.4086875505745411, abs=1e-9
    )
    assert fr.max_beta(1.0 / 0.0106280589201336, MU) == pytest.approx(
        0.439383577555418, abs=1e-9
    )


def test_gamma_tradeoff_midpoint():
    pt = fr.gamma_tradeoff(0.5, MU)
    assert pt.beta_p == pytest.approx(0.10059206605615145, abs=1e-12)
    assert pt.inv_mu_p == pytest.approx(0.13785497656465398, abs=1e-15)
    arg = (0.5 * (MU + 1.0) - 1.0) / (0.5 * MU)
    assert arg == pytest.approx(0.724290046870692, abs=1e-12)
    assert pt.beta_p == pytest.approx(0.5 * binary_entropy_inv(arg), abs=1e-15)


def test_gamma_tradeoff_identity_and_extremes():
    for g in (0.3, 0.6, 0.9, 0.999):
        pt = fr.gamma_tradeoff(g, MU)
        assert pt.inv_mu_p == pytest.approx((1.0 - g) / MU, rel=1e-12)
    # near gamma -> 1 the error exponent approaches 1/2 but from below
    assert fr.gamma_tradeoff(0.999, MU).beta_p == pytest.approx(
        0.48973003851715885, abs=1e-12
    )
    # near the lower domain edge the curve meets the y-axis at 1/(1+mu)
    g0 = 1.0 / (1.0 + MU) + 1e-9
    pt = fr.gamma_tradeoff(g0, MU)
    assert pt.inv_mu_p * (1.0 + MU) == pytest.approx(1.0, abs=1e-6)
    assert pt.beta_p < 1e-3
    # the frontier's own y-intercept 1/mu sits strictly above that
    assert 1.0 / MU > 1.0 / (1.0 + MU)


def test_gamma_tradeoff_mu_recovery():
    g = 1.0 / (1.0 + MU) + 1e-6
    pt = fr.gamma_tradeoff(g, MU)
    assert 1.0 / pt.inv_mu_p == pytest.approx(4.627005902717483, abs=1e-9)
    assert abs(1.0 / pt.inv_mu_p - (1.0 + MU)) < 1e-2


def test_gamma_tradeoff_domain():
    with pytest.raises(ValueError):
        fr.gamma_tradeoff(1.0 / (1.0 + MU), MU)
    with pytest.raises(ValueError):
        fr.gamma_tradeoff(1.0, MU)
    with pytest.raises(ValueError):
        fr.gamma_tradeoff(0.1, MU)
    with pytest.raises(ValueError):
        fr.gamma_tradeoff(0.5, 2.0)


def test_gamma_tradeoff_monotone_along_curve():
    gammas = [0.30, 0.45, 0.60, 0.75, 0.90, 0.99]
    pts = [fr.gamma_tradeoff(g, MU) for g in gammas]
    assert all(b.beta_p > a.beta_p for a, b in zip(pts, pts[1:]))
    assert all(b.inv_mu_p < a.inv_mu_p for a, b in zip(pts, pts[1:]))


def test_gamma_curve_points_inside_region():
    for g in fr.DEFAULT_CONTAINMENT_GAMMAS:
        pt = fr.gamma_tradeoff(g, MU)
        res = fr.is_achievable(pt.beta_p, 1.0 / pt.inv_mu_p, MU)
        assert res.achievable, f"gamma={g} escaped the region"


def test_conjectured_intercept():
    assert fr.conjectured_intercept(MU) == pytest.approx(
        0.44695516582129113, rel=1e-12
    )
    assert fr.conjectured_intercept(MU) == pytest.approx(0.4469, abs=1e-4)
    with pytest.raises(ValueError):
        fr.conjectured_intercept(0.9)


def test_verify_corollaries_pass_and_margins():
    rep = fr.verify_corollaries(MU)
    assert rep.passed and rep.segment_ok and rep.containment_ok
    # 50-digit values of the left side's maximum and its argmax
    assert rep.segment_min_margin == pytest.approx(3.00548168276747e-05, rel=1e-6)
    assert rep.segment_argmin_xi == pytest.approx(0.883178679748944, abs=1e-12)
    want = {
        0.30: 0.6415324579793428,
        0.50: 0.2757099531299071,
        0.70: 0.11816140848412915,
        0.90: 0.029922020347626366,
        0.99: 0.0009331232450576765,
    }
    for g, margin in rep.containment_margins:
        assert margin == pytest.approx(want[g], rel=1e-6)


def test_verify_corollaries_dict_shape():
    rep = fr.verify_corollaries(MU)
    d = rep.as_dict()
    assert d["passed"] is True
    assert d["segment_check"]["ok"] is True
    assert len(d["containment_check"]["per_gamma"]) == 5
    assert d["containment_check"]["per_gamma"][0]["gamma"] == 0.30


def test_segment_check_catches_a_violation_between_grid_points():
    # the maximum exceeds 1 by 1.5511750799e-10 (50 digits); a 10,000-point
    # xi grid misses it and reads a margin of +5.7e-10
    rep = fr.verify_corollaries(3.82668, 0.4500232138683318)
    assert rep.segment_min_margin == pytest.approx(-1.5511750799168333e-10, rel=1e-6)
    assert not rep.segment_ok and not rep.passed


@pytest.mark.parametrize("mu_star", [2.5, MU, 8.0, 100.0])
@pytest.mark.parametrize("beta_star", [0.0, 1e-6, 0.1, 0.4469, 0.5, 1.0])
def test_segment_maximum_matches_golden_section(mu_star, beta_star):
    # the argmax lands on xi = 0 (beta_star = 0, or 2**-t underflows), on
    # the clamp xi = 1, or inside; golden_section_max returns a bracket
    # midpoint up to 5e-11 from an end, so the ends are evaluated as well
    def f(xi):
        return (1.0 - xi) / mu_star + binary_entropy(beta_star * xi)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fr.verify_corollaries(mu_star, beta_star)
    _, inner = golden_section_max(f, 0.0, 1.0)
    best = max(inner, f(0.0), f(1.0))
    assert abs((1.0 - rep.segment_min_margin) - best) <= 1e-12
    assert rep.segment_min_margin == 1.0 - f(rep.segment_argmin_xi)
    assert 0.0 <= rep.segment_argmin_xi <= 1.0


@pytest.mark.parametrize("beta_star", [-1e-9, 1.0 + 1e-9, np.nan])
def test_verify_corollaries_rejects_beta_star_outside_unit_interval(beta_star):
    with pytest.raises(ValueError, match="beta_star"):
        fr.verify_corollaries(MU, beta_star)


@settings(max_examples=25, deadline=None)
@given(
    beta_hi=st.floats(min_value=0.01, max_value=0.45),
    frac=st.floats(min_value=0.0, max_value=0.95),
    mu_p=st.floats(min_value=4.0, max_value=100.0),
)
def test_achievability_monotone_in_beta(beta_hi, frac, mu_p):
    hi = fr.is_achievable(beta_hi, mu_p, MU)
    if hi.achievable:
        lo = fr.is_achievable(beta_hi * frac, mu_p, MU)
        assert lo.achievable
        assert lo.worst_margin >= hi.worst_margin - 1e-12


def _per_query(betas, mu_ps, mu_star):
    return [
        fr.is_achievable(float(b), float(m), mu_star)
        for b, m in zip(betas, mu_ps)
    ]


@settings(max_examples=15, deadline=None)
@given(
    mu_star=st.floats(min_value=2.05, max_value=8.0),
    queries=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=0.6), st.floats(min_value=1.0 + 1e-6, max_value=1e4)),
        min_size=1,
        max_size=8,
    ),
)
def test_is_achievable_array_equals_per_query_calls(mu_star, queries):
    betas = np.array([b for b, _ in queries])
    mu_ps = mu_star * np.array([r for _, r in queries])
    got = fr.is_achievable(betas, mu_ps, mu_star)
    for i, one in enumerate(_per_query(betas, mu_ps, mu_star)):
        assert isinstance(one.achievable, bool) and isinstance(one.worst_margin, float)
        assert (bool(got.achievable[i]), got.worst_margin[i], got.worst_pi[i]) == one


def test_is_achievable_array_spans_scan_blocks_and_broadcasts():
    # 130 questions on the boundary, each equal to its own scalar call; a
    # scalar beta_p broadcasts against the mu_p array, and a 2-d shape is kept
    pts = fr.trace_frontier(MU, samples=130)
    betas = np.array([p.beta_p for p in pts])
    invs = np.array([p.inv_mu_p for p in pts])
    mu_ps = np.full(invs.size, fr.INFINITE_MU)
    np.divide(1.0, invs, out=mu_ps, where=invs > 0.0)
    got = fr.is_achievable(betas, mu_ps, MU)
    want = _per_query(betas, mu_ps, MU)
    assert got.worst_margin.tolist() == [w.worst_margin for w in want]
    assert got.worst_pi.tolist() == [w.worst_pi for w in want]
    flat = fr.is_achievable(0.3, mu_ps[:6], MU)
    square = fr.is_achievable(0.3, mu_ps[:6].reshape(2, 3), MU)
    assert square.worst_margin.shape == (2, 3)
    assert square.worst_margin.ravel().tolist() == flat.worst_margin.tolist()
    assert flat.worst_margin.tolist() == [w.worst_margin for w in _per_query([0.3] * 6, mu_ps[:6], MU)]


def test_region_query_names_a_bad_element():
    with pytest.raises(ValueError, match="beta_p must be nonnegative, got -0.1"):
        fr.is_achievable(np.array([0.2, -0.1]), 8.0, MU)
    with pytest.raises(ValueError, match="mu_p must exceed mu_star, got 3.0 <= 3.627"):
        fr.is_achievable(0.2, np.array([8.0, 3.0]), MU)


_NON_FINITE_CALLS = [
    ("verify_corollaries", (np.inf, 0.4469, ()), "mu_star"),
    ("verify_corollaries", (np.nan, 0.4469, ()), "mu_star"),
    ("gamma_tradeoff", (0.5, np.inf), "mu_star"),
    ("trace_frontier", (np.nan,), "mu_star"),
    ("max_beta", (8.0, np.inf), "mu_star"),
    ("max_beta", (np.array([8.0, np.nan]), MU), "mu_p"),
    ("conjectured_intercept", (np.inf,), "mu_star"),
    ("conjectured_intercept", (np.nan,), "mu_star"),
    ("is_achievable", (0.3, np.inf, MU), "mu_p"),
    ("is_achievable", (0.3, np.nan, MU), "mu_p"),
    ("is_achievable", (np.nan, 8.0, MU), "beta_p"),
    ("is_achievable", (0.3, 8.0, np.nan), "mu_star"),
]


@pytest.mark.parametrize(
    "func, args, name",
    _NON_FINITE_CALLS,
    ids=[f"{f}{a}" for f, a, _ in _NON_FINITE_CALLS],
)
def test_non_finite_exponents_are_refused_by_name(func, args, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must"):
            getattr(fr, func)(*args)


_GAMMA_FRACTIONS = st.lists(st.floats(min_value=1e-9, max_value=1.0 - 1e-9), max_size=8)


@settings(max_examples=25, deadline=None)
@given(mu_star=st.floats(min_value=2.05, max_value=8.0), fractions=_GAMMA_FRACTIONS)
def test_gamma_tradeoff_array_equals_per_gamma_calls(mu_star, fractions):
    low = 1.0 / (1.0 + mu_star)
    gammas = [g for g in (low + f * (1.0 - low) for f in fractions) if low < g < 1.0]
    got = fr.gamma_tradeoff(np.array(gammas), mu_star)
    for i, g in enumerate(gammas):
        one = fr.gamma_tradeoff(g, mu_star)
        assert isinstance(one.beta_p, float) and isinstance(one.inv_mu_p, float)
        assert (got.beta_p[i], got.inv_mu_p[i]) == one


def test_gamma_tradeoff_names_a_bad_element():
    with pytest.raises(ValueError, match=r"got 1\.0$"):
        fr.gamma_tradeoff(np.array([0.5, 1.0]), MU)
    with pytest.raises(ValueError, match="got nan"):
        fr.gamma_tradeoff(np.array([np.nan]), MU)


@settings(max_examples=10, deadline=None)
@given(mu_star=st.floats(min_value=2.05, max_value=8.0), fractions=_GAMMA_FRACTIONS)
def test_verify_corollaries_equals_a_per_gamma_loop(mu_star, fractions):
    low = 1.0 / (1.0 + mu_star)
    gammas = tuple(g for g in (low + f * (1.0 - low) for f in fractions) if low < g < 1.0)
    rep = fr.verify_corollaries(mu_star, gammas=gammas)
    want = []
    for g in gammas:
        pt = fr.gamma_tradeoff(g, mu_star)
        res = fr.is_achievable(pt.beta_p, 1.0 / pt.inv_mu_p, mu_star)
        want.append((g, res.worst_margin))
    assert rep.containment_margins == tuple(want)
    assert all(type(m) is float for _, m in rep.containment_margins)


def test_is_achievable_over_memory_budget_refuses_before_scanning(monkeypatch):
    # 112 bytes a question, checked before any candidate is computed
    mu_ps = np.linspace(10.0, 100.0, 1000)
    monkeypatch.setattr(errors, "_memory_budget", lambda: 111_999)
    with pytest.raises(errors.LevelTooLargeError) as refused:
        fr.is_achievable(0.3, mu_ps, MU)
    assert str(refused.value) == (
        "is_achievable with 1,000 questions would need about 112,000 bytes, "
        "over the budget of 111,999 bytes (half of physical memory)"
    )
    monkeypatch.setattr(errors, "_memory_budget", lambda: 112_000)
    assert fr.is_achievable(0.3, mu_ps, MU).worst_margin.shape == (1000,)
