"""The achievable (error exponent, gap exponent) plane.

A point (beta_p, 1/mu_p) is achievable when

    (1 - pi) / (mu_p - mu_star * pi) + H2(beta_p * mu_p / (mu_p - mu_star * pi)) < 1

holds for every pi in [0, 1].  beta_p is the block-error exponent (error
probability 2**-2**(beta_p * n)) and 1/mu_p the gap exponent (gap to
capacity 2**(-n/mu_p)); mu_star is the certified polarization exponent.

The boundary has a closed form.  With d = mu_p - mu_star * pi and
s = beta_p * mu_p / d the condition (with slack eps) reads

    beta_p < (1/mu_star - 1/mu_p) * s / (H2(s) - 1 + c),   c = 1/mu_star + eps,

for every s the sweep over pi visits.  The quotient is unimodal because H2
is concave; its minimum sits at the tangent point s* = 1 - 2**-(1 - c),
where H2(s*) - 1 + c = s* * theta with theta = -log2(2**(1 - c) - 1).  So
the largest beta_p is H2inv(1 - 1/mu_p - eps) (the pi = 0 end binds) when
that is at least s*, and otherwise the straight segment
(1/mu_star - 1/mu_p) / theta.  At eps = 0 that segment meets 1/mu_p = 0 at
conjectured_intercept(mu_star).

The worst pi has a closed form by the same substitution.  With
K = (1/mu_star - 1/mu_p) / beta_p the left side reads
L(s) = 1/mu_star - K s + H2(s) on s <= 1, where s runs monotonically from
s0 = beta_p (pi = 0) to s1 = beta_p mu_p / (mu_p - mu_star) (pi = 1).  L is
concave there, with its maximum at s* = 1/(1 + 2**K) <= 1/2.  Above s = 1
the linear penalty s takes H2's place; K s1 = 1/mu_star, so K < 1/mu_star
< 1/2 whenever s1 > 1, and the penalty branch rises towards pi = 1.  So
is_achievable evaluates the left side at two pi only: s* clipped into
[s0, s1] and mapped back by pi = (mu_p - beta_p mu_p / s) / mu_star, and
pi = 1.  The independent check, a dense pi scan with a golden-section
refinement, is tests/oracles.py's region_scan.

The module also carries the interpolation curve parametrized by gamma, the
numeric checks behind its containment in the region, and the reference
boundary for mu_star = 3.627 used as regression data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .criterion import binary_entropy, binary_entropy_inv
from .errors import _check_memory

# Proxy for "no constraint on the gap exponent" when sweeping 1/mu_p to 0.
INFINITE_MU = 1e12

# Strict inequality over a compact range; require at least this much room.
# max_beta's closed form carries the same slack, so its boundary is the edge
# of what is_achievable accepts.
ACHIEVABILITY_SLACK = 1e-12

# Peak bytes of is_achievable per question, as measured with tracemalloc:
# about 106 at 10**5 questions, the two candidates' arrays and temporaries.
_BYTES_PER_QUESTION = 112

# Peak bytes of trace_frontier per sample, as measured with tracemalloc:
# about 120 for the returned FrontierPoint list, the rest its arrays.
_BYTES_PER_SAMPLE = 169


class FrontierPoint(NamedTuple):
    beta_p: float
    inv_mu_p: float


class AchievabilityResult(NamedTuple):
    achievable: bool
    worst_margin: float
    worst_pi: float


def _check_exponents(mu_star: float, mu_p=()) -> None:
    # mu_star finite and above 2; each element of mu_p above it, not NaN
    if mu_star <= 2.0 or not math.isfinite(mu_star):  # NaN fails isfinite
        raise ValueError(f"mu_star must exceed 2 and be finite, got {mu_star!r}")
    mu = np.asarray(mu_p, dtype=np.float64)
    low = ~(mu > mu_star)  # True for NaN
    if np.any(low):
        bad = float(mu[low].flat[0])
        raise ValueError(f"mu_p must exceed mu_star, got {bad!r} <= {mu_star!r}")


def _entropy_term(args):
    # Arguments above 1 leave H2's domain; penalize linearly so the
    # condition stays total and monotone in beta_p.  An argument of 0
    # (beta_p = 0) or 1 takes H2's limit value 0.
    return np.where(args > 1.0, args, binary_entropy(np.minimum(args, 1.0)))


def _region_lhs(beta_p: float, mu_p: float, mu_star: float, pi):
    # (1 - pi)/d as (d - (mu_p - mu_star))/(mu_star d): d - (mu_p - mu_star)
    # is mu_star (1 - pi) read off d itself, so both terms see the same pi,
    # and near mu_p = mu_star, where 1 - pi and d cancel, mu_p - mu_star is
    # exact (Sterbenz) and d carries the only rounding
    d = mu_p - mu_star * pi
    return (d - (mu_p - mu_star)) / (mu_star * d) + _entropy_term(beta_p * mu_p / d)


def is_achievable(beta_p, mu_p, mu_star: float) -> AchievabilityResult:
    """Check the region condition at the left side's exact maximum over pi.

    beta_p and mu_p are scalars or arrays that broadcast together, one
    question per element; mu_star is a scalar.  mu_star must be finite and
    above 2, mu_p finite and above mu_star (the left side is 0/0 at
    mu_p = inf; INFINITE_MU stands in for an unconstrained gap), and beta_p
    nonnegative; anything else raises ValueError.

    The worst pi is one of two candidates (see the module docstring): the
    tangent point s* = 1/(1 + 2**K) clipped into the s range, taking exactly
    0 or 1 at a clip, and pi = 1.  The left side is evaluated at both and
    the larger kept.  At beta_p = 0 the left side falls in pi, and s* = 0
    gives pi = 0.  Scalar arguments give floats and a bool; arrays give
    arrays of their broadcast shape, each element equal to its own scalar
    call.
    """
    _check_exponents(mu_star, mu_p)
    beta_p, mu_p = np.broadcast_arrays(
        np.asarray(beta_p, dtype=np.float64), np.asarray(mu_p, dtype=np.float64)
    )
    low = ~(beta_p >= 0.0)  # True for NaN
    if np.any(low):
        raise ValueError(f"beta_p must be nonnegative, got {float(beta_p[low].flat[0])!r}")
    if np.any(mu_p == np.inf):
        raise ValueError("mu_p must be finite, got inf: the region's left side is 0/0 there")
    size = beta_p.size
    _check_memory(_BYTES_PER_QUESTION * size, f"is_achievable with {size:,} questions")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # s* as u/(1 + u) with u = 2**-K, which underflows to 0 where 2**K
        # would overflow; -K is -inf at beta_p = 0.  The mapped pi is read
        # only where s* > s0 >= 0, so its division by s* = 0 goes unused.
        # -K with 1/mu_p - 1/mu_star read as (mu_star - mu_p)/(mu_star mu_p),
        # whose difference is exact near mu_p = mu_star (Sterbenz)
        u = np.exp2((mu_star - mu_p) / (mu_star * mu_p) / beta_p)
        s_star = u / (1.0 + u)
        pi = np.clip((mu_p - beta_p * mu_p / s_star) / mu_star, 0.0, 1.0)
    s_one = beta_p * mu_p / (mu_p - mu_star)
    pi = np.where(s_star > beta_p, np.where(s_star < s_one, pi, 1.0), 0.0)
    at_pi = _region_lhs(beta_p, mu_p, mu_star, pi)
    at_one = _region_lhs(beta_p, mu_p, mu_star, 1.0)
    one = at_one > at_pi
    worst_pi = np.where(one, 1.0, pi)
    margin = 1.0 - np.where(one, at_one, at_pi)
    achievable = margin > ACHIEVABILITY_SLACK
    if margin.ndim:
        return AchievabilityResult(achievable, margin, worst_pi)
    return AchievabilityResult(bool(achievable), float(margin), float(worst_pi))


def _theta(c: float) -> float:
    # Slope factor of the straight segment; c = 1/mu_star (+ slack).
    return -math.log2(2.0 ** (1.0 - c) - 1.0)


def max_beta(mu_p, mu_star: float):
    """Largest error exponent achievable at a fixed gap exponent, closed form.

    Every s = beta_p * mu_p / d the pi sweep visits must stay at or below
    H2inv(1 - eps) < 1/2 (the pi = 1 end), so only H2's rising branch
    matters.  When H2inv(1 - 1/mu_p - eps) is at least the tangent point s*
    the pi = 0 end binds; otherwise the straight segment does.  When s*
    itself exceeds H2inv(1 - eps), which needs mu_star beyond about 5e5,
    the pi = 1 end binds: H2inv(1 - eps) * (1 - mu_star / mu_p).

    mu_p is a scalar or an array; 0-d input gives a float.
    """
    _check_exponents(mu_star, mu_p)
    mu_p = np.asarray(mu_p, dtype=np.float64)
    c = 1.0 / mu_star + ACHIEVABILITY_SLACK
    s_star = 1.0 - 2.0 ** (c - 1.0)
    s_lo = binary_entropy_inv(1.0 - 1.0 / mu_p - ACHIEVABILITY_SLACK)
    # 1 - mu_star/mu_p and 1/mu_star - 1/mu_p with mu_p - mu_star, exact near
    # mu_p = mu_star, in place of the difference that cancels there
    if binary_entropy(s_star) >= 1.0 - ACHIEVABILITY_SLACK:
        below = binary_entropy_inv(1.0 - ACHIEVABILITY_SLACK) * (mu_p - mu_star) / mu_p
    else:
        below = (mu_p - mu_star) / (mu_star * mu_p) / _theta(c)
    out = np.where(s_lo >= s_star, s_lo, below)
    return out if out.ndim else float(out)


def trace_frontier(mu_star: float, samples: int = 53) -> list[FrontierPoint]:
    """Sweep the gap exponent from 1/mu_star down to 0 and record max_beta.

    The top endpoint needs mu_p strictly above mu_star, so it is nudged by
    a relative 1e-9; the bottom endpoint uses INFINITE_MU as the proxy for
    an unconstrained gap.  Output is sorted by inv_mu_p descending.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    _check_memory(_BYTES_PER_SAMPLE * samples, f"trace_frontier with {samples} samples")
    _check_exponents(mu_star, INFINITE_MU)  # the sweep's last point, before 1/mu_star
    top = 1.0 / (mu_star * (1.0 + 1e-9))
    invs = top * np.arange(samples - 1, -1, -1) / (samples - 1)
    finite = invs > 0.0
    mu_p = np.full(samples, INFINITE_MU)
    mu_p[finite] = 1.0 / invs[finite]
    betas = max_beta(mu_p, mu_star)
    inv_mu_p = np.where(finite, 1.0 / mu_p, 0.0)
    return list(map(FrontierPoint, betas.tolist(), inv_mu_p.tolist()))


def gamma_tradeoff(gamma, mu_star: float) -> FrontierPoint:
    """Interpolation curve: gamma in (1/(1+mu_star), 1) trades gap for error.

    This is the curve of Mondelli, Hassani and Urbanke, "Unified scaling of
    polar codes" (IEEE T-IT 2016), Theorem 7:
    beta_p = gamma * H2inv((gamma (mu_star + 1) - 1) / (gamma mu_star)) and
    mu_p = mu_star / (1 - gamma).

    As gamma -> 1/(1+mu_star), mu_p -> 1 + mu_star.  As gamma -> 1, beta_p
    -> 1/2 (the error-exponent regime), but beta_p < 1/2 for every
    gamma < 1: from H2(1/2 - d) = 1 - 2 d**2/ln2 + O(d**4),
    1/2 - beta_p = (1-gamma)/2 + sqrt((1-gamma) ln2 / (2 gamma mu_star))
    + O((1-gamma)**1.5).

    gamma is a scalar or an array; 0-d input gives a point of floats, an
    array one of arrays, each element equal to its own scalar call.
    """
    _check_exponents(mu_star)
    g = np.asarray(gamma, dtype=np.float64)
    outside = ~((1.0 / (1.0 + mu_star) < g) & (g < 1.0))  # True for NaN
    if np.any(outside):
        raise ValueError(
            f"gamma must lie in (1/(1+mu_star), 1) = "
            f"({1.0 / (1.0 + mu_star):.6f}, 1), got {float(g[outside].flat[0])!r}"
        )
    arg = (g * (mu_star + 1.0) - 1.0) / (g * mu_star)
    beta_p = g * binary_entropy_inv(arg)
    inv_mu_p = 1.0 / (mu_star / (1.0 - g))
    if g.ndim:
        return FrontierPoint(beta_p, inv_mu_p)
    return FrontierPoint(float(beta_p), float(inv_mu_p))


def conjectured_intercept(mu_star: float) -> float:
    """x-intercept 1/(mu_star * theta) of the conjectured straight segment.

    theta = -log2(2**(1 - 1/mu_star) - 1) comes from the hypothesized
    power-of-log behavior of the eigenfunction near 0; for mu_star = 3.627
    this evaluates to about 0.44696.
    """
    _check_exponents(mu_star)
    return 1.0 / (mu_star * _theta(1.0 / mu_star))


@dataclass(frozen=True)
class CorollaryReport:
    """Outcome of the two numeric corollary checks."""

    mu_star: float
    beta_star: float
    segment_min_margin: float
    segment_argmin_xi: float
    containment_margins: tuple[tuple[float, float], ...]  # (gamma, margin)

    @property
    def segment_ok(self) -> bool:
        return self.segment_min_margin > 0.0

    @property
    def containment_ok(self) -> bool:
        return all(m > 0.0 for _, m in self.containment_margins)

    @property
    def passed(self) -> bool:
        return self.segment_ok and self.containment_ok

    def as_dict(self) -> dict:
        return {
            "mu_star": self.mu_star,
            "beta_star": self.beta_star,
            "segment_check": {
                "min_margin": self.segment_min_margin,
                "argmin_xi": self.segment_argmin_xi,
                "ok": self.segment_ok,
            },
            "containment_check": {
                "per_gamma": [
                    {"gamma": g, "margin": m} for g, m in self.containment_margins
                ],
                "ok": self.containment_ok,
            },
            "passed": self.passed,
        }


DEFAULT_CONTAINMENT_GAMMAS = (0.30, 0.50, 0.70, 0.90, 0.99)


def verify_corollaries(
    mu_star: float = 3.627,
    beta_star: float = 0.4469,
    gammas: tuple[float, ...] = DEFAULT_CONTAINMENT_GAMMAS,
) -> CorollaryReport:
    """Run the two numeric checks that reduce the region to known regimes.

    (a) the straight-segment inequality (1 - xi)/mu_star + H2(beta_star xi) < 1
        for every xi in [0, 1], at the left side's exact maximum.  The left
        side is concave, and its slope -1/mu_star + beta_star *
        log2((1 - beta_star xi)/(beta_star xi)) vanishes where
        beta_star xi = 1/(1 + 2**t), t = 1/(mu_star beta_star).  That xi is
        clamped to 1; it is 0 when beta_star = 0 or 2**-t underflows;
    (b) the interpolation curve's points all lie inside the region.
    """
    if not 0.0 <= beta_star <= 1.0:  # False for NaN
        raise ValueError(f"beta_star must lie in [0, 1], got {beta_star!r}")
    # gamma_tradeoff refuses a bad mu_star, with no gammas too, before the
    # segment divides by it
    pts = gamma_tradeoff(np.array(gammas, dtype=np.float64), mu_star)
    res = is_achievable(pts.beta_p, 1.0 / pts.inv_mu_p, mu_star)
    xi = 0.0
    if beta_star > 0.0:
        # 1/(1 + 2**t) as u/(1 + u) with u = 2**-t, which underflows to 0
        # where 2**t would overflow
        u = 2.0 ** (-1.0 / (mu_star * beta_star))
        xi = min(u / (1.0 + u) / beta_star, 1.0)
    lhs = (1.0 - xi) / mu_star + binary_entropy(beta_star * xi)
    return CorollaryReport(
        mu_star=mu_star,
        beta_star=beta_star,
        segment_min_margin=1.0 - lhs,
        segment_argmin_xi=xi,
        containment_margins=tuple(zip(gammas, res.worst_margin.tolist())),
    )


# Boundary of the achievable region for mu_star = 3.627, as (beta_p, inv_mu_p)
# pairs sorted by inv_mu_p descending.  Regression data for trace/max_beta.
REFERENCE_BOUNDARY_3627: tuple[tuple[float, float], ...] = (
    (0.397560615940892, 0.0304942511446948),
    (0.408687551008228, 0.0241938247074105),
    (0.414395185864106, 0.0212492019676073),
    (0.41884800577141, 0.0190864774858869),
    (0.422639670594639, 0.0173375279181456),
    (0.426004630944888, 0.0158565973092125),
    (0.429064277330748, 0.014568028642948),
    (0.43189116104289, 0.0134264910850402),
    (0.434532763048766, 0.0124022438252995),
    (0.437022179406831, 0.0114745044435068),
    (0.439383577845581, 0.0106280589201336),
    (0.44163524970571, 0.00985136361705596),
    (0.44379143821705, 0.00913540709442582),
    (0.445863494254992, 0.00847298986167024),
    (0.447860639339929, 0.00785824839856242),
    (0.449790487683765, 0.00728632915246918),
    (0.451659414256492, 0.00675315845313478),
    (0.453472821008394, 0.00625527591887812),
    (0.455235333720022, 0.00578971114489503),
    (0.456950950380316, 0.00535389065774242),
    (0.458623154934287, 0.00494556651057623),
    (0.460255005798812, 0.0045627606585394),
    (0.46184920567094, 0.00420372104328875),
    (0.463408157247476, 0.00386688650283846),
    (0.464934008185885, 0.00355085842622566),
    (0.466428687740426, 0.00325437763126255),
    (0.467893936887402, 0.00297630533076069),
    (0.469331333299157, 0.0027156073360036),
    (0.470742312205696, 0.00247134084675097),
    (0.472128183942937, 0.00224264332692893),
    (0.473490148809463, 0.00202872307596161),
    (0.474829309720156, 0.00182885118921182),
    (0.476146683043664, 0.00164235466449761),
    (0.477443207932787, 0.00146861046044328),
    (0.478719754396506, 0.00130704035023392),
    (0.479977130315291, 0.0011571064438959),
    (0.481216087564151, 0.0010183072755169),
    (0.48243732737850, 0.00089017437031046),
    (0.483641505074225, 0.00077226922126171),
    (0.484829234215362, 0.000664180616477294),
    (0.486001090304469, 0.000565522269682278),
    (0.487157614063861, 0.000475930711003692),
    (0.488299314359456, 0.000395063405138396),
    (0.489426670814881, 0.000322597066850953),
    (0.490540136154829, 0.000258226149079616),
    (0.491640138311252, 0.000201661482394013),
    (0.492727082321111, 0.000152629047575281),
    (0.493801352040403, 0.000110868865647052),
    (0.494863311695878, 0.0000761339917631317),
    (0.495913307292242, 0.0000481896015981413),
    (0.496951667892789, 0.000026812158981532),
    (0.49797870678435, 0.0000117886576083289),
    (0.498994722541618, 0.00000291592746097554),
)

