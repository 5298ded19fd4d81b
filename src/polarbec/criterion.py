"""Decay-exponent machinery: the sup-ratio test and the functional iteration.

A candidate function h on [0, 1] with h(0) = h(1) = 0 and h > 0 inside
certifies a polarization speed: if

    sup over xi in (0,1) of [h(xi^2) + h(2 xi - xi^2)] / (2 h(xi)) = r < 1

then the interior probability mass P(a < Z_n < b) decays like 2^(-n/mu)
with mu <= mu* = -1/log2(r).  The same doubling map drives a functional
iteration whose decay rate gives a direct numerical estimate of mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateFitError, _check_memory


def _unit_interval(v, name: str) -> np.ndarray:
    x = np.asarray(v, dtype=np.float64)
    inside = (x >= 0.0) & (x <= 1.0)  # False for NaN
    if not np.all(inside):
        bad = float(x[~inside].flat[0])
        raise ValueError(f"{name} domain is [0, 1], got {bad!r}")
    return x


def _entropy_inside(x):
    # H2 on the open interval (0, 1), where neither log2 needs a guard
    return -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))


def binary_entropy(p):
    """H2(p) in bits, with the limit value 0 at p in {0, 1}.

    Takes a scalar or an array; 0-d input gives a float.
    """
    x = _unit_interval(p, "binary_entropy")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _entropy_inside(x)
    out = np.where((x == 0.0) | (x == 1.0), 0.0, out)
    return out if out.ndim else float(out)


def binary_entropy_inv(y):
    """The unique p in [0, 1/2] with H2(p) = y, by bisection.

    Takes a scalar or an array; 0-d input gives a float.  Every target gets
    the same 39 halvings of [0, 1/2], to a bracket of 2**-40 < 1e-12 whose
    ends are dyadic, so lo + width is exact; its midpoint is returned.
    """
    t = _unit_interval(y, "binary_entropy_inv")
    lo = np.zeros_like(t)
    width = 0.5
    for _ in range(39):
        width *= 0.5
        mid = lo + width
        lo = np.where(_entropy_inside(mid) < t, mid, lo)
    out = lo + 0.5 * width
    # float H2 plateaus at 1.0 on a ~1e-8 wide interval around 1/2, so the
    # endpoints are returned exactly instead of bisected
    out = np.where(t == 0.0, 0.0, np.where(t == 1.0, 0.5, out))
    return out if out.ndim else float(out)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Maximize a unimodal f on [a, b] to a bracket of width 1e-10; returns
    (argmax, value) at the bracket's midpoint."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
    x = 0.5 * (a + b)
    return x, f(x)


@dataclass(frozen=True)
class GridFunction:
    """One iterate of iterate_g, piecewise linear on [0, 1] through its
    samples at the grid nodes: a call is np.interp(x, grid, values)."""

    grid: np.ndarray
    values: np.ndarray

    def __call__(self, x):
        """np.interp(x, grid, values); 0-d input gives a float."""
        out = np.interp(x, self.grid, self.values)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class CandidateH:
    """The power-family candidate h(xi) = (xi (1 - xi))**alpha, 0 < alpha < 1:
    positive on (0, 1) and 0 at both ends."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")

    @classmethod
    def power(cls, alpha: float) -> "CandidateH":
        return cls(alpha=alpha)

    def __call__(self, xi):
        x = np.asarray(xi, dtype=np.float64)
        out = (x * (1.0 - x)) ** self.alpha
        return out if out.ndim else float(out)


class SupRatio(NamedTuple):
    ratio: float
    argmax: float
    end_limit: float


def _ratio_at(h: CandidateH, xi):
    sq = xi * xi
    return (h(sq) + h(2.0 * xi - sq)) / (2.0 * h(xi))


def ratio_curve(h: CandidateH, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Ratio samples on the open uniform grid xi = k/grid_size, 0 < k < grid_size."""
    # 56 bytes a point at the tracemalloc peak of ratio_curve and of sup_ratio,
    # and 4 KiB for their small objects (under 1 KiB)
    _check_memory(56 * grid_size + 4096, f"the ratio curve on {grid_size:,} points")
    xi = np.arange(1.0, grid_size) / grid_size
    return xi, _ratio_at(h, xi)


def sup_ratio(h: CandidateH, grid_size: int = 4096) -> SupRatio:
    """Supremum of the one-step ratio over the open unit interval.

    The ratio is 0/0 at both ends, with one-sided limits of exactly
    2**(alpha - 1).  The sup is the larger of that limit and the interior
    maximum of a grid scan plus golden-section refinement: a lower estimate,
    not a proven upper bound.  Where the limit wins (alpha near 1), argmax is
    0.0, since the limit is approached at the ends but not attained.
    """
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    xi, ratios = ratio_curve(h, grid_size)
    k = int(np.argmax(ratios))
    lo = float(xi[k - 1] if k > 0 else xi[0] / 2.0)
    hi = float(xi[k + 1] if k + 1 < xi.size else 0.5 * (xi[-1] + 1.0))
    at, refined = golden_section_max(lambda x: _ratio_at(h, x), lo, hi)
    limit = 2.0 ** (h.alpha - 1.0)
    # the first of the largest, so a tie keeps the refined point
    candidates = [(refined, at), (float(ratios[k]), float(xi[k])), (limit, 0.0)]
    best, argmax = max(candidates, key=lambda c: c[0])
    return SupRatio(ratio=best, argmax=argmax, end_limit=limit)


def mu_star_from_ratio(r: float) -> float:
    """Certified exponent mu* = -1/log2(r) for a ratio r that bounds the sup
    from above; sup_ratio's r is a lower estimate, not a proven upper bound."""
    if r >= 1.0:
        raise ValueError(f"ratio must be below 1, got {r!r}")
    if r <= 2.0 ** -0.5:
        raise ValueError(
            f"ratio must exceed 2**-1/2 so that mu* > 2, got {r!r}"
        )
    return -1.0 / math.log2(r)


# Queries per block of iterate_g's step
_BLOCK = 1 << 14


def iterate_g(
    a: float, b: float, n_steps: int, grid_size: int = 8192
) -> list[GridFunction]:
    """Functional iteration g_{k+1}(xi) = [g_k(xi^2) + g_k(2 xi - xi^2)] / 2.

    g_0 is the indicator of the open interval (a, b) sampled on a uniform
    grid; off-grid lookups interpolate linearly.  Returns g_0 .. g_n_steps.

    grid_size counts intervals, not nodes, so dyadic query points such as
    z0 = 0.5 fall exactly on grid nodes.

    Each step replays np.interp's arithmetic without its search.  The
    brackets j of the query points xi^2 and 2 xi - xi^2 and their offsets
    x - grid[j] are found once per call.  A step computes the slopes
    (v[j+1] - v[j]) / (grid[j+1] - grid[j]) over the whole grid, then
    slope[j] * offset + v[j]; a query at the last node reads slope 0 and so
    v[-1].  Every operation is a separate numpy pass, as in np.interp, so
    each iterate equals the np.interp iteration bit for bit.  The step works
    in buffers allocated once per call, a block of queries at a time.  The
    iterates share one buffer: each GridFunction's values are a row of one
    (n_steps + 1, grid_size + 1) array, allocated once.
    """
    if not 0.0 < a < b < 1.0:
        raise ValueError("require 0 < a < b < 1")
    if grid_size < 4096:
        raise ValueError("grid_size must be at least 4096")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    bracket = np.min_scalar_type(grid_size)  # uint16 up to 65,535 intervals
    # every iterate is kept, 8 bytes a node and about 220 of objects; the
    # grid, two offsets, the slopes and the two bracket columns add
    # 32 + 2 * itemsize bytes a node, and the step's five block buffers 40
    # bytes a block query; 8 KiB covers the call's small objects (under 4)
    node = 8 * (n_steps + 1) + 32 + 2 * bracket.itemsize
    need = node * (grid_size + 1) + 256 * (n_steps + 1) + 40 * _BLOCK + 8192
    _check_memory(need, f"iterate_g with {n_steps} steps on {grid_size} intervals")
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    sq = grid * grid
    dbl = 2.0 * grid - sq
    queries = []
    for x in (sq, dbl):
        # np.interp's bracket: grid[j] <= x < grid[j + 1], or the last node
        j = np.searchsorted(grid, x, side="right") - 1
        np.subtract(x, grid[j], out=x)  # the offsets, written over x
        queries.append((x, j.astype(bracket)))
        del j  # 8 bytes a node, freed before the next search
    table = np.empty((n_steps + 1, grid_size + 1))  # row k holds g_k
    values = table[0]
    values[...] = (grid > a) & (grid < b)
    out = [GridFunction(grid, values)]
    slope = np.zeros(grid_size + 1)  # the last node's entry stays 0
    width = np.empty(_BLOCK)
    index = np.empty(_BLOCK, dtype=np.intp)
    parts = np.empty((2, _BLOCK))
    gathered = np.empty(_BLOCK)
    for k in range(1, n_steps + 1):
        v = values
        for i in range(0, grid_size, _BLOCK):
            e = min(i + _BLOCK, grid_size)
            np.subtract(v[i + 1 : e + 1], v[i:e], out=slope[i:e])
            np.subtract(grid[i + 1 : e + 1], grid[i:e], out=width[: e - i])
            np.divide(slope[i:e], width[: e - i], out=slope[i:e])
        values = table[k]
        for i in range(0, grid_size + 1, _BLOCK):
            e = min(i + _BLOCK, grid_size + 1)
            j, t = index[: e - i], gathered[: e - i]
            for part, (off, brackets) in zip(parts, queries):
                r = part[: e - i]
                np.copyto(j, brackets[i:e])
                # every index is in range, and "clip" skips the bounds check
                np.take(slope, j, out=r, mode="clip")
                r *= off[i:e]
                np.take(v, j, out=t, mode="clip")
                r += t
            np.add(parts[0, : e - i], parts[1, : e - i], out=values[i:e])
            values[i:e] *= 0.5
        out.append(GridFunction(grid, values))
    return out


def _fit_start(count: int, z0: float, fit_fraction: float) -> int:
    """estimate_mu's checks on count iterates; the first one in its fit window."""
    if count < 10:
        raise ValueError("need at least 10 iterates for a stable fit")
    if not 0.0 <= z0 <= 1.0:  # False for NaN
        raise ValueError(f"z0 must lie in [0, 1], got {z0!r}")
    if not 0.0 < fit_fraction <= 1.0:  # False for NaN
        raise ValueError(f"fit_fraction must lie in (0, 1], got {fit_fraction!r}")
    start = int(count * (1.0 - fit_fraction))
    if count - start < 2:
        raise ValueError(
            f"fit_fraction {fit_fraction!r} of {count} iterates leaves"
            f" {count - start} in the fit window; need at least 2"
        )
    return start


def estimate_mu(
    iterates: Sequence[GridFunction], z0: float, fit_fraction: float = 0.5
) -> float:
    """Decay exponent mu from a least-squares fit of -log2 g_n(z0) vs n.

    Only the trailing fit_fraction of the iterates enters the fit, skipping
    the transient where g_n still remembers the indicator shape.  z0 must lie
    in [0, 1], fit_fraction in (0, 1], and the window must hold at least 2
    iterates; otherwise ValueError.
    """
    start = _fit_start(len(iterates), z0, fit_fraction)
    ys = np.array([float(g(z0)) for g in iterates[start:]])
    if np.any(ys <= 0.0):
        raise DegenerateFitError(
            "interior mass underflowed to 0 inside the fit window"
        )
    ns = np.arange(start, len(iterates), dtype=np.float64)
    neglog = -np.log2(ys)
    slope = np.polyfit(ns, neglog, 1)[0]
    if slope <= 1e-12:
        raise DegenerateFitError(f"no usable decay, slope {slope:.3g}")
    return 1.0 / slope
