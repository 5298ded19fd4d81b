"""Test-only oracles: the polarization tree walked one scalar step at a time,
the complement computed through a mask per branch, the linear-domain
erasures of a table, rate-mode classical selection by a full lexsort, H2
inverted by a scalar bisection loop, the functional iteration through
np.interp, the achievable region's condition by a dense pi scan, and the
butterfly encoder with a one-block successive-cancellation decoder.

Tests compare the vectorized level tables, constructions, kernels and
closed forms against these; the package itself never calls them.  The
decoder runs the package's message-passing core, codec._resolve, which
exact_block_error also runs, there once per root class of erasure patterns
rather than once per pattern.  Tests check both against the vectorized
resolution profile, which shares no code with them: exact_block_error by
its failed patterns at z0 = 1/2, where all weigh the same, and by its
failures per received count at z0 = 0.2, where a class booked under the
wrong count shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from polarbec.codec import _resolve, _to_mask
from polarbec.construction import CodeSpec
from polarbec.criterion import binary_entropy, golden_section_max
from polarbec.erasure import (
    COMPLEMENT_CUTOFF,
    LN2,
    RootChannel,
    complement_log2,
)
from polarbec.frontier import ACHIEVABILITY_SLACK, AchievabilityResult


@dataclass(frozen=True)
class LogErasure:
    """Erasure probability of one channel, stored as the (l_era, l_rel) pair."""

    l_era: float
    l_rel: float

    @classmethod
    def from_prob(cls, z: float) -> "LogErasure":
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"erasure probability must lie in [0, 1], got {z!r}")
        l_era = math.inf if z == 0.0 else -math.log2(z)
        l_rel = math.inf if z == 1.0 else -math.log1p(-z) / LN2
        return cls(l_era, l_rel)

    @property
    def prob(self) -> float:
        """Linear-domain erasure probability (underflows to 0.0 when tiny)."""
        return 2.0 ** -self.l_era


def polar_worse(z: LogErasure) -> LogErasure:
    """One polarization step toward the degraded child: Z' = 1 - (1 - Z)**2."""
    l_rel = 2.0 * z.l_rel
    return LogErasure(complement_log2(l_rel), l_rel)


def polar_better(z: LogErasure) -> LogErasure:
    """One polarization step toward the upgraded child: Z'' = Z**2."""
    l_era = 2.0 * z.l_era
    return LogErasure(l_era, complement_log2(l_era))


def polarize_prob(z, bit: int):
    """One polarization step in the probability domain.

    Pure arithmetic on whatever number type ``z`` is (float, Fraction,
    Decimal), so exact types stay exact.  Only usable while Z is far from
    the float extremes; the log-domain pair is the general tool.
    """
    return z * z if bit else z + z - z * z


@dataclass(frozen=True)
class ChannelPath:
    """Position of a synthetic channel in the polarization tree.

    ``path`` lists one bit per level: 0 descends to the worse (degraded)
    child, 1 to the better (upgraded) child.  Reading the path as a binary
    number, most significant bit first, gives index - 1, so the channel
    index is j = 1 + sum(path[i] * 2**(level - 1 - i)).
    """

    level: int
    path: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if len(self.path) != self.level:
            raise ValueError("path length must equal level")
        if any(b not in (0, 1) for b in self.path):
            raise ValueError("path bits must be 0 or 1")

    @classmethod
    def from_index(cls, level: int, index: int) -> "ChannelPath":
        if not 1 <= index <= 1 << level:
            raise ValueError(f"index must lie in [1, 2**{level}], got {index}")
        p = index - 1
        bits = tuple((p >> (level - 1 - i)) & 1 for i in range(level))
        return cls(level, bits)

    @property
    def index(self) -> int:
        """1-based channel index j at this level."""
        return 1 + self.path_int

    @property
    def path_int(self) -> int:
        j = 0
        for b in self.path:
            j = (j << 1) | b
        return j

    @property
    def squaring_count(self) -> int:
        """Number of erasure-squaring (better) steps along the path."""
        return sum(self.path)

    def prefix(self, level: int) -> "ChannelPath":
        if not 0 <= level <= self.level:
            raise ValueError("prefix level out of range")
        return ChannelPath(level, self.path[:level])

    def is_descendant_of(self, other: "ChannelPath") -> bool:
        return (
            other.level <= self.level
            and self.path[: other.level] == other.path
        )


def channel_erasure(root: RootChannel, channel: ChannelPath) -> LogErasure:
    """Erasure of the synthetic channel reached by following ``channel``."""
    le = LogErasure.from_prob(root.z0)
    for bit in channel.path:
        le = polar_better(le) if bit else polar_worse(le)
    return le


def level_erasures(root: RootChannel, n: int) -> Iterator[tuple[ChannelPath, LogErasure]]:
    """Stream all 2**n level-n channels in index order (j = 1 .. 2**n).

    Depth-first with the worse child visited first, so paths appear in
    ascending binary order without materializing the level.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    stack: list[tuple[int, int, LogErasure]] = [
        (0, 0, LogErasure.from_prob(root.z0))
    ]
    while stack:
        depth, path_int, le = stack.pop()
        if depth == n:
            bits = tuple((path_int >> (n - 1 - i)) & 1 for i in range(n))
            yield ChannelPath(n, bits), le
            continue
        stack.append((depth + 1, 2 * path_int + 1, polar_better(le)))
        stack.append((depth + 1, 2 * path_int, polar_worse(le)))


def complement_log2_reference(x):
    """-log2(1 - 2**-x), every entry through the branch mask it falls in.

    x == 0 gives inf.  Everything else, underflowing entries included, runs
    its branch formula: expm1 below 1, log1p up to COMPLEMENT_CUTOFF and the
    first-order expansion above it.  Negative or NaN input gives NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    zero = x == 0.0
    mid = (x >= 1.0) & (x <= COMPLEMENT_CUTOFF)
    big = x > COMPLEMENT_CUTOFF
    low = ~(zero | mid | big)
    out[zero] = np.inf
    out[low] = -np.log(-np.expm1(-x[low] * LN2)) / LN2
    out[mid] = -np.log1p(-np.exp2(-x[mid])) / LN2
    out[big] = np.exp2(-x[big]) / LN2
    return out if out.ndim else float(out)


def linear_erasures(l_era: np.ndarray) -> np.ndarray:
    """Linear-domain erasure probabilities; doubly-tiny entries underflow to 0."""
    return np.exp2(-np.asarray(l_era, dtype=np.float64))


def classical_rate_reference(l_era: np.ndarray, count: int) -> np.ndarray:
    """0-based paths of the count largest l_era, ties to the smaller index.

    A full lexsort over the level, the ordering that rate-mode selection
    must reproduce.
    """
    order = np.lexsort((np.arange(l_era.size), -l_era))
    return np.sort(order[:count])


def binary_entropy_inv_reference(y: float) -> float:
    """The unique p in [0, 1/2] with H2(p) = y, one scalar halving at a time."""
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"binary_entropy_inv domain is [0, 1], got {y!r}")
    # float H2 plateaus at 1.0 on a ~1e-8 wide interval around 1/2, so the
    # endpoints are returned exactly instead of bisected
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def iterate_g_reference(a: float, b: float, n_steps: int, grid_size: int) -> list[np.ndarray]:
    """The values of g_0 .. g_n_steps from np.interp, which searches every
    query point's bracket again on every step."""
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    sq = grid * grid
    dbl = 2.0 * grid - sq
    values = ((grid > a) & (grid < b)).astype(np.float64)
    out = [values]
    for _ in range(n_steps):
        values = 0.5 * (np.interp(sq, grid, values) + np.interp(dbl, grid, values))
        out.append(values)
    return out


def region_scan(beta_p: float, mu_p: float, mu_star: float) -> AchievabilityResult:
    """One question of is_achievable by search: the region's left side

        (1 - pi) / (mu_p - mu_star pi) + H2(beta_p mu_p / (mu_p - mu_star pi)),

    with the linear penalty s in place of H2(s) for s > 1, sampled at 2,048
    evenly spaced pi, then refined by golden_section_max between the largest
    sample's neighbours.  The larger of the refined value and that sample
    is the worst case.
    """

    def lhs(pi):
        d = mu_p - mu_star * pi
        s = beta_p * mu_p / d
        return (1.0 - pi) / d + np.where(s > 1.0, s, binary_entropy(np.minimum(s, 1.0)))

    pis = np.linspace(0.0, 1.0, 2048)
    values = lhs(pis)
    k = int(np.argmax(values))
    lo, hi = float(pis[max(k - 1, 0)]), float(pis[min(k + 1, pis.size - 1)])
    pi, worst = golden_section_max(lambda p: float(lhs(p)), lo, hi)
    if values[k] > worst:
        pi, worst = float(pis[k]), float(values[k])
    margin = 1.0 - worst
    return AchievabilityResult(margin > ACHIEVABILITY_SLACK, margin, pi)


def _as_bits(seq, what: str) -> np.ndarray:
    bits = np.asarray(seq, dtype=np.int8)
    if bits.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError(f"{what} entries must be 0 or 1")
    return bits


def polar_encode(u) -> np.ndarray:
    """Multiply by the n-fold Kronecker power of [[1,0],[1,1]] over GF(2).

    Input position i feeds the synthetic channel with index j = i + 1.  The
    in-place butterfly runs adjacent pairs first; the stages commute, so
    any order realizes the same matrix.
    """
    x = _as_bits(u, "input block").copy()
    size = x.size
    if size == 0 or size & (size - 1):
        raise ValueError("input length must be a power of two")
    width = 2
    while width <= size:
        view = x.reshape(-1, width)
        view[:, : width // 2] ^= view[:, width // 2 :]
        width *= 2
    return x


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one decoding attempt.

    first_failure is the 1-based index of the earliest selected channel whose
    input could not be resolved, or None on success.
    """

    info_bits: np.ndarray | None
    first_failure: int | None = None

    @property
    def ok(self) -> bool:
        return self.info_bits is not None


def sc_decode_bec(erased, received, spec: CodeSpec, frozen_values) -> DecodeResult:
    """Three-valued successive-cancellation decoding over the erasure channel.

    erased: bool mask over codeword positions.  received: bit array; entries
    under the mask are ignored.  frozen_values: bits for every channel not in
    spec.indices, in ascending channel order.

    A selected channel resolving to "unknown" aborts decoding with that
    channel recorded; a received value contradicting a frozen constraint
    raises DecodingInconsistencyError, since the channel never flips bits.
    """
    size = 1 << spec.n
    mask = np.asarray(erased, dtype=bool)
    if mask.shape != (size,):
        raise ValueError("erasure pattern length does not match the code")
    y = np.asarray(received, dtype=np.int8)
    if y.shape != (size,):
        raise ValueError("received block length does not match the code")
    good = y[~mask]
    if good.size and (good.min() < 0 or good.max() > 1):
        raise ValueError("received entries must be 0 or 1 outside erasures")
    info_pos = spec.indices.astype(np.int64) - 1
    is_frozen = np.ones(size, dtype=bool)
    is_frozen[info_pos] = False
    frozen_bits = _as_bits(frozen_values, "frozen values")
    if frozen_bits.size != size - info_pos.size:
        raise ValueError(
            f"expected {size - info_pos.size} frozen values, got {frozen_bits.size}"
        )
    template = np.zeros(size, dtype=bool)
    template[is_frozen] = frozen_bits
    out = _resolve(
        _to_mask(~mask),
        _to_mask(~mask & (y == 1)),
        size,
        0,
        _to_mask(is_frozen),
        _to_mask(template),
        {},  # each subtree state occurs once in one decode: a fresh memo
    )
    if isinstance(out, int):  # position 0 is channel 1
        return DecodeResult(info_bits=None, first_failure=out + 1)
    u_hat = out[1]
    info_bits = [u_hat >> i & 1 for i in info_pos.tolist()]
    return DecodeResult(info_bits=np.array(info_bits, dtype=np.int8))
