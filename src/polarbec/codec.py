"""Butterfly encoding, successive-cancellation decoding, and simulation.

Bits travel as int8 arrays; an erasure pattern is a bool array, True where
the symbol was lost.  Input position i of the encoder feeds the synthetic
channel with index j = i + 1: the first half of the input block rides the
worse subtree.  Inside the decoder a block is a pair of Python-int
bitmasks, known and value, with bit t standing for position t.

On the BEC the decoder never guesses, so whether a block decodes depends on
the erasure pattern alone.  simulate() exploits that through a vectorized
resolution profile, bit-sliced over 64 trials per uint64 word, fed by one
counter-based Philox stream per batch (its docstring states the stream;
tallies for a given seed differ from polarbec 0.1.0).  exact_block_error()
deliberately does not, running the actual message-passing decoder on every
pattern so the two stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import CodeSpec
from .erasure import RootChannel
from .errors import DecodingInconsistencyError, LevelTooLargeError

# two-sided 95% normal quantile
WILSON_Z95 = 1.959963984540054

# exact_block_error enumerates 2**(2**n) patterns
EXACT_ENUM_MAX_LEVEL = 4


def _as_bits(seq, what: str) -> np.ndarray:
    bits = np.asarray(seq, dtype=np.int8)
    if bits.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError(f"{what} entries must be 0 or 1")
    return bits


def polar_encode(u) -> np.ndarray:
    """Multiply by the n-fold Kronecker power of [[1,0],[1,1]] over GF(2).

    The in-place butterfly runs adjacent pairs first; the stages commute, so
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


class _Unresolved(Exception):
    def __init__(self, position: int):
        self.position = position


def _to_mask(bits: np.ndarray) -> int:
    """Bit t of the result is bits[t]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _resolve(
    known: int, value: int, width: int, base: int, frozen: int, forced: int
) -> tuple[int, int]:
    """Decode the subtree whose inputs are channels base .. base + width - 1.

    known, value: bitmasks over the subtree's codeword-domain block, bit t
    for offset t; value bits are zero outside known.  frozen, forced:
    bitmasks over the whole code's input positions, marking the frozen
    channels and their values.  Returns the re-encoded block and the decided
    inputs, both as bitmasks over the subtree.
    """
    if width == 1:
        if frozen >> base & 1:
            bit = forced >> base & 1
            if known and value != bit:
                raise DecodingInconsistencyError(
                    f"channel {base + 1} observed {value} but is frozen to {bit}"
                )
            return bit, bit
        if not known:
            raise _Unresolved(base)
        return value, value
    half = width >> 1
    low = (1 << half) - 1
    kl, kr = known & low, known >> half
    vl, vr = value & low, value >> half
    both = kl & kr
    # check node: parity known only when both halves are
    cx, cu = _resolve(both, (vl ^ vr) & both, half, base, frozen, forced)
    from_left = (vl ^ cx) & kl
    conflict = both & (from_left ^ vr)
    if conflict:
        t = (conflict & -conflict).bit_length() - 1
        raise DecodingInconsistencyError(f"inconsistent pair at codeword offset {t}")
    # variable node: either side pins the value
    dx, du = _resolve(kl | kr, vr | (from_left & ~kr), half, base + half, frozen, forced)
    return (cx ^ dx) | (dx << half), cu | (du << half)


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
    try:
        _, u_hat = _resolve(
            _to_mask(~mask),
            _to_mask(~mask & (y == 1)),
            size,
            0,
            _to_mask(is_frozen),
            _to_mask(template),
        )
    except _Unresolved as stop:
        return DecodeResult(info_bits=None, first_failure=stop.position + 1)
    info_bits = [u_hat >> i & 1 for i in info_pos.tolist()]
    return DecodeResult(info_bits=np.array(info_bits, dtype=np.int8))


def _resolution_profile(known: np.ndarray) -> np.ndarray:
    """Which inputs resolve, given each earlier input as decoded correctly.

    known: C-contiguous (..., 2**n) array, True (or a set bit) where the
    symbol arrived; overwritten with the result, which is also returned.
    The worse-side input of a pair needs both observations; once it is
    supplied, the better side needs either.  Equivalent to running
    sc_decode_bec without the early abort, but vectorized across leading
    axes.  The AND/OR butterfly runs lane by lane, so a bool array profiles
    one pattern per row and a uint64 array 64 bit-sliced patterns per word.
    """
    if not known.flags.c_contiguous:
        raise ValueError("profile input must be C-contiguous")
    half = known.shape[-1] // 2
    while half:
        pairs = known.reshape(-1, 2, half)
        worse, better = pairs[:, 0], pairs[:, 1]
        both = worse & better
        better |= worse
        worse[...] = both
        half //= 2
    return known


def exact_block_error(spec: CodeSpec, root: RootChannel) -> float:
    """Block error probability by full erasure-pattern enumeration.

    Runs the real decoder on each of the 2**(2**n) patterns and weights by
    z0**erased * (1-z0)**received, summed with compensation.  Failure is
    pattern-determined, so the per-popcount failure counts are exact
    integers and the only rounding is in the final weighting.
    """
    if spec.n > EXACT_ENUM_MAX_LEVEL:
        raise LevelTooLargeError(
            f"exact enumeration is limited to n <= {EXACT_ENUM_MAX_LEVEL}"
        )
    z0 = root.z0
    size = 1 << spec.n
    if len(spec) == 0:
        return 0.0
    # the all-zero codeword with every frozen input zero
    full = (1 << size) - 1
    is_frozen = np.ones(size, dtype=bool)
    is_frozen[spec.indices.astype(np.int64) - 1] = False
    frozen = _to_mask(is_frozen)
    fail_by_received = [0] * (size + 1)
    for pattern in range(1 << size):
        try:
            _resolve(full ^ pattern, 0, size, 0, frozen, 0)
        except _Unresolved:
            fail_by_received[size - pattern.bit_count()] += 1
    terms = [
        count * z0 ** (size - k) * (1.0 - z0) ** k
        for k, count in enumerate(fail_by_received)
        if count
    ]
    return math.fsum(terms)


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z95) -> tuple[float, float]:
    """Score confidence interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= errors <= trials:
        raise ValueError("errors must lie in [0, trials]")
    p = errors / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials * trials)) / denom
    # the score interval contains p by construction; rounding must not undo that
    return min(p, max(0.0, center - half)), max(p, min(1.0, center + half))


@dataclass(frozen=True)
class SimResult:
    """Monte-Carlo tally; batches holds (errors, trials) per processed chunk."""

    trials: int
    block_errors: int
    batches: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.block_errors <= self.trials:
            raise ValueError("error count outside [0, trials]")

    @property
    def estimate(self) -> float:
        return self.block_errors / self.trials

    @property
    def wilson_ci95(self) -> tuple[float, float]:
        return wilson_interval(self.block_errors, self.trials)


def simulate(
    spec: CodeSpec, root: RootChannel, trials: int, seed: int, *, batch: int = 4096
) -> SimResult:
    """Monte-Carlo block error rate at erasure rate z0.

    The all-zero codeword is transmitted; on a symmetric channel under SC
    the failure event depends only on the erasure pattern, so this loses no
    generality.  seed must lie in [0, 2**64).

    Trial t reads the 4*B raw words of np.random.Philox(key=seed,
    counter=t*B), with B = ceil(2**n / 4), and uses the first 2**n of them:
    position i is erased iff (raw[i] >> 11) < ceil(z0 * 2**53), which is
    Generator.random() < z0 bit for bit.  Each batch opens that stream once
    at its first trial, so the tally is independent of batching.  Tallies
    for a given seed differ from polarbec 0.1.0, which keyed one Philox
    per trial.

    Failures are detected with the resolution profile, which agrees with
    sc_decode_bec by construction (and by test), run bit-sliced on 64
    trials per uint64 word.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if batch < 1:
        raise ValueError("batch must be positive")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    size = 1 << spec.n
    blocks = -(-size // 4)  # Philox counter steps per trial, four raw words each
    threshold = np.uint64(math.ceil(root.z0 * 2.0**53))
    info_pos = spec.indices.astype(np.int64) - 1
    total = 0
    batches: list[tuple[int, int]] = []
    for start in range(0, trials, batch):
        count = min(batch, trials - start)
        bitgen = np.random.Philox(key=seed, counter=start * blocks)
        # bit r of words[w, i] is position i of trial start + 64 * w + r
        words = np.zeros((-(-count // 64), size), dtype="<u8")
        word_bytes = words.view(np.uint8).reshape(*words.shape, 8)
        for w in range(words.shape[0]):
            rows = min(64, count - 64 * w)
            raw = bitgen.random_raw(rows * 4 * blocks)
            known = (raw.reshape(rows, -1)[:, :size] >> 11) >= threshold
            packed = np.packbits(known, axis=0, bitorder="little")
            word_bytes[w, :, : packed.shape[0]] = packed.T
        resolved = _resolution_profile(words)
        failed = np.bitwise_or.reduce(~resolved[:, info_pos], axis=1)
        # bits past the batch's last trial are padding
        failed[-1] &= np.uint64((1 << (count - 64 * (words.shape[0] - 1))) - 1)
        failures = int(np.bitwise_count(failed).sum())
        total += failures
        batches.append((failures, count))
    return SimResult(trials=trials, block_errors=total, batches=tuple(batches))
