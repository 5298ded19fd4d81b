"""Butterfly encoding, successive-cancellation decoding, and simulation.

Bits travel as int8 arrays; an erasure pattern is a bool array, True where
the symbol was lost.  Input position i of the encoder feeds the synthetic
channel with index j = i + 1: the first half of the input block rides the
worse subtree.  Inside the decoder a block is a pair of Python-int
bitmasks, known and value, with bit t standing for position t.

On the BEC the decoder never guesses, so whether a block decodes depends on
the erasure pattern alone.  simulate() exploits that through a vectorized
resolution profile, bit-sliced over 64 trials per uint64 word, fed by one
counter-based Philox stream that each chunk of trials opens at its first
trial, on up to two threads (its docstring states the stream).  Each batch
is profiled in slabs of whole 64-trial word rows, about 2**19 words or one
row, and a chunk reads its stream in pieces of about 2**16 raw words, so
the memory a run holds depends on n alone, not on the batch.
exact_block_error() deliberately does not, running the actual
message-passing decoder on every pattern so the two stay independent; it
memoizes subtree outcomes for one enumeration by (known, value, width,
base), never the root's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .construction import CodeSpec
from .erasure import RootChannel
from .errors import (
    DecodingInconsistencyError,
    LevelTooLargeError,
    _check_memory,
    _run_chunks,
    _worker_count,
)

# two-sided 95% normal quantile
WILSON_Z95 = 1.959963984540054

# exact_block_error enumerates 2**(2**n) patterns
EXACT_ENUM_MAX_LEVEL = 4

# raw Philox words one simulate chunk reads at most, unless 8 trials need more
_DRAW_WORDS = 1 << 19
# words of the bit-sliced table profiled at once, unless one row needs more
_SLAB_WORDS = 1 << 19
# raw Philox words drawn and compared at once
_PIECE_WORDS = 1 << 16


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
    known: int, value: int, width: int, base: int, frozen: int, forced: int,
    memo: dict | None,
) -> tuple[int, int]:
    """Decode the subtree whose inputs are channels base .. base + width - 1.

    known, value: bitmasks over the subtree's codeword-domain block, bit t
    for offset t; value bits are zero outside known.  frozen, forced:
    bitmasks over the whole code's input positions, marking the frozen
    channels and their values.  memo: outcomes of the child subtrees, valid
    for one (frozen, forced) pair (see _subtree), or None to decode every
    child afresh.  Returns the re-encoded block and the decided inputs,
    both as bitmasks over the subtree.
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
    child = _resolve if memo is None else _subtree
    # check node: parity known only when both halves are
    cx, cu = child(both, (vl ^ vr) & both, half, base, frozen, forced, memo)
    from_left = (vl ^ cx) & kl
    conflict = both & (from_left ^ vr)
    if conflict:
        t = (conflict & -conflict).bit_length() - 1
        raise DecodingInconsistencyError(f"inconsistent pair at codeword offset {t}")
    # variable node: either side pins the value
    dx, du = child(kl | kr, vr | (from_left & ~kr), half, base + half, frozen, forced, memo)
    return (cx ^ dx) | (dx << half), cu | (du << half)


def _subtree(
    known: int, value: int, width: int, base: int, frozen: int, forced: int, memo: dict
) -> tuple[int, int]:
    """_resolve, looked up in memo by (known, value, width, base) first.

    memo holds the result pair, or the unresolved position as an int, which
    is raised again on a hit.  Inconsistencies are never stored: they end
    the whole decode.
    """
    key = (known, value, width, base)
    out = memo.get(key)
    if out is None:
        try:
            out = _resolve(known, value, width, base, frozen, forced, memo)
        except _Unresolved as stop:
            out = stop.position
        memo[key] = out
    if isinstance(out, int):
        raise _Unresolved(out)
    return out


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
            None,  # each subtree state occurs once in one decode: no memo
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
    scratch = np.empty(known.size // 2, dtype=known.dtype)  # one half table, reused
    while half:
        pairs = known.reshape(-1, 2, half)
        worse, better = pairs[:, 0], pairs[:, 1]
        both = np.bitwise_and(worse, better, out=scratch.reshape(worse.shape))
        better |= worse
        worse[...] = both
        half //= 2
    return known


def exact_block_error(spec: CodeSpec, root: RootChannel) -> float:
    """Block error probability by full erasure-pattern enumeration.

    Runs the real decoder on each of the 2**(2**n) patterns and weights by
    z0**erased * (1-z0)**received, summed with compensation.  Failure is
    pattern-determined, so the per-popcount failure counts are exact
    integers and the only rounding is in the final weighting.  Below the
    root, subtree outcomes are memoized for this one enumeration by
    (known, value, width, base), so each distinct subtree state is decoded
    once; the root itself is decoded afresh for every pattern and never
    stored.  The resolution profile is never read.
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
    memo: dict = {}
    for pattern in range(1 << size):
        try:
            _resolve(full ^ pattern, 0, size, 0, frozen, 0, memo)
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
    """Monte-Carlo tally; batches holds (errors, trials) per batch of trials,
    in trial order: the rows of simulate's CSV."""

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


def _piece_shape(stride: int) -> tuple[int, int]:
    """Trials one draw piece holds, and raw words it reads of each, for
    trials of stride raw words.

    Whole trials where they fit: a multiple of 8, or a power of two below 8,
    so that a piece's trials fill whole byte rows or share one.  Else one
    trial, read _PIECE_WORDS words (one 4-word Philox block at least) at a
    time.
    """
    per_piece = max(1, _PIECE_WORDS // stride)
    return per_piece & -8 or 1 << per_piece.bit_length() - 1, min(stride, max(_PIECE_WORDS, 4))


def _draw_chunk(
    planes: np.ndarray, seed: int, limit: np.uint64 | None, first: int, lo: int, rows: int
) -> None:
    """Draw trials first .. first + rows - 1 into the slab's byte planes.

    planes[w, b, i] is byte b of the slab's word w at position i; its bit r
    is trial 8 * (8 * w + b) + r of the slab, and lo is the slab offset of
    trial first.  Trial t reads the stream simulate() documents, from
    counter t * B, in the pieces that _piece_shape() sets.  Position i is known
    where its raw word is at least limit; limit None (z0 = 1) erases every
    position, so nothing is drawn.  The chunk's buffers are private and it
    writes only its own bytes, so chunks may run on parallel threads.
    """
    size = planes.shape[2]
    stride = 4 * -(-size // 4)  # raw words a trial reads
    # byte row k holds trials 8k .. 8k + 7 of the chunk, trial 8k + r in bit r
    packed = np.zeros((-(-rows // 8), size), dtype=np.uint8)
    if limit is not None:
        bitgen = np.random.Philox(key=seed, counter=first * stride // 4)
        per_piece, width = _piece_shape(stride)
        group = min(per_piece, 8)  # trials of a piece that share a byte row
        for t in range(0, rows, per_piece):
            count = min(per_piece, rows - t)
            shifts = np.arange(t % 8, t % 8 + group, dtype=np.uint8)[:, None]
            for i in range(0, stride, width):
                raw = bitgen.random_raw(count * min(width, stride - i)).reshape(count, -1)
                used = min(raw.shape[1], size - i)  # n <= 1 uses part of a block
                known = np.zeros((-(-count // group) * group, used), dtype=bool)
                np.greater_equal(raw[:, :used], limit, out=known[:count])
                del raw
                bits = known.view(np.uint8).reshape(-1, group, used)
                bits <<= shifts
                k = t // 8
                packed[k : k + len(bits), i : i + used] |= np.bitwise_or.reduce(bits, axis=1)
    w, b = divmod(lo // 8, 8)
    full, tail = divmod(len(packed), 8)
    planes[w : w + full] = packed[: 8 * full].reshape(full, 8, size)
    if tail:
        planes[w + full, b : b + tail] = packed[8 * full :]


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
    Generator.random() < z0 bit for bit.  Each batch is profiled in slabs
    of whole 64-trial word rows, at most about 2**19 words or one row.  A
    slab is cut into chunks of at most about 2**19 raw words, and each
    chunk opens that stream at its first trial and reads it in pieces of at
    most about 2**16 raw words, so the tally is independent of batch, slab,
    chunk and piece size and worker count, and the memory held is
    independent of batch.  A slab's chunks are drawn through _run_chunks,
    on one thread per CPU in the process's affinity mask, at most two, the
    calling thread among them, and fewer where the memory budget cannot
    hold their buffers.

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
    stride = 4 * -(-size // 4)  # raw words a trial reads, four per Philox counter step
    # A chunk is a power-of-two share of a word or a whole number of words,
    # so it never straddles a word; slabs are whole words, and their chunks
    # are cut from each slab's start, so no chunk straddles a slab either.
    per_byte = max(1, _DRAW_WORDS // (8 * stride))
    chunk = 64 * (per_byte // 8) or 8 << per_byte.bit_length() - 1
    first = min(batch, trials)
    slab = min(-(-first // 64), max(1, _SLAB_WORDS // size))  # word rows profiled at once
    span = min(first, 64 * slab)
    rows = min(chunk, span)
    # info positions whose rows are gathered at once by the failure reduction
    cols = max(1, _PIECE_WORDS // slab)
    # The slab's word table and the larger of the profile's half table and
    # the failure reduction (its gather, one index piece and two tally
    # rows); beside them, per worker, three times its chunk's packed byte
    # rows and one piece (raw words, their compare and its packed rows),
    # because a worker's freed buffers stay in its malloc arena while the
    # profile runs.  Workers the budget cannot hold are dropped, so more
    # CPUs never refuse a run that one CPU would take.
    table = 8 * slab * size
    reduction = 8 * ((slab + 2) * min(cols, len(spec)) + 2 * slab)
    per_piece, width = _piece_shape(stride)
    piece = min(rows, per_piece) * width
    per_worker = 3 * (-(-rows // 8) * size + 10 * piece)
    base = table + max(table // 2, reduction)
    room = (errors._memory_budget() - base) // per_worker
    workers = max(1, min(_worker_count(), -(-span // chunk), room))
    need = base + workers * per_worker
    _check_memory(need, f"simulate at n={spec.n}, {64 * slab} trials a slab")
    # raw >> 11 >= T iff raw >= T << 11, which fits 64 bits unless T = 2**53
    threshold = math.ceil(root.z0 * 2.0**53)
    limit = np.uint64(threshold << 11) if threshold < 1 << 53 else None
    total = 0
    batches: list[tuple[int, int]] = []
    for start in range(0, trials, batch):
        count = min(batch, trials - start)
        failures = 0
        for lo in range(start, start + count, 64 * slab):
            part = min(64 * slab, start + count - lo)
            # bit r of words[w, i] is position i of trial lo + 64 * w + r
            words = np.zeros((-(-part // 64), size), dtype="<u8")
            planes = words.view(np.uint8).reshape(*words.shape, 8).transpose(0, 2, 1)
            chunks = [(lo + c, c, min(chunk, part - c)) for c in range(0, part, chunk)]
            _run_chunks(lambda *c: _draw_chunk(planes, seed, limit, *c), chunks, workers)
            resolved = _resolution_profile(words)
            # a trial fails where some info position is unresolved
            ok = np.full(len(words), np.iinfo(np.uint64).max, dtype=np.uint64)
            for k in range(0, len(spec), cols):
                info_pos = spec.indices[k : k + cols].astype(np.int64) - 1
                ok &= np.bitwise_and.reduce(resolved[:, info_pos], axis=1)
            failed = ~ok
            # bits past the slab's last trial are padding
            failed[-1] &= np.uint64((1 << (part - 64 * (len(words) - 1))) - 1)
            failures += int(np.bitwise_count(failed).sum())
            del words, planes, resolved  # free this slab before the next
        total += failures
        batches.append((failures, count))
    return SimResult(trials=trials, block_errors=total, batches=tuple(batches))
