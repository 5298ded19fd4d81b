"""Exact and Monte-Carlo block error of successive-cancellation decoding.

An erasure pattern marks the codeword positions lost.  Input position i
feeds the synthetic channel with index j = i + 1: the first half of the
input block rides the worse subtree.  The decoder's core, _resolve, holds a
block as a pair of Python-int bitmasks, known and value, with bit t
standing for position t.  It returns the re-encoded block and the decided
inputs, or, when a selected input stays unknown, that input's position as
a plain int; only a received value that contradicts a frozen input raises
(DecodingInconsistencyError).

On the BEC the decoder never guesses, so whether a block decodes depends on
the erasure pattern alone.  simulate() exploits that through a vectorized
resolution profile, bit-sliced over 64 trials per uint64 word and run in
cache-sized pieces of 2**15 words (256 KiB), and a draw bit-sliced the
same way: one raw Philox word decides one bit of the Knuth-Yao comparison
for 64 trials, about 8.5 words per 64 trial positions, on up to two
threads (its docstring states the stream).  The run is profiled in slabs
of whole 64-trial word rows, about 2**18 words or one row, and the
profile's own scratch is half a piece whatever the slab, so the memory the
run holds besides the tally depends on n alone.
exact_block_error() deliberately does not, running the actual
message-passing decoder so the two stay independent: once for each class
of patterns that the root's own rule cannot tell apart, 3**(2**(n-1)) in
all, weighting each failure by its class's pattern count.  It memoizes
subtree outcomes for one enumeration by (known, value, width, base), never
the root's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

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

# exact_block_error covers 2**(2**n) patterns, in 3**(2**(n-1)) root classes
EXACT_ENUM_MAX_LEVEL = 4

# words of one draw group, the unit of simulate's stream at every n
_GROUP_WORDS = 1 << 16
# draw rounds that read a word for every word of a group
_DENSE_ROUNDS = 8
# words of the bit-sliced table profiled at once, unless one row needs more
_SLAB_WORDS = 1 << 18
# elements of the resolution profile's cache blocks, a power of two: 256 KiB
# of uint64 words
_PROFILE_WORDS = 1 << 15
# the least half that a profile level runs as one (..., 2, half) view
_LANE_HALF = 16
# elements of numpy's ufunc buffers while the profile's (..., 2, half) views
# run: numpy buffers a two-dimensional operand whose rows are shorter than
# about half its buffer size, which at the default 8192 doubled the cost of
# halves 32 to 2048 (numpy 2.4)
_PROFILE_BUFFER = 512
_ALL_LANES = np.uint64(2**64 - 1)


def _to_mask(bits: np.ndarray) -> int:
    """Bit t of the result is bits[t]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _resolve(
    known: int, value: int, width: int, base: int, frozen: int, forced: int, memo: dict
) -> tuple[int, int] | int:
    """Decode the subtree whose inputs are channels base .. base + width - 1.

    known, value: bitmasks over the subtree's codeword-domain block, bit t
    for offset t; value bits are zero outside known.  frozen, forced:
    bitmasks over the whole code's input positions, marking the frozen
    channels and their values.  memo: outcomes of the child subtrees, valid
    for one (frozen, forced) pair (see _subtree).  One decode visits each
    (width, base) once, so a fresh dict never hits.  Returns the re-encoded
    block and the decided inputs, both as bitmasks over the subtree, or,
    where a selected input stays unknown, the position of the first such
    input as a plain int (0 is a position, so test the outcome's type, not
    its truth).
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
            return base
        return value, value
    half = width >> 1
    low = (1 << half) - 1
    kl, kr = known & low, known >> half
    vl, vr = value & low, value >> half
    both = kl & kr
    # check node: parity known only when both halves are
    out = _subtree(both, (vl ^ vr) & both, half, base, frozen, forced, memo)
    if isinstance(out, int):
        return out
    cx, cu = out
    from_left = (vl ^ cx) & kl
    conflict = both & (from_left ^ vr)
    if conflict:
        t = (conflict & -conflict).bit_length() - 1
        raise DecodingInconsistencyError(f"inconsistent pair at codeword offset {t}")
    # variable node: either side pins the value
    out = _subtree(kl | kr, vr | (from_left & ~kr), half, base + half, frozen, forced, memo)
    if isinstance(out, int):
        return out
    dx, du = out
    return (cx ^ dx) | (dx << half), cu | (du << half)


def _subtree(
    known: int, value: int, width: int, base: int, frozen: int, forced: int, memo: dict
) -> tuple[int, int] | int:
    """_resolve, looked up in memo by (known, value, width, base) first.

    memo holds whatever _resolve returned, the pair or the unresolved
    position.  Inconsistencies are never stored: they end the whole decode.
    """
    key = (known, value, width, base)
    out = memo.get(key)
    if out is None:
        out = memo[key] = _resolve(known, value, width, base, frozen, forced, memo)
    return out


def _pair_up(worse: np.ndarray, better: np.ndarray, scratch: np.ndarray) -> None:
    """One butterfly step in place: worse becomes worse & better, and better
    worse | better; scratch holds at least worse.size elements."""
    both = np.bitwise_and(worse, better, out=scratch[: worse.size].reshape(worse.shape))
    better |= worse
    worse[...] = both


def _resolution_profile(known: np.ndarray) -> np.ndarray:
    """Which inputs resolve, given each earlier input as decoded correctly.

    known: C-contiguous (..., 2**n) array, True (or a set bit) where the
    symbol arrived; overwritten with the result, which is also returned.
    The worse-side input of a pair needs both observations; once it is
    supplied, the better side needs either.  Equivalent to running the
    message-passing decoder (_resolve) on every input without the early
    abort, but vectorized across leading axes.  The AND/OR butterfly runs
    lane by lane, so a bool array profiles one pattern per row and a
    uint64 array 64 bit-sliced patterns per word.

    The butterfly is cache-blocked over the flat array in pieces of
    _PROFILE_WORDS elements (a power of two), with one scratch of half a
    piece.  A level whose pairs span more than a piece runs over slices of
    half a piece of each pair's two halves.  Once pairs fit in a piece,
    every remaining level runs on one piece before the next, so the piece
    stays in cache.  Below half = _LANE_HALF a level runs as half strided
    lanes, whose inner loops are long, rather than as a (..., 2, half)
    view, whose inner loop is half elements long.  The in-piece levels run
    with numpy's ufunc buffers cut to _PROFILE_BUFFER elements, restored on
    return.  AND and OR are exact, so the order of the pieces does not
    change the result.
    """
    if not known.flags.c_contiguous:
        raise ValueError("profile input must be C-contiguous")
    flat = known.reshape(-1)
    half = known.shape[-1] // 2
    piece = _PROFILE_WORDS
    scratch = np.empty(min(piece, flat.size) // 2, dtype=known.dtype)
    step = piece // 2
    while 2 * half > piece:  # pairs span more than a piece
        for start in range(0, flat.size, 2 * half):
            for i in range(start, start + half, step):
                _pair_up(flat[i : i + step], flat[i + half : i + half + step], scratch)
        half //= 2
    # every pair lies in one piece, since a piece is a multiple of its span
    with np.errstate():  # restores numpy's buffer size on exit
        np.setbufsize(_PROFILE_BUFFER)
        for start in range(0, flat.size, piece):
            block = flat[start : start + piece]
            h = half
            while h >= _LANE_HALF:
                pairs = block.reshape(-1, 2, h)
                _pair_up(pairs[:, 0], pairs[:, 1], scratch)
                h //= 2
            while h:
                for o in range(h):
                    _pair_up(block[o :: 2 * h], block[o + h :: 2 * h], scratch)
                h //= 2
    return known


def _root_classes(size: int) -> Iterator[tuple[int, int, int]]:
    """The erasure patterns of a size-position block that the root's decode
    cannot tell apart when every value is 0, as (known, received, patterns).

    The check node sees the halves kl, kr only through both = kl & kr and
    the variable node only through either = kl | kr, so a class is a pair
    both <= either (as submask), and known = either | both << half stands
    for its 2**(|either| - |both|) patterns, each of |both| + |either|
    received positions.  A single position has no halves: each of its two
    patterns is its own class.
    """
    if size == 1:
        yield from ((0, 0, 1), (1, 1, 1))
        return
    half = size >> 1
    for either in range(1 << half):
        both = either
        while True:  # every submask of either, down to 0
            split = either.bit_count() - both.bit_count()
            yield either | both << half, both.bit_count() + either.bit_count(), 1 << split
            if not both:
                break
            both = (both - 1) & either


def exact_block_error(spec: CodeSpec, root: RootChannel) -> float:
    """Block error probability by full erasure-pattern enumeration.

    Sends the all-zero codeword with every frozen input zero, so every
    value the decoder sees is 0, and the root's check and variable nodes
    see the halves only through their AND and their OR.  The 2**(2**n)
    patterns thus fall into 3**(2**(n-1)) root classes (see _root_classes;
    n = 0 has no halves, and its two patterns are their own classes).  The
    real decoder runs once on one pattern of each class, and a class fails
    whole when the decoder returns an unresolved position (an int) rather
    than a decoded pair; no exception is raised or caught per class.  The
    failures are counted per received count, weighted by z0**erased *
    (1-z0)**received and summed with compensation.  Failure is
    pattern-determined, so those counts are exact integers and the only
    rounding is in the final weighting.  Below the root, subtree outcomes,
    pairs and positions alike, are memoized for this one enumeration by
    (known, value, width, base), so each distinct subtree state is decoded
    once; the root itself is decoded afresh for every class and never
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
    is_frozen = np.ones(size, dtype=bool)
    is_frozen[spec.indices.astype(np.int64) - 1] = False
    frozen = _to_mask(is_frozen)
    fail_by_received = [0] * (size + 1)
    memo: dict = {}
    for known, received, patterns in _root_classes(size):
        if isinstance(_resolve(known, 0, size, 0, frozen, 0, memo), int):
            fail_by_received[received] += patterns
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
    """Monte-Carlo tally; batches is an int64 array of (errors, trials) rows,
    one per batch of trials, in trial order: the rows of simulate's CSV."""

    trials: int
    block_errors: int
    batches: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.block_errors <= self.trials:
            raise ValueError("error count outside [0, trials]")

    @property
    def estimate(self) -> float:
        return self.block_errors / self.trials

    @property
    def wilson_ci95(self) -> tuple[float, float]:
        return wilson_interval(self.block_errors, self.trials)


def _draw_group(known: np.ndarray, seed: int, digits: str, group: int) -> None:
    """Draw into known the first len(known) words of draw group `group`, as
    known lanes, by the stream simulate() documents; digits holds the bits
    of c, most significant first, up to its last set bit.  Each call writes
    only its own words, so groups may run on parallel threads.
    """
    known.fill(_ALL_LANES)
    undecided = np.full(len(known), _ALL_LANES)
    where = slice(None)  # the words that undecided holds
    for k, bit in enumerate(digits):
        if k >= _DENSE_ROUNDS:
            keep = undecided != 0
            where = np.flatnonzero(keep) if k == _DENSE_ROUNDS else where[keep]
            undecided = undecided[keep]
            if not undecided.size:
                break
        raw = np.random.Philox(key=seed, counter=[0, 0, k, group]).random_raw(len(undecided))
        raw &= undecided  # lanes whose bit of U equals 1
        undecided ^= raw  # lanes whose bit of U is 0
        if bit == "1":
            known[where] ^= undecided  # U's 0 under c's 1: U < c, erased
            undecided = raw
        del raw  # before the next round draws


def simulate(
    spec: CodeSpec, root: RootChannel, trials: int, seed: int, *, batch: int = 4096
) -> SimResult:
    """Monte-Carlo block error rate at erasure rate z0.

    The all-zero codeword is transmitted; on a symmetric channel under SC
    the failure event depends only on the erasure pattern, so this loses no
    generality.  seed must lie in [0, 2**64).

    Word row * 2**n + i holds position i of trials 64 * row .. 64 * row +
    63, trial 64 * row + l in bit l.  A position is erased with probability
    exactly c / 2**53, c = ceil(z0 * 2**53), as by Generator.random() < z0:
    round k compares bit k of a uniform U with bit k of c, most significant
    first (Knuth and Yao), for 64 lanes at once from one raw word r.  With u
    the lanes still undecided, a set bit of c erases u & ~r and keeps u & r,
    a clear one keeps u & ~r; lanes undecided after c's last set bit are not
    erased.  Round k of group g, words g * 2**16 .. (g + 1) * 2**16 - 1 at
    every n, reads np.random.Philox(key=seed, counter=[0, 0, k, g]): in
    rounds below 8 the word at each word's offset, later one word per word
    with a lane still undecided, in word order.  So a run's first T trials
    fail exactly where a T-trial run's do.

    The run is profiled in slabs of whole rows and groups, at most about
    2**18 words or one row, and the profile works in pieces with a fixed
    scratch of half a piece, so its memory besides the tally (a row per
    batch) is about one slab and depends on n alone.  A slab's groups are
    drawn through _run_chunks, on one thread per CPU in the process's
    affinity mask, at most two, the calling thread among them, and fewer
    where the memory budget cannot hold their buffers.  batch only splits
    the tally: the tally is independent of batch, slab and worker count.

    Failures are detected with the resolution profile, which agrees with
    the message-passing decoder by construction (and by test), run
    bit-sliced on 64 trials per uint64 word and cache-blocked; its result
    is bit-identical to a level-by-level butterfly.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if batch < 1:
        raise ValueError("batch must be positive")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    size = 1 << spec.n
    rows = -(-trials // 64)  # word rows of the run
    # A slab is whole rows and whole groups, so it starts on a group edge.
    unit = max(size, _GROUP_WORDS)
    slab = min(rows, unit * max(1, _SLAB_WORDS // unit) // size)  # rows profiled at once
    # info positions whose rows are gathered at once by the failure reduction
    cols = max(1, _GROUP_WORDS // slab)
    # The slab's word table and the larger of the profile's working set and
    # the failure reduction (its gather, one index piece, two tally rows and
    # the slab's prefix counts).  The profile holds a scratch of half a
    # piece, numpy's buffers for its two-dimensional levels (three operands
    # of _PROFILE_BUFFER elements) and the iterator's own state and views
    # (about 2.4 KiB traced, counted as 4 KiB).  Beside them, per worker,
    # three times a draw's two group-sized buffers, because a worker's freed
    # buffers stay in its malloc arena while the profile runs.  Workers the
    # budget cannot hold are dropped, so more CPUs never refuse a run that
    # one CPU would.
    # The tally holds about 58 bytes a batch at batch 1 (tracemalloc): the
    # edge and count columns, the divmod columns and the failed-bit count's
    # temporaries over them; the (errors, trials) array is made after the
    # divmod columns are freed.
    table = 8 * slab * size
    reduction = 8 * ((slab + 2) * min(cols, len(spec)) + 4 * slab)
    per_worker = 3 * 16 * min(_GROUP_WORDS, slab * size)
    tally = 64 * (-(-trials // batch) + 1)
    profile = 8 * (_PROFILE_WORDS // 2 + 3 * _PROFILE_BUFFER) + 4096
    base = table + max(profile, reduction) + tally
    room = (errors._memory_budget() - base) // per_worker
    workers = max(1, min(_worker_count(), -(-slab * size // _GROUP_WORDS), room))
    need = base + workers * per_worker
    _check_memory(need, f"simulate at n={spec.n}, {64 * slab} trials a slab")
    threshold = math.ceil(root.z0 * 2.0**53)
    digits = f"{threshold:053b}".rstrip("0")  # c's bits past its last set bit are 0
    edges = np.append(np.arange(0, trials, batch), trials)  # each batch's first trial, and the end
    below = np.zeros(len(edges), dtype=np.int64)  # failures before each edge
    buffer = np.empty((slab, size), dtype=np.uint64)  # every slab's word table
    for r0 in range(0, rows, slab):
        # bit r of words[w, i] is position i of trial 64 * (r0 + w) + r, and
        # flat word c is word r0 * size + c of the stream
        words = buffer[: rows - r0]
        flat = words.reshape(-1)
        if threshold >> 53:  # z0 = 1 erases every position
            flat.fill(0)
        else:
            chunks = [
                (flat[c : c + _GROUP_WORDS], (r0 * size + c) // _GROUP_WORDS)
                for c in range(0, flat.size, _GROUP_WORDS)
            ]
            _run_chunks(lambda known, g: _draw_group(known, seed, digits, g), chunks, workers)
        resolved = _resolution_profile(words)
        # a trial fails where some info position is unresolved
        ok = np.full(len(words), _ALL_LANES)
        for k in range(0, len(spec), cols):
            info_pos = spec.indices[k : k + cols].astype(np.int64) - 1
            ok &= np.bitwise_and.reduce(resolved[:, info_pos], axis=1)
        failed = np.append(~ok, np.uint64(0))
        at = np.cumsum(np.bitwise_count(failed), dtype=np.int64)  # failures up to each row
        # the slab's failed bits below each edge; bits past the run's last
        # trial are padding, above every edge
        row, bit = np.divmod(np.clip(edges - 64 * r0, 0, 64 * len(words)), 64)
        below += at[row] - np.bitwise_count(failed[row] >> bit.astype(np.uint64))
    del row, bit  # the last slab's divmod columns, before the tally is built
    batches = np.column_stack((np.diff(below), np.diff(edges)))
    return SimResult(trials=trials, block_errors=int(below[-1]), batches=batches)
