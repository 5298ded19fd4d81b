"""Exact and Monte-Carlo block error of successive-cancellation decoding.

An erasure pattern marks the codeword positions lost.  Input position i
feeds the synthetic channel with index j = i + 1: the first half of the
input block rides the worse subtree.

On the BEC the decoder never guesses, so whether a block decodes depends on
the erasure pattern alone: it fails where the resolution profile, which
inputs resolve given each earlier input as decoded correctly, leaves a
selected input unresolved.  Both routes run that one rule, bit-sliced over
64 patterns per uint64 word and profiled in cache-sized pieces of 2**15
words (256 KiB).  simulate() draws its trials bit-sliced the same way: one
raw Philox word decides one bit of the Knuth-Yao comparison for 64 trials,
about 8.5 words per 64 trial positions, on up to two threads (its
docstring states the stream).  The run is profiled in slabs of whole
64-trial word rows, about 2**18 words or one row, and the profile's own
scratch is half a piece whatever the slab, so the memory the run holds
besides the tally depends on n alone.  exact_block_error() profiles all
2**(2**n) patterns of a code at n <= 4 in one table.  The message-passing
decoder that the profile stands for is a test oracle, independent of this
module, and the tests check both routes against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .construction import CodeSpec
from .erasure import RootChannel
from .errors import LevelTooLargeError, _check_memory, _run_chunks, _worker_count

# two-sided 95% normal quantile
WILSON_Z95 = 1.959963984540054

# exact_block_error profiles all 2**(2**n) erasure patterns at once
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
# exact_block_error's first six columns: lane l is set in column t where
# bit t of l is
_LANE_COLUMNS = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)


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
    message-passing decoder on every input without the early abort, but
    vectorized across leading axes.  The AND/OR butterfly runs
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


def _failed_lanes(resolved: np.ndarray, indices: np.ndarray, cols: int) -> np.ndarray:
    """The lanes of each row of a bit-sliced profile whose pattern fails: a
    pattern fails where some info position is unresolved.  indices are the
    code's 1-based channel indices, converted to positions and gathered
    cols at a time, so no copy of the whole column is held."""
    ok = np.full(len(resolved), _ALL_LANES)
    for k in range(0, len(indices), cols):
        info_pos = indices[k : k + cols].astype(np.int64) - 1
        ok &= np.bitwise_and.reduce(resolved[:, info_pos], axis=1)
    return ~ok


def exact_block_error(spec: CodeSpec, root: RootChannel) -> float:
    """Block error probability by full erasure-pattern enumeration.

    Sends the all-zero codeword, so a pattern fails exactly where the
    resolution profile leaves a selected input unresolved.  All 2**(2**n)
    patterns are profiled at once, bit-sliced as simulate's trials are:
    pattern p is lane p % 64 of word row p // 64, and bit t of p marks
    position t received.  Column t < 6 of every row is thus the lane mask
    _LANE_COLUMNS[t], and column t >= 6 of row w is all ones or all zeros by
    bit t - 6 of w; at n <= 2 the lanes from 2**(2**n) on are padding, and
    are dropped.  The failures are counted per received count, weighted by
    z0**erased * (1-z0)**received and summed with compensation.  Failure is
    pattern-determined, so those counts are exact integers and the only
    rounding is in the final weighting.  The table is 128 KiB at n = 4, and
    the traced peak about 0.5 MiB.
    """
    if spec.n > EXACT_ENUM_MAX_LEVEL:
        raise LevelTooLargeError(
            f"exact enumeration is limited to n <= {EXACT_ENUM_MAX_LEVEL}"
        )
    z0 = root.z0
    size = 1 << spec.n
    if len(spec) == 0:
        return 0.0
    patterns = 1 << size
    rows = -(-patterns // 64)
    known = np.empty((rows, size), dtype=np.uint64)
    known[:, :6] = np.array(_LANE_COLUMNS[:size], dtype=np.uint64)
    row = np.arange(rows, dtype=np.uint64)
    for t in range(6, size):
        known[:, t] = (row >> (t - 6) & 1) * _ALL_LANES
    lanes = _failed_lanes(_resolution_profile(known), spec.indices, size)
    failed = np.unpackbits(lanes.astype("<u8").view(np.uint8), bitorder="little")[:patterns]
    # one count per received value: bincount would take an intp copy, 8
    # bytes a failed pattern
    received = np.bitwise_count(np.arange(patterns, dtype=np.uint32))[failed.view(bool)]
    fail_by_received = [int(np.count_nonzero(received == k)) for k in range(size + 1)]
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
    is bit-identical to a level-by-level butterfly.  A trial fails by the
    rule exact_block_error applies to every pattern (_failed_lanes).
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
        failed = np.append(_failed_lanes(resolved, spec.indices, cols), np.uint64(0))
        at = np.cumsum(np.bitwise_count(failed), dtype=np.int64)  # failures up to each row
        # the slab's failed bits below each edge; bits past the run's last
        # trial are padding, above every edge
        row, bit = np.divmod(np.clip(edges - 64 * r0, 0, 64 * len(words)), 64)
        below += at[row] - np.bitwise_count(failed[row] >> bit.astype(np.uint64))
    del row, bit  # the last slab's divmod columns, before the tally is built
    batches = np.column_stack((np.diff(below), np.diff(edges)))
    return SimResult(trials=trials, block_errors=int(below[-1]), batches=batches)
