"""Log-domain erasure arithmetic for synthetic BEC channels.

Synthetic channels created by the polar transform have erasure probabilities
that reach doubly exponential extremes (2**-2**k and 1 - 2**-2**k), far
outside float64 range.  Each channel therefore carries the pair

    l_era = -log2(Z)        bits of erasure suppression
    l_rel = -log2(1 - Z)    bits of reliability suppression

redundantly.  The two one-step transforms are exact on one field each:

    worse  child:  1 - Z' = (1 - Z)**2   =>  l_rel doubles exactly
    better child:  Z'' = Z**2            =>  l_era doubles exactly

and the other field is recomputed through a complement transform that stays
accurate at both ends of [0, 1].
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import _check_memory, _run_chunks, _worker_count

LN2 = math.log(2.0)

# Above this many bits the complement is replaced by its first-order
# expansion 2**-x / ln 2; the neglected quadratic term is below 2**-80.
COMPLEMENT_CUTOFF = 40.0

# From here on 2**-x rounds to 0.0 in float64 (2**-1075 is half the
# smallest subnormal and ties to even), so 1 - 2**-x is exactly 1.
_UNDERFLOW_BITS = 1075.0

# Most target-level channels that the chunks of one subtree walk hold at
# once, over all its workers: prefix subtrees of a table build, or pieces of
# the recruit subtrees in the multi-pocket train phase.  A power of two, at
# least 2.
_CHUNK_CHANNELS = 1 << 20

CACHE_MAGIC = b"PLZT"
CACHE_VERSION = 2


def complement_log2(x):
    """-log2(1 - 2**-x) for x >= 0, stable at both ends; scalar or array.

    x == 0 maps to inf (the complement event is impossible) and every
    x >= 1075, inf included, maps to 0.0, the float64 value of a
    probability indistinguishable from 1; neither calls a transcendental.
    The live rest goes through two exact branches: below 1 the expm1 form
    avoids the 1 - 2**-x cancellation; from 1 up the log1p form avoids
    taking the log of a value crowding 1.  Above COMPLEMENT_CUTOFF the
    first-order expansion is used.  Negative or NaN input stays live and
    gives NaN.  0-d input gives a float.
    """
    x = np.asarray(x, dtype=np.float64)
    zero = x == 0.0
    out = np.where(zero, np.inf, 0.0)
    live = np.flatnonzero(~(zero | (x >= _UNDERFLOW_BITS)))
    if live.size:
        v = x.reshape(-1)[live]
        r = np.empty_like(v)
        mid = (v >= 1.0) & (v <= COMPLEMENT_CUTOFF)
        big = v > COMPLEMENT_CUTOFF
        low = ~(mid | big)  # negative or NaN input lands here and gives NaN
        r[low] = -np.log(-np.expm1(-v[low] * LN2)) / LN2
        r[mid] = -np.log1p(-np.exp2(-v[mid])) / LN2
        r[big] = np.exp2(-v[big]) / LN2
        out.reshape(-1)[live] = r
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RootChannel:
    """The underlying BEC, described by its erasure probability z0."""

    z0: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.z0 <= 1.0:
            raise ValueError(f"z0 must lie in [0, 1], got {self.z0!r}")

    @property
    def capacity(self) -> float:
        return 1.0 - self.z0


def extend_log_table(
    l_era: np.ndarray, l_rel: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Expand a vector of channels ``steps`` levels down the tree.

    Children of entry i land at 2*i (worse) and 2*i + 1 (better), so each
    parent's descendants stay contiguous and the per-parent offset equals the
    extension path read as a binary number.
    """
    le = np.asarray(l_era, dtype=np.float64)
    lr = np.asarray(l_rel, dtype=np.float64)
    for _ in range(steps):
        le, lr = _children(le, lr)
    return le, lr


def _children(
    le: np.ndarray,
    lr: np.ndarray,
    with_rel: bool = True,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    # Each field doubles exactly on one side; the other side is the
    # complement of the other field's double.  The doubles are written
    # straight into the children's columns (out, when given), and the
    # complements read them there.
    if out is None:
        out = np.empty(2 * le.size), np.empty(2 * le.size) if with_rel else None
    nle, nlr = out
    two_le = np.multiply(le, 2.0, out=nle[1::2])
    two_lr = 2.0 * lr if nlr is None else np.multiply(lr, 2.0, out=nlr[0::2])
    nle[0::2] = complement_log2(two_lr)
    if nlr is None:
        return nle, None
    nlr[1::2] = complement_log2(two_le)
    return nle, nlr


def _chunk_bits(chunk: int) -> int:
    """log2 of the channels a walk chunk holds: the largest power of two in
    one worker's share of chunk, so that the chunks on every worker together
    hold at most chunk channels."""
    return max(1, chunk // _worker_count()).bit_length() - 1


def _walk_subtrees(groups, bits: int, visit=None, *, out=None) -> list[list]:
    """Expand groups of nodes to their descendants, a chunk at a time, on
    up to two threads.

    groups holds (l_era, l_rel, steps) triples.  A group's nodes are first
    expanded s = steps - t levels at once, t = min(steps, bits); each of
    those level-s rows then roots a subtree of 2**t channels.  A chunk is a
    run of rows in index order whose subtrees hold at most 2**bits channels
    together (one row where s > 0).  Chunks run through _run_chunks on
    _worker_count() threads, but on no more threads than the walk holds
    full chunks; each writes only its own channels:

    - out, when given, is two columns holding every group's descendants end
      to end, and a chunk's last doubling writes straight into its slice;
    - visit(g, a, b, le), when given, gets rows a..b-1 of group g and their
      descendants' l_era as a (b - a, 2**t) array (without out, the last
      step's l_rel is not computed).

    Returns the visit results of each group, in chunk order.
    """
    plans, chunks = [], []
    offset = 0
    for g, (le, lr, steps) in enumerate(groups):
        t = min(steps, bits)
        le, lr = extend_log_table(le, lr, steps - t)
        plans.append((le, lr, t, offset))
        offset += le.size << t
        rows = 1 << (bits - t)
        chunks += [(g, a, min(a + rows, le.size)) for a in range(0, le.size, rows)]

    def expand(g, a, b):
        le, lr, t, first = plans[g]
        le, lr = le[a:b], lr[a:b]
        dst = None if out is None else [c[first + (a << t) : first + (b << t)] for c in out]
        if t:
            le, lr = _children(
                *extend_log_table(le, lr, t - 1), with_rel=out is not None, out=dst
            )
        elif dst is not None:
            dst[0][...], dst[1][...] = le, lr
        return None if visit is None else visit(g, a, b, le.reshape(b - a, 1 << t))

    # A helper thread is started only for a full chunk of its own: its
    # start and the interpreter lock cost more than it saves on less.
    done = _run_chunks(expand, chunks, min(_worker_count(), offset >> bits))
    results = [[] for _ in plans]
    for (g, _, _), value in zip(chunks, done):
        results[g].append(value)
    return results


def level_log_table(root: RootChannel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Materialize (l_era, l_rel) for all level-n channels in index order.

    The two columns are allocated once and filled by _walk_subtrees, one
    prefix subtree a chunk, each chunk's last doubling written straight
    into its slice; so the build holds the chunks' temporaries beside its
    output.
    """
    if not 0 <= n < 64:
        raise ValueError(f"level {n} is outside [0, 64): channel indices are 64-bit")
    # both columns, and at most 32 bytes a channel of the chunks' temporaries
    _check_memory(16 * (1 << n) + 32 * min(1 << n, _CHUNK_CHANNELS), f"the level-{n} table")
    l_era = math.inf if root.z0 == 0.0 else -math.log2(root.z0)
    l_rel = math.inf if root.z0 == 1.0 else -math.log1p(-root.z0) / LN2
    out = np.empty(1 << n), np.empty(1 << n)
    root_node = (np.array([l_era]), np.array([l_rel]), n)
    _walk_subtrees([root_node], _chunk_bits(_CHUNK_CHANNELS), out=out)
    return out


# ---------------------------------------------------------------------------
# Optional on-disk cache of level tables, keyed by (z0, m): the header, then
# the l_era column and the l_rel column, each 2**m little-endian float64s.

_HEADER = struct.Struct("<4sIdI")


@contextlib.contextmanager
def _atomic_write(path: str, mode: str = "x", **open_args):
    """Open a fresh file beside path; on success rename it over path.

    A reader sees either the old file or the whole new one, never a partial
    write.  If the body or the rename fails, the temporary file is removed
    and path is left as it was.  A link, device or FIFO at path (such as
    /dev/null) is written through in place: a rename would replace it.
    """
    if os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode.replace("x", "w"), **open_args) as fh:
            yield fh
        return
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, mode, **open_args)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_level_cache(
    path: str, z0: float, m: int, l_era: np.ndarray, l_rel: np.ndarray
) -> None:
    if l_era.shape != (1 << m,) or l_rel.shape != (1 << m,):
        raise ValueError("table shape does not match level")
    with _atomic_write(path, "xb") as fh:
        fh.write(_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, z0, m))
        for column in (l_era, l_rel):
            fh.write(np.ascontiguousarray(column, dtype="<f8"))


def read_level_cache(path: str) -> tuple[float, int, np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, z0, m = _HEADER.unpack(header)
        if magic != CACHE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != CACHE_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if m >= 64:
            raise ValueError(f"{path}: level {m} cannot fit in a file")
        # check the size, short or trailing, before allocating, so a corrupt
        # m fails at once
        size = 1 << m
        expected = 16 * size
        got = os.fstat(fh.fileno()).st_size - _HEADER.size
        if got != expected:
            raise ValueError(f"{path}: expected {expected} record bytes, got {got}")
        _check_memory(expected, f"reading the level-{m} table {path}")
        l_era = np.empty(size, dtype="<f8")
        l_rel = np.empty(size, dtype="<f8")
        got = fh.readinto(l_era) + fh.readinto(l_rel)
        if got != expected:
            raise ValueError(f"{path}: expected {expected} record bytes, got {got}")
    return z0, m, l_era, l_rel


def _cache_filename(z0: float, m: int) -> str:
    (bits,) = struct.unpack("<Q", struct.pack("<d", z0))
    return f"plzt-m{m:02d}-{bits:016x}.bin"


def cached_level_table(
    root: RootChannel, m: int, cache_dir: str | None
) -> tuple[np.ndarray, np.ndarray]:
    """Like level_log_table, backed by the PLZT file cache when a dir is given."""
    if cache_dir is None:
        return level_log_table(root, m)
    path = os.path.join(cache_dir, _cache_filename(root.z0, m))
    if os.path.exists(path):
        try:
            z0, stored_m, le, lr = read_level_cache(path)
        except ValueError:
            pass  # truncated or foreign entry: recompute and overwrite it
        else:
            if z0 == root.z0 and stored_m == m:
                return le, lr
    le, lr = level_log_table(root, m)
    os.makedirs(cache_dir, exist_ok=True)
    write_level_cache(path, root.z0, m, le, lr)
    return le, lr
