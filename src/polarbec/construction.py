"""Channel selection: classical single-threshold and multi-pocket constructions.

The classical construction picks the best channels of the full level-n
table: everything above one partition threshold plus the first ties in
index order.  Rate mode fixes the count; budget mode takes it from a
running erasure sum in sorted order.  The
multi-pocket construction works in three phases per pocket level m:

    recruit  keep level-m channels with erasure below p_ub * 2**(-D m),
             skipping descendants of channels already recruited by a
             lower pocket;
    train    expand every recruit to its level-n descendants, a bounded
             chunk of channels at a time;
    retain   keep descendants squared at least ceil(beta_p * n) times
             during the n - m trained steps, then drop any whose final
             erasure still exceeds 2**(-2**(beta_p * n)).

Every pocket recruits before any trains.  Recruits are disjoint prefix
subtrees, so sorting their subtree starts orders the code: each recruit
owns one range of slots, as many as its extensions that meet the quota,
and its survivors are written straight into that range, one copy per run
of neighbouring recruits from the same pocket.  No channel-level sort and
no per-pocket column is needed.  The columns shrink only where the
erasure filter drops a channel; at the default p_ub it never does.

Pocket levels are spread over [n0/D, n0] with n0 = <n mu_star / mu_p>,
so the survivors inherit both the gap decay of the recruit levels and
the error decay of the squaring quota.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .erasure import (
    _CHUNK_CHANNELS,
    _UNDERFLOW_BITS,
    RootChannel,
    _atomic_write,
    _chunk_bits,
    _walk_subtrees,
    extend_log_table,
    level_log_table,
)
from .errors import EmptyCodeError, InfeasibleTargetError, _check_memory
from .frontier import _check_exponents, max_beta

# ceil() guard against float noise like 3.0000000000000004 from beta_p * n
_CEIL_SLACK = 1e-9


def _round_nearest(x: float) -> int:
    # Round to nearest; exact halves go down. With half-up rounding the
    # derived level count stalls between n=20 and n=22 at the reference
    # parameters and the gap sequence loses monotonicity.
    return int(math.ceil(x - 0.5))


def squaring_quota(beta_p: float, n: int) -> int:
    return int(math.ceil(beta_p * n - _CEIL_SLACK))


@dataclass(frozen=True)
class PocketStats:
    level: int
    recruited_weight: float
    retained_weight: float

    @property
    def lost_fraction(self) -> float:
        """Share of the recruited weight the erasure filter dropped."""
        recruited = self.recruited_weight
        return (recruited - self.retained_weight) / recruited if recruited > 0 else 0.0


@dataclass(frozen=True)
class ConstructionReport:
    capacity: float
    rate: float
    union_bound_log: float
    pocket_stats: tuple[PocketStats, ...]
    n0: int
    quota: int

    @property
    def gap(self) -> float:
        return self.capacity - self.rate


@dataclass(eq=False)
class CodeSpec:
    """A selected set of level-n synthetic channels with per-channel stats.

    Columns are aligned arrays sorted by the 1-based channel index j.
    source_pocket is the level m in [0, n] each channel was recruited at, 0
    in a classical code; squaring_count is derived from j and m, since a
    squaring is a 1 bit of the channel's path.
    """

    n: int
    z0: float
    indices: np.ndarray  # uint64, 1-based, strictly increasing
    l_era: np.ndarray
    source_pocket: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.n < 64:
            raise ValueError(f"n={self.n} is outside [0, 64): channel indices are 64-bit")
        m = self.indices.size
        for name in ("l_era", "source_pocket"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"column {name} misaligned")
        if m and (self.indices[0] < 1 or self.indices[-1] > (1 << self.n)):
            raise ValueError("channel index out of range")
        if m and not np.all(self.indices[1:] > self.indices[:-1]):
            raise ValueError("indices must be strictly increasing")
        if m and not 0 <= self.source_pocket.min() <= self.source_pocket.max() <= self.n:
            raise ValueError(f"source pocket outside [0, {self.n}]")

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def rate(self) -> float:
        return self.indices.size / float(1 << self.n)

    @property
    def squaring_count(self) -> np.ndarray:
        """Squarings since the pocket level m, popcount((j - 1) mod 2**(n - m)), in int64."""
        out = np.empty(len(self), dtype=np.int64)
        for lo in range(0, out.size, _CHUNK_CHANNELS):
            rows = slice(lo, lo + _CHUNK_CHANNELS)
            # the path's n bits to the top of a word (a shift by 64 gives 0),
            # then its first m steps, those above the pocket, out of it
            path = np.subtract(self.indices[rows], np.uint64(1), out=out[rows].view(np.uint64))
            path <<= np.uint64(64 - self.n)
            pocket = self.source_pocket[rows]
            np.left_shift(path, pocket, out=path, dtype=np.uint64, casting="unsafe")
            np.bitwise_count(path, out=out[rows])
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeSpec):
            return NotImplemented
        return (
            self.n == other.n
            and self.z0 == other.z0
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.l_era, other.l_era)
            and np.array_equal(self.source_pocket, other.source_pocket)
            and self.params == other.params
        )


def union_bound(spec: CodeSpec) -> float:
    """-log2 of the summed erasure probabilities, max-shifted and summed exactly."""
    if len(spec) == 0:
        raise ValueError("union bound of an empty selection")
    le = spec.l_era[np.isfinite(spec.l_era)]
    if le.size == 0:
        return math.inf
    m0 = float(np.min(le))
    exponents = np.subtract(m0, le, out=le)
    del le  # the filter below copies; the unfiltered column is not kept
    # exp2(m0 - l) is exactly 0.0 once l - m0 >= _UNDERFLOW_BITS, and a zero
    # adds nothing to the sum, so only the terms below that bound are summed.
    exponents = exponents[exponents > -_UNDERFLOW_BITS]
    return m0 - math.log2(_exact_sum(np.exp2(exponents, out=exponents)))


# Bits per piece of a 53-bit mantissa in _exact_sum.
_PIECE_BITS = 18


def _exact_sum(terms: np.ndarray) -> float:
    """The correctly rounded sum of float64 terms in [0, 1], as math.fsum.

    Each term is a 53-bit integer mantissa times 2**(e - 53), with frexp's
    exponent e in [-1073, 1].  The mantissa is cut into three 18-bit pieces,
    and bincount adds every piece into the bin of the bit it starts at, one
    chunk of terms at a time; a bin then holds an integer below
    3 * 2**18 * len(terms), exact in float64 for up to 2**33 terms.  Every
    bin fits a 64-bit word, so the bins 64 apart, read as one little-endian
    Python int, never overlap.  The total of the 64 shifted ints over a power
    of two rounds once, in int true division.
    """
    low = -1073
    # room for the top piece of a term of 1, in whole rows of 64 bins
    size = -(-(1 - low + 2 * _PIECE_BITS + 1) // 64) * 64
    bins = np.zeros(size)
    for lo in range(0, terms.size, _CHUNK_CHANNELS):
        mantissa, exponent = np.frexp(terms[lo : lo + _CHUNK_CHANNELS])
        ints = np.ldexp(mantissa, 53, out=mantissa).astype(np.int64)
        del mantissa
        shift = np.subtract(exponent, low, out=exponent)
        for bits in range(0, 53, _PIECE_BITS):
            piece = (ints >> bits) & ((1 << _PIECE_BITS) - 1)
            bins += np.bincount(shift + bits, weights=piece, minlength=size)
    rows = bins.astype("<u8").reshape(-1, 64)  # row j, column r: bin 64 j + r
    total = sum(int.from_bytes(rows[:, r].tobytes(), "little") << r for r in range(64))
    return total / (1 << 53 - low)


def select_classical(
    root: RootChannel,
    n: int,
    *,
    rate: float | None = None,
    max_sum_erasure: float | None = None,
    table: tuple[np.ndarray, np.ndarray] | None = None,
) -> CodeSpec:
    """Pick the best level-n channels, by count or by union-bound budget.

    Exactly one target may be given.  Rate mode keeps the <rate * 2**n>
    smallest-erasure channels; budget mode adds channels in increasing
    erasure order while the running erasure sum stays within the budget.
    Ties prefer the smaller channel index.  A precomputed (l_era, l_rel)
    level table may be supplied to skip the enumeration.
    """
    if (rate is None) == (max_sum_erasure is None):
        raise ValueError("specify exactly one of rate or max_sum_erasure")
    if table is None:
        _check_classical(n, rate)
        le, lr = level_log_table(root, n)
    else:
        le, lr = table
        if le.shape != (1 << n,) or lr.shape != (1 << n,):
            raise ValueError("supplied table does not match level n")
    if rate is not None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {rate!r}")
        count = _round_nearest(rate * (1 << n))
        params = {"mode": "classical", "rate": rate}
    else:
        if math.isnan(max_sum_erasure):
            raise ValueError(f"erasure budget must be a number, got {max_sum_erasure!r}")
        if max_sum_erasure <= 0.0:
            raise InfeasibleTargetError(
                f"erasure budget must be positive, got {max_sum_erasure!r}"
            )
        running = np.cumsum(np.exp2(-np.sort(le)[::-1]))  # erasure ascending
        count = int(np.searchsorted(running, max_sum_erasure, side="right"))
        del running  # not held beside the chosen columns
        if count == 0:
            raise InfeasibleTargetError(
                f"best channel already exceeds the budget {max_sum_erasure!r}"
            )
        params = {"mode": "classical", "max_sum_erasure": max_sum_erasure}
    chosen = _best_by_threshold(le, count)
    return CodeSpec(
        n=n,
        z0=root.z0,
        indices=chosen.astype(np.uint64) + 1,
        l_era=le[chosen],
        source_pocket=np.zeros(chosen.size, dtype=np.int64),
        params=params,
    )


def _check_classical(n: int, rate: float | None) -> None:
    """Refuse a classical plan over the memory budget before its table exists."""
    if not 0 <= n < 64:
        raise ValueError(f"level {n} is outside [0, 64): channel indices are 64-bit")
    size = 1 << n
    count = _round_nearest(rate * size) if rate is not None and 0.0 <= rate <= 1.0 else size
    # the table (16 bytes a channel) beside the larger of the sort or partition
    # (16 a channel) and the chosen columns, later the union bound (33 a chosen
    # one; budget mode may choose all), and one chunk's temporaries
    need = 16 * size + max(16 * size, 33 * count) + 48 * min(size, _CHUNK_CHANNELS)
    _check_memory(need, f"the classical code at level {n}")


def _best_by_threshold(le: np.ndarray, count: int) -> np.ndarray:
    """Indices of the count largest l_era, ties to the smaller index, sorted.

    Everything strictly above the count-th largest value is in; the ties
    at that value fill the rest in index order.
    """
    if count == 0:
        return np.zeros(0, dtype=np.intp)
    cut = np.partition(le, le.size - count)[le.size - count]
    keep = le > cut
    ties = np.flatnonzero(le == cut)
    keep[ties[: count - int(np.count_nonzero(keep))]] = True
    return np.flatnonzero(keep)


def pocket_levels(n0: int, pockets: int) -> list[int]:
    """Recruit levels <k n0 / D> for k = 1..D, merged when rounding collides."""
    out: list[int] = []
    for k in range(1, pockets + 1):
        m = _round_nearest(k * n0 / pockets)
        if not out or m != out[-1]:
            out.append(m)
    return out


def construct_multipocket(
    root: RootChannel,
    n: int,
    beta_p: float,
    mu_p: float,
    mu_star: float,
    pockets: int = 8,
    p_ub: float = 2.0 ** -10,
    *,
    levels: Sequence[int] | None = None,
) -> tuple[CodeSpec, ConstructionReport]:
    """Run recruit, train, retain over the pocket levels.

    `levels` overrides the derived pocket levels; thresholds then use the
    pocket count D = len(levels).  When no channel survives, the
    EmptyCodeError says whether beta_p exceeds max_beta or n is too small.
    """
    _check_exponents(mu_star, mu_p)
    if not 0.0 <= beta_p <= 0.5:
        raise ValueError(f"beta_p must lie in [0, 1/2], got {beta_p!r}")
    if pockets < 1:
        raise ValueError(f"pockets must be at least 1, got {pockets!r}")
    if not 0.0 < p_ub < 1.0:
        raise ValueError(f"p_ub must lie in (0, 1), got {p_ub!r}")
    if not 1 <= n < 64:
        raise ValueError(f"n={n} is outside [1, 64): channel indices are 64-bit")

    n0 = _round_nearest(n * mu_star / mu_p)
    if levels is None:
        if n0 < pockets:
            raise ValueError(
                f"n too small: <n mu_star / mu_p> = {n0} is below {pockets} pockets"
            )
        realized = pocket_levels(n0, pockets)
    else:
        realized = [int(m) for m in levels]
        if not realized or any(
            not 1 <= m <= n for m in realized
        ) or any(b <= a for a, b in zip(realized, realized[1:])):
            raise ValueError("levels must be strictly increasing within [1, n]")
    # 16 bytes a channel for the table, 32 for its last doubling, 16 for masks
    _check_memory(64 << max(realized), f"the level-{max(realized)} recruit table")

    d_count = pockets if levels is None else len(realized)
    quota = squaring_quota(beta_p, n)
    final_le_min = 2.0 ** (beta_p * n) if beta_p > 0.0 else None

    table_le, table_lr = level_log_table(root, 0)
    table_level = 0
    claimed = np.zeros(1, dtype=bool)  # under a channel an earlier pocket recruited
    recruits: list[_Recruits] = []
    for m in realized:
        table_le, table_lr = extend_log_table(table_le, table_lr, m - table_level)
        claimed = np.repeat(claimed, 1 << (m - table_level))
        table_level = m
        threshold_log = d_count * m - math.log2(p_ub)
        members = np.nonzero((table_le > threshold_log) & ~claimed)[0]
        claimed[members] = True
        recruits.append(_Recruits(m, members, table_le[members], table_lr[members]))
    del table_le, table_lr, claimed

    columns, retained = _train_and_retain(recruits, n, quota, final_le_min)
    if not columns["indices"].size:
        cap = max_beta(mu_p, mu_star)
        if beta_p > cap:
            hint = (
                f"largest achievable beta_p at mu_p={mu_p:g}, mu_star={mu_star:g}"
                f" is about {cap:.4f} (requested {beta_p:g})"
            )
        else:
            hint = (
                f"beta_p={beta_p:g} is achievable at mu_p={mu_p:g}, mu_star={mu_star:g};"
                f" n={n} is too small for these pocket levels"
            )
        raise EmptyCodeError(
            f"no channel survives (n={n}, beta_p={beta_p}, mu_p={mu_p}, "
            f"mu_star={mu_star}, pockets={d_count}, p_ub={p_ub}); "
            f"lower beta_p or mu_p, or raise n ({hint})"
        )
    spec = CodeSpec(
        n=n,
        z0=root.z0,
        **columns,
        params={
            "mode": "multipocket",
            "beta_p": beta_p,
            "mu_p": mu_p,
            "mu_star": mu_star,
            "pockets": d_count,
            "p_ub": p_ub,
        },
    )
    report = ConstructionReport(
        capacity=root.capacity,
        rate=spec.rate,
        union_bound_log=union_bound(spec),
        pocket_stats=tuple(
            PocketStats(
                level=r.level,
                recruited_weight=r.members.size * 2.0 ** -r.level,
                retained_weight=kept * 2.0 ** -n,
            )
            for r, kept in zip(recruits, retained)
        ),
        n0=n0,
        quota=quota,
    )
    return spec, report


@dataclass
class _Recruits:
    """One pocket's recruits: level-m paths in index order, (l_era, l_rel) pairs."""

    level: int
    members: np.ndarray
    l_era: np.ndarray
    l_rel: np.ndarray


def _train_and_retain(
    recruits: list[_Recruits], n: int, quota: int, final_le_min: float | None
) -> tuple[dict[str, np.ndarray], list[int]]:
    """Expand every recruit to level n and write its survivors into the code.

    Recruits are disjoint prefix subtrees, so laying them out by subtree
    start lays their survivors out in index order.  Each recruit gets a
    slot range at the quota bound, #{extensions meeting the quota}, in
    columns allocated once.  The chunks of _walk_subtrees, on up to two
    threads, write each quota-meeting descendant straight into its slot, one
    contiguous copy per run of recruits that lie next to each other in the
    code, and check it against final_le_min; a chunk writes only its own
    slots and returns its survivor count and the slots that failed.  Only
    those slots are dropped at the end.  Returns the columns and each
    pocket's survivor count.
    """
    counts = [r.members.size for r in recruits]
    widest = [_quota_count(n - r.level, quota) for r in recruits]
    cap = sum(w * c for w, c in zip(widest, counts))
    # 24 bytes a slot for the columns, beside the union bound's 18 (the final
    # filter copies one column at a time, 10 at most); 80 a recruit; 48 a
    # channel of the walk's live chunks, which hold _CHUNK_CHANNELS at most
    need = 42 * cap + 80 * sum(counts) + 48 * min(1 << n, _CHUNK_CHANNELS)
    _check_memory(need, f"the level-{n} code of up to {cap:,} channels")
    bound = np.repeat(widest, counts)
    order = np.argsort(np.concatenate([r.members << (n - r.level) for r in recruits]))
    slots = np.empty_like(bound)
    slots[order] = np.cumsum(bound[order]) - bound[order]
    del bound, order
    indices = np.empty(cap, dtype=np.uint64)
    l_era = np.empty(cap)
    source = np.empty(cap, dtype=np.int64)
    # Each recruit's subtree is walked as rows of 2**t channels below the
    # level n - t; a row's quota-meeting channels fill a slot range that
    # starts at its recruit's slot plus the widths of the rows before it.
    bits = _chunk_bits(_CHUNK_CHANNELS)
    layouts = []
    for r, first_slot in zip(recruits, np.split(slots, np.cumsum(counts)[:-1])):
        t = min(n - r.level, bits)
        above = np.bitwise_count(np.arange(1 << (n - r.level - t)))
        widths = np.array([_quota_count(t, quota - h) for h in above.tolist()])
        layouts.append((r, t, above, first_slot, np.cumsum(widths) - widths))
    sq_low = np.bitwise_count(np.arange(1 << max(t for _, t, *_ in layouts)))

    def train(g, a, b, desc):
        r, t, above, first_slot, row_slot = layouts[g]
        rows = np.arange(a, b)
        owner, path = rows >> (n - r.level - t), rows & (above.size - 1)
        h = int(above[path[0]])  # the rows of a chunk share their path's count
        cols = np.flatnonzero(sq_low[: 1 << t] + h >= quota)
        slot = first_slot[owner] + row_slot[path]
        first = (r.members[owner].astype(np.uint64) << np.uint64(n - r.level)) + (
            path.astype(np.uint64) << np.uint64(t)
        )
        first += np.uint64(1)
        kept, misses = 0, []
        cuts = np.flatnonzero(np.diff(slot) != cols.size) + 1
        for c, d in zip(np.r_[0, cuts], np.r_[cuts, rows.size]):
            dst = slice(slot[c], slot[c] + (d - c) * cols.size)
            shape = (d - c, cols.size)
            np.take(desc[c:d], cols, axis=1, mode="clip", out=l_era[dst].reshape(shape))
            np.add(first[c:d, None], cols.astype(np.uint64), out=indices[dst].reshape(shape))
            source[dst] = r.level
            kept += shape[0] * shape[1]
            if final_le_min is not None:
                missed = np.flatnonzero(~(l_era[dst] >= final_le_min))
                if missed.size:
                    misses.append(missed + dst.start)
                    kept -= missed.size
        return kept, misses

    groups = [(r.l_era, r.l_rel, n - r.level) for r in recruits]
    trained = _walk_subtrees(groups, bits, train, quota=quota)
    retained = [sum(kept for kept, _ in chunks) for chunks in trained]
    missed = [lost for chunks in trained for _, misses in chunks for lost in misses]
    del trained
    columns = dict(indices=indices, l_era=l_era, source_pocket=source)
    if missed:
        passed = np.ones(cap, dtype=bool)
        for lost in missed:
            passed[lost] = False
        del indices, l_era, source, missed  # so each copy frees its original
        for name, column in columns.items():
            columns[name] = column[passed]
    return columns, retained


def _quota_count(steps: int, quota: int) -> int:
    """Extensions of `steps` steps with at least `quota` squarings."""
    return sum(math.comb(steps, k) for k in range(max(quota, 0), steps + 1))


# --------------------------------------------------------------------------
# Text format: header lines, then one `j= m= sq= lera=` line per channel.


# A channel line exactly as save_codespec writes it; load_codespec parses
# any other line token by token.
_CHANNEL_LINE = re.compile(
    r"j=([0-9]+) m=(-?[0-9]+) sq=(-?[0-9]+) "
    r"lera=(-?(?:inf|nan|[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?))"
)

# Channel lines joined per write, so a large code never becomes one string.
_LINES_PER_WRITE = 1 << 16


def save_codespec(spec: CodeSpec, path: str) -> None:
    params = " ".join(f"{k}={v}" for k, v in spec.params.items())
    squarings = spec.squaring_count
    with _atomic_write(path) as fh:
        fh.write(f"n={spec.n}\nz0={spec.z0!r}\nparams={params}\n")
        for lo in range(0, len(spec), _LINES_PER_WRITE):
            rows = slice(lo, lo + _LINES_PER_WRITE)
            fh.write("".join(
                f"j={j} m={m} sq={sq} lera={lera!r}\n"
                for j, m, sq, lera in zip(
                    spec.indices[rows].tolist(),
                    spec.source_pocket[rows].tolist(),
                    squarings[rows].tolist(),
                    spec.l_era[rows].tolist(),
                )
            ))


def _parse_param(token: str):
    key, _, raw = token.partition("=")
    if raw == "None":
        return key, None
    try:
        return key, int(raw)
    except ValueError:
        pass
    try:
        return key, float(raw)
    except ValueError:
        return key, raw


def _channel_fields(path: str, lineno: int, ln: str) -> tuple[int, int, int, float]:
    """(j, m, sq, lera) of a channel line in any token order and spacing."""
    tokens = ln.split()
    try:
        fields = dict(tok.split("=", 1) for tok in tokens)
        if len(tokens) != 4 or fields.keys() != {"j", "m", "sq", "lera"}:
            raise ValueError("expected the four fields j= m= sq= lera=")
        j, m, sq = int(fields["j"]), int(fields["m"]), int(fields["sq"])
        return j, m, sq, float(fields["lera"])
    except ValueError as exc:
        raise ValueError(f"{path}, line {lineno}: {exc}") from None


def _header_value(path: str, line: tuple[int, str], parse):
    """The value after "=" on a numbered header line, parsed."""
    lineno, text = line
    try:
        return parse(text.partition("=")[2])
    except ValueError as exc:
        raise ValueError(f"{path}, line {lineno}: {exc}") from None


def load_codespec(path: str) -> CodeSpec:
    """Read a code file; a malformed header value or channel line raises
    ValueError naming the file and the line; an sq= other than the count
    that j and m give raises one naming the file and the channel.

    One pass parses the lines into typed columns that the spec wraps uncopied.
    """
    with open(path) as fh:
        # 25 bytes of columns a channel line, and 8 more for the sq check: a
        # line is at least 20 bytes, and 25 once j passes 10**5 (j increases)
        _check_memory(32 * (os.fstat(fh.fileno()).st_size // 20 + 1), f"the code file {path}")
        lines = ((k, ln.rstrip("\n")) for k, ln in enumerate(fh, 1) if not ln.isspace())
        header = list(itertools.islice(lines, 3))
        if (
            len(header) < 3
            or not header[0][1].startswith("n=")
            or not header[1][1].startswith("z0=")
        ):
            raise ValueError(f"{path}: malformed header")
        n = _header_value(path, header[0], int)
        z0 = _header_value(path, header[1], float)
        params = dict(_parse_param(tok) for tok in header[2][1][len("params="):].split())
        js, ms, sqs, les = array("Q"), array("q"), array("B"), array("d")
        for lineno, ln in lines:
            canonical = _CHANNEL_LINE.fullmatch(ln)
            j, m, sq, lera = canonical.groups() if canonical else _channel_fields(path, lineno, ln)
            try:
                js.append(int(j))
                ms.append(int(m))
                sqs.append(int(sq))
            except OverflowError as exc:  # out of a column's 64 bits, or sq out of its byte
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            les.append(float(lera))
    try:
        spec = CodeSpec(
            n=n,
            z0=z0,
            indices=np.frombuffer(js, dtype=np.uint64),
            l_era=np.frombuffer(les, dtype=np.float64),
            source_pocket=np.frombuffer(ms, dtype=np.int64),
            params=params,
        )
    except ValueError as exc:  # a bad spec
        raise ValueError(f"{path}: {exc}") from None
    sq, derived = np.frombuffer(sqs, dtype=np.uint8), spec.squaring_count
    for lo in range(0, len(spec), _CHUNK_CHANNELS):
        wrong = np.flatnonzero(derived[lo : lo + _CHUNK_CHANNELS] != sq[lo : lo + _CHUNK_CHANNELS])
        if wrong.size:
            k = lo + int(wrong[0])
            raise ValueError(
                f"{path}: channel j={spec.indices[k]} m={spec.source_pocket[k]} has sq={sq[k]},"
                f" but j and m give sq={derived[k]}"
            )
    return spec
