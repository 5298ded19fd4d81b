"""Channel selection: classical single-threshold and multi-pocket constructions.

The classical construction picks the best channels of the full level-n
table: everything above one partition threshold plus the first ties in
index order.  Rate mode fixes the count; budget mode takes it from a
running erasure sum in sorted order.  The
multi-pocket construction works in three phases per pocket level m:

    recruit  keep level-m channels with erasure below p_ub * 2**(-D m),
             skipping descendants of channels already recruited by a
             lower pocket;
    train    expand every recruit to all its level-n descendants, one
             (recruits, 2**(n - m)) table per pocket;
    retain   keep descendants squared at least ceil(beta_p * n) times
             during the n - m trained steps, then drop any whose final
             erasure still exceeds 2**(-2**(beta_p * n)).  The quota mask
             is one row of 2**(n - m), broadcast over every recruit.

Recruits are disjoint prefix subtrees, so each pocket's survivors come out
in index order.  The pockets are merged by sorting the recruits' subtree
starts and copying one slice per run of consecutive recruits from the same
pocket; no channel-level sort is needed.

Pocket levels are spread over [n0/D, n0] with n0 = <n mu_star / mu_p>,
so the survivors inherit both the gap decay of the recruit levels and
the error decay of the squaring quota.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .erasure import (
    DEFAULT_MAX_LEVEL,
    RootChannel,
    _atomic_write,
    _descendant_l_era,
    extend_log_table,
    level_log_table,
)
from .errors import EmptyCodeError, InfeasibleTargetError, LevelTooLargeError
from .frontier import _check_exponents

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
    squaring_count counts squarings since the channel's pocket level
    (for the classical construction the pocket level is 0, so it is the
    total squaring count along the path).
    """

    n: int
    z0: float
    indices: np.ndarray  # uint64, 1-based, strictly increasing
    l_era: np.ndarray
    squaring_count: np.ndarray
    source_pocket: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        m = self.indices.size
        for name in ("l_era", "squaring_count", "source_pocket"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"column {name} misaligned")
        if m and (self.indices[0] < 1 or self.indices[-1] > (1 << self.n)):
            raise ValueError("channel index out of range")
        if m and not np.all(self.indices[1:] > self.indices[:-1]):
            raise ValueError("indices must be strictly increasing")

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def rate(self) -> float:
        return self.indices.size / float(1 << self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeSpec):
            return NotImplemented
        return (
            self.n == other.n
            and self.z0 == other.z0
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.l_era, other.l_era)
            and np.array_equal(self.squaring_count, other.squaring_count)
            and np.array_equal(self.source_pocket, other.source_pocket)
            and self.params == other.params
        )


def union_bound(spec: CodeSpec) -> float:
    """-log2 of the summed erasure probabilities, max-shifted and compensated."""
    if len(spec) == 0:
        raise ValueError("union bound of an empty selection")
    le = spec.l_era[np.isfinite(spec.l_era)]
    if le.size == 0:
        return math.inf
    m0 = float(np.min(le))
    total = math.fsum(np.exp2(m0 - le).tolist())
    return m0 - math.log2(total)


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
        if max_sum_erasure <= 0.0:
            raise InfeasibleTargetError(
                f"erasure budget must be positive, got {max_sum_erasure!r}"
            )
        running = np.cumsum(np.exp2(-np.sort(le)[::-1]))  # erasure ascending
        count = int(np.searchsorted(running, max_sum_erasure, side="right"))
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
        squaring_count=_popcount(chosen),
        source_pocket=np.zeros(chosen.size, dtype=np.int64),
        params=params,
    )


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


def _popcount(paths: np.ndarray) -> np.ndarray:
    return np.bitwise_count(paths.astype(np.uint64)).astype(np.int64)


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
    pocket count D = len(levels).
    """
    _check_exponents(mu_p, mu_star)
    if not 0.0 <= beta_p <= 0.5:
        raise ValueError(f"beta_p must lie in [0, 1/2], got {beta_p!r}")
    if pockets < 1:
        raise ValueError(f"pockets must be at least 1, got {pockets!r}")
    if not 0.0 < p_ub < 1.0:
        raise ValueError(f"p_ub must lie in (0, 1), got {p_ub!r}")
    if n < 1:
        raise ValueError("n must be positive")

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
    if max(realized) > DEFAULT_MAX_LEVEL:
        raise LevelTooLargeError(
            f"pocket level {max(realized)} exceeds the maximum {DEFAULT_MAX_LEVEL}"
        )

    d_count = pockets if levels is None else len(realized)
    quota = squaring_quota(beta_p, n)
    final_le_min = 2.0 ** (beta_p * n) if beta_p > 0.0 else None

    table_le, table_lr = level_log_table(root, 0)
    table_level = 0

    claimed = np.zeros(1, dtype=bool)  # under a channel an earlier pocket recruited
    stats: list[PocketStats] = []
    pockets_out: list[_PocketBlock] = []

    for m in realized:
        table_le, table_lr = extend_log_table(table_le, table_lr, m - table_level)
        claimed = np.repeat(claimed, 1 << (m - table_level))
        table_level = m
        threshold_log = d_count * m - math.log2(p_ub)
        members = np.nonzero((table_le > threshold_log) & ~claimed)[0]
        claimed[members] = True
        block = _train_and_retain(
            table_le[members], table_lr[members], members, m, n, quota, final_le_min
        )
        pockets_out.append(block)
        stats.append(
            PocketStats(
                level=m,
                recruited_weight=members.size * 2.0 ** -m,
                retained_weight=int(block.bounds[-1]) * 2.0 ** -n,
            )
        )

    if sum(b.bounds[-1] for b in pockets_out) == 0:
        raise EmptyCodeError(
            f"no channel survives (n={n}, beta_p={beta_p}, mu_p={mu_p}, "
            f"mu_star={mu_star}, pockets={d_count}, p_ub={p_ub}); "
            "lower beta_p or mu_p, or raise n"
        )
    spec = CodeSpec(
        n=n,
        z0=root.z0,
        **_merge_by_subtree(pockets_out, n),
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
        pocket_stats=tuple(stats),
        n0=n0,
        quota=quota,
    )
    return spec, report


@dataclass
class _PocketBlock:
    """One pocket's survivors in index order, grouped by recruit.

    The survivors of the recruit in row r are entries bounds[r] to
    bounds[r + 1] of each column (indices, l_era, squaring_count); its
    subtree starts at level-n path members[r] << (n - level).
    """

    level: int
    members: np.ndarray
    bounds: np.ndarray
    columns: list[np.ndarray | None]


def _train_and_retain(
    le: np.ndarray,
    lr: np.ndarray,
    members: np.ndarray,
    m: int,
    n: int,
    quota: int,
    final_le_min: float | None,
) -> _PocketBlock:
    """Expand each recruit to level n and keep the descendants that pass.

    The extension offsets, their squaring counts and the quota mask are one
    row of 2**(n - m) shared by every recruit and broadcast over the
    (recruits, 2**(n - m)) descendant table.
    """
    steps = n - m
    shape = (members.size, 1 << steps)
    offsets = np.arange(shape[1], dtype=np.uint64)
    sq = _popcount(offsets)
    keep = np.broadcast_to(sq >= quota, shape)
    desc_le = _descendant_l_era(le, lr, steps).reshape(shape)
    if final_le_min is not None:
        keep = keep & (desc_le >= final_le_min)
    bounds = np.zeros(members.size + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=bounds[1:])
    first = (members.astype(np.uint64) << np.uint64(steps)) + np.uint64(1)
    indices = np.broadcast_to(first[:, None], shape)[keep]
    indices += np.broadcast_to(offsets, shape)[keep]
    return _PocketBlock(
        m, members, bounds, [indices, desc_le[keep], np.broadcast_to(sq, shape)[keep]]
    )


def _merge_by_subtree(blocks: list[_PocketBlock], n: int) -> dict[str, np.ndarray]:
    """Interleave the pockets' columns into one index-ordered code.

    Recruits are disjoint prefix subtrees, so sorting their starts orders
    their survivors.  Consecutive recruits of one pocket form a run whose
    survivors are one slice of that pocket's columns; the merge copies one
    slice per run, one column at a time, and releases each pocket column
    once it is merged.
    """
    starts = np.concatenate([b.members << (n - b.level) for b in blocks])
    pocket = np.concatenate(
        [np.full(b.members.size, k) for k, b in enumerate(blocks)]
    )
    row = np.concatenate([np.arange(b.members.size) for b in blocks])
    order = np.argsort(starts)
    pocket, row = pocket[order], row[order]
    cuts = np.flatnonzero(pocket[1:] != pocket[:-1]) + 1
    runs = []
    for first, last in zip(np.r_[0, cuts], np.r_[cuts, pocket.size] - 1):
        b = blocks[pocket[first]]
        runs.append((b, b.bounds[row[first]], b.bounds[row[last] + 1]))
    merged = {}
    for c, name in enumerate(("indices", "l_era", "squaring_count")):
        merged[name] = np.concatenate([b.columns[c][lo:hi] for b, lo, hi in runs])
        for b in blocks:
            b.columns[c] = None
    merged["source_pocket"] = source = np.empty(merged["indices"].size, dtype=np.int64)
    at = 0
    for b, lo, hi in runs:
        source[at : at + hi - lo] = b.level
        at += hi - lo
    return merged


def pocket_weights(
    report: ConstructionReport,
) -> list[tuple[int, float, float, float]]:
    """Per-pocket accounting rows (level, recruited, retained, lost_fraction)."""
    rows = []
    for s in report.pocket_stats:
        recruited, retained = s.recruited_weight, s.retained_weight
        lost = (recruited - retained) / recruited if recruited > 0 else 0.0
        rows.append((s.level, recruited, retained, lost))
    return rows


# --------------------------------------------------------------------------
# Text format: header lines, then one `j= m= sq= lera=` line per channel.


def save_codespec(spec: CodeSpec, path: str) -> None:
    with _atomic_write(path) as fh:
        fh.write(f"n={spec.n}\n")
        fh.write(f"z0={spec.z0!r}\n")
        params = " ".join(f"{k}={v}" for k, v in spec.params.items())
        fh.write(f"params={params}\n")
        for j, m, sq, lera in zip(
            spec.indices, spec.source_pocket, spec.squaring_count, spec.l_era
        ):
            fh.write(f"j={j} m={m} sq={sq} lera={float(lera)!r}\n")


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


def load_codespec(path: str) -> CodeSpec:
    """Read a code file; a malformed channel line raises ValueError naming it."""
    with open(path) as fh:
        lines = [(k, ln.rstrip("\n")) for k, ln in enumerate(fh, 1) if ln.strip()]
    header = [ln for _, ln in lines[:3]]
    if len(header) < 3 or not header[0].startswith("n=") or not header[1].startswith("z0="):
        raise ValueError(f"{path}: malformed header")
    n = int(header[0][2:])
    z0 = float(header[1][3:])
    params = dict(_parse_param(tok) for tok in header[2][len("params="):].split())
    js, ms, sqs, les = [], [], [], []
    for lineno, ln in lines[3:]:
        tokens = ln.split()
        try:
            fields = dict(tok.split("=", 1) for tok in tokens)
            if len(tokens) != 4 or fields.keys() != {"j", "m", "sq", "lera"}:
                raise ValueError("expected the four fields j= m= sq= lera=")
            js.append(int(fields["j"]))
            ms.append(int(fields["m"]))
            sqs.append(int(fields["sq"]))
            les.append(float(fields["lera"]))
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    try:
        return CodeSpec(
            n=n,
            z0=z0,
            indices=np.array(js, dtype=np.uint64),
            l_era=np.array(les, dtype=np.float64),
            squaring_count=np.array(sqs, dtype=np.int64),
            source_pocket=np.array(ms, dtype=np.int64),
            params=params,
        )
    except OverflowError as exc:  # an integer column out of its dtype's range
        raise ValueError(f"{path}: {exc}") from None
