"""Channel selection: classical threshold and multi-pocket recruit-train-retain.

The multi-pocket path is checked against a from-scratch per-channel filter
that never touches the vectorized tables, so the two routes share nothing
but the scalar polarization step.
"""

import functools
import itertools
import math
import re
import runpy
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import ChannelPath, channel_erasure, classical_rate_reference, level_erasures

from polarbec import construction as co
from polarbec import criterion as cr
from polarbec import erasure as er
from polarbec.errors import EmptyCodeError, InfeasibleTargetError


def _round_half_down(x: float) -> int:
    return int(math.ceil(x - 0.5))


def brute_force_multipocket(root, n, beta_p, mu_p, mu_star, pockets, p_ub, levels=None):
    """Independent oracle: dict bookkeeping over streamed channels.

    Returns {index j: (pocket level, extension squarings, l_era)} for every
    surviving channel, or {} when nothing survives.  Explicit `levels`
    replace the derived ones, and the thresholds then use D = len(levels).
    """
    if levels is None:
        n0 = _round_half_down(n * mu_star / mu_p)
        levels = []
        for k in range(1, pockets + 1):
            m = _round_half_down(k * n0 / pockets)
            if m not in levels:
                levels.append(m)
    else:
        pockets = len(levels)
    quota = math.ceil(beta_p * n - 1e-9)
    recruited: dict[int, set[tuple[int, ...]]] = {}
    for m in levels:
        taken: set[tuple[int, ...]] = set()
        for ch, z in level_erasures(root, m):
            if any(ch.path[:lv] in mem for lv, mem in recruited.items()):
                continue
            if z.l_era > pockets * m - math.log2(p_ub):
                taken.add(ch.path)
        recruited[m] = taken
    survivors: dict[int, tuple[int, int, float]] = {}
    for m, prefixes in recruited.items():
        for prefix in prefixes:
            for ext in itertools.product((0, 1), repeat=n - m):
                if sum(ext) < quota:
                    continue
                full = ChannelPath(n, prefix + ext)
                z = channel_erasure(root, full)
                if beta_p > 0.0 and z.l_era < 2.0 ** (beta_p * n):
                    continue
                survivors[full.index] = (m, sum(ext), z.l_era)
    return survivors


def test_classical_rate_half_level3():
    spec = co.select_classical(er.RootChannel(0.5), 3, rate=0.5)
    assert spec.indices.tolist() == [4, 6, 7, 8]
    want = [0.31640625, 0.19140625, 0.12109375, 0.00390625]
    assert np.exp2(-spec.l_era) == pytest.approx(want, abs=1e-12)
    assert spec.rate == 0.5


def test_classical_degenerate_and_budget():
    spec = co.select_classical(er.RootChannel(0.5), 0, rate=1.0)
    assert spec.indices.tolist() == [1]
    spec = co.select_classical(er.RootChannel(0.5), 3, max_sum_erasure=0.01)
    assert spec.indices.tolist() == [8]


def test_classical_budget_infeasible():
    with pytest.raises(InfeasibleTargetError):
        co.select_classical(er.RootChannel(0.5), 3, max_sum_erasure=0.001)
    with pytest.raises(InfeasibleTargetError):
        co.select_classical(er.RootChannel(0.5), 3, max_sum_erasure=-1.0)


def _exact_prefixes(terms) -> list[Fraction]:
    """The exact running sums of nonnegative float terms.

    Every finite float is an integer multiple of 2**-1074, so each term is
    added as an integer count of 2**-1074 and only the results are divided.
    """
    units = (p << 1075 - q.bit_length() for p, q in map(float.as_integer_ratio, terms))
    return [Fraction(total, 1 << 1074) for total in itertools.accumulate(units)]


def test_classical_budget_stops_at_the_budget_by_the_exact_sum():
    # np.cumsum of the 204,365 smallest erasures at n = 20, z0 = 1/2 reads
    # within this budget, but their exact sum is 9.322656560121186e-307
    budget = 9.322656560121183e-307
    root = er.RootChannel(0.5)
    table = er.level_log_table(root, 20)
    spec = co.select_classical(root, 20, max_sum_erasure=budget, table=table)
    terms = np.sort(np.exp2(-table[0]))
    assert np.cumsum(terms)[204_364] <= budget
    prefixes = _exact_prefixes(terms[: len(spec) + 1].tolist())
    assert len(spec) == 204_364
    assert prefixes[-2] <= budget < prefixes[-1]
    assert float(prefixes[-1]) == 9.322656560121186e-307


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=8),
    z0=st.floats(min_value=0.01, max_value=0.99),
    data=st.data(),
)
def test_classical_budget_count_is_the_largest_exact_prefix_within(n, z0, data):
    root = er.RootChannel(z0)
    table = er.level_log_table(root, n)
    terms = np.sort(np.exp2(-table[0]))
    prefixes = _exact_prefixes(terms.tolist())
    # budgets at a float or exact prefix and one ulp either side, where the
    # float running sum and the exact one part, or anywhere
    k = data.draw(st.integers(0, terms.size - 1))
    near = data.draw(st.sampled_from([float(np.cumsum(terms)[k]), float(prefixes[k])]))
    edges = [near, float(np.nextafter(near, 0.0)), float(np.nextafter(near, math.inf))]
    anywhere = st.floats(min_value=5e-324, max_value=float(1 << n))
    budget = data.draw(st.sampled_from([b for b in edges if b > 0.0]) | anywhere)
    want = sum(prefix <= budget for prefix in prefixes)  # the prefixes ascend
    if want == 0:
        with pytest.raises(InfeasibleTargetError):
            co.select_classical(root, n, max_sum_erasure=budget, table=table)
    else:
        spec = co.select_classical(root, n, max_sum_erasure=budget, table=table)
        assert len(spec) == want


def test_classical_nan_budget_raises_and_infinite_budget_takes_all():
    root = er.RootChannel(0.5)
    with pytest.raises(ValueError, match="budget must be a number, got nan"):
        co.select_classical(root, 3, max_sum_erasure=math.nan)
    assert co.select_classical(root, 3, max_sum_erasure=math.inf).indices.tolist() == list(range(1, 9))


def test_classical_needs_exactly_one_target(monkeypatch):
    root = er.RootChannel(0.5)
    with pytest.raises(ValueError):
        co.select_classical(root, 3)
    with pytest.raises(ValueError):
        co.select_classical(root, 3, rate=0.5, max_sum_erasure=0.1)
    # every target is refused before the level-22 table is built
    monkeypatch.setattr(co, "level_log_table", lambda *a: pytest.fail("table built"))
    with pytest.raises(ValueError, match="rate must lie in"):
        co.select_classical(root, 22, rate=1.5)
    with pytest.raises(ValueError, match="budget must be a number"):
        co.select_classical(root, 22, max_sum_erasure=math.nan)
    with pytest.raises(InfeasibleTargetError, match="budget must be positive"):
        co.select_classical(root, 22, max_sum_erasure=0.0)


def test_classical_accepts_precomputed_table():
    root = er.RootChannel(0.3)
    table = er.level_log_table(root, 6)
    direct = co.select_classical(root, 6, rate=0.4)
    cached = co.select_classical(root, 6, rate=0.4, table=table)
    assert direct == cached
    with pytest.raises(ValueError):
        co.select_classical(root, 5, rate=0.4, table=table)


def test_union_bound_examples():
    spec = co.select_classical(er.RootChannel(0.5), 3, max_sum_erasure=0.01)
    assert co.union_bound(spec) == pytest.approx(8.0, abs=1e-12)  # single channel

    two = co.CodeSpec(
        n=4,
        z0=0.5,
        indices=np.array([3, 9], dtype=np.uint64),
        l_era=np.array([10.0, 10.0]),
        source_pocket=np.zeros(2, dtype=np.int64),
        params={},
    )
    assert co.union_bound(two) == pytest.approx(9.0, abs=1e-12)  # sum doubles

    classical = co.select_classical(er.RootChannel(0.5), 3, rate=0.5)
    assert co.union_bound(classical) == pytest.approx(-math.log2(0.6328125), abs=1e-12)

    empty = co.select_classical(er.RootChannel(0.5), 3, rate=0.0)
    assert len(empty) == 0 and co.union_bound(empty) == math.inf  # nothing summed


def _spec_with_l_era(l_era):
    return co.CodeSpec(
        n=max(4, (len(l_era) - 1).bit_length()),
        z0=0.5,
        indices=np.arange(1, len(l_era) + 1, dtype=np.uint64),
        l_era=np.array(l_era),
        source_pocket=np.zeros(len(l_era), dtype=np.int64),
    )


def test_union_bound_equals_fsum_over_every_term():
    # Exact sum 1 + 2**-53 + 2**-1074 rounds up to 1 + 2**-52; without the
    # smallest subnormal term it would tie and round down to 1.  The terms at
    # 1075 bits and beyond are exactly 0.0; inf terms are left out.
    last = np.nextafter(er._UNDERFLOW_BITS, 0.0)
    l_era = [3.0, 56.0, 3.0 + last, np.inf, 3.0 + er._UNDERFLOW_BITS, 1e300, np.inf]
    assert co.union_bound(_spec_with_l_era(l_era)) == 3.0 - math.log2(1.0 + 2.0**-52)
    rng = np.random.default_rng(5)
    for _ in range(20):
        le = rng.choice([0.0, 1.0, 40.0, 1e3, 2e3, 1e300, np.inf], 12) + rng.random(12) * 3
        finite = le[np.isfinite(le)]
        m0 = float(finite.min())
        want = m0 - math.log2(math.fsum(np.exp2(m0 - finite).tolist()))
        assert co.union_bound(_spec_with_l_era(le)) == want
    assert co.union_bound(_spec_with_l_era([np.inf, np.inf])) == math.inf


def _fsum_union_bound(l_era):
    finite = l_era[np.isfinite(l_era)]
    if not finite.size:
        return math.inf
    m0 = float(finite.min())
    return m0 - math.log2(math.fsum(np.exp2(m0 - finite).tolist()))


# Gaps to the smallest l_era: around the 53-bit mantissa, the last normal
# and subnormal terms, the first zero term, and entries left out.
UNION_GAPS = [0.0, 1.0, 52.0, 53.0, 54.0, 1022.5, 1074.0, 1074.9, 1075.0, 3e3, np.inf, np.nan]


@settings(max_examples=80, deadline=None)
@given(
    base=st.floats(min_value=0.0, max_value=3e3),
    gaps=st.lists(
        st.sampled_from(UNION_GAPS) | st.floats(min_value=0.0, max_value=1074.9),
        min_size=1,
        max_size=40,
    ),
    repeat=st.integers(min_value=1, max_value=5000),
)
def test_union_bound_is_the_correctly_rounded_sum(base, gaps, repeat):
    # The first entry repeats `repeat` times: many equal terms, or at
    # repeat 1 and one gap a single term.
    l_era = np.array([base + gaps[0]] * repeat + [base + g for g in gaps[1:]])
    assert co.union_bound(_spec_with_l_era(l_era)) == _fsum_union_bound(l_era)


def test_union_bound_over_2_20_terms_is_the_correctly_rounded_sum():
    # A third of the terms share two exponents, so their 53-bit mantissas
    # add up to about 2**71 per exponent, far past what float64 holds exactly.
    rng = np.random.default_rng(11)
    l_era = 3.0 + rng.random((1 << 20) + 3) * rng.choice([1.0, 60.0, 1074.9], (1 << 20) + 3)
    assert co.union_bound(_spec_with_l_era(l_era)) == _fsum_union_bound(l_era)


def test_union_bound_by_small_chunks_is_the_correctly_rounded_sum(monkeypatch):
    # The exact sum takes its terms a chunk at a time into shared bins; with
    # 3-term chunks every kind of gap lands on both sides of a chunk edge.
    monkeypatch.setattr(co, "_CHUNK_CHANNELS", 3)
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 4, 7, 40, 301):
        gaps = rng.choice(UNION_GAPS + [0.0] * 4, size) + rng.random(size) * 60.0
        l_era = 2.0 + np.where(rng.random(size) < 0.3, 0.0, gaps)
        assert co.union_bound(_spec_with_l_era(l_era)) == _fsum_union_bound(l_era)


def test_union_bound_head_sum_is_the_full_sum(monkeypatch):
    # union_bound first sums only the terms within _UNION_HEAD_BITS bits of
    # the largest.  With that many bits set to _UNDERFLOW_BITS it sums every
    # term that counts, as its fallback does; at any head width both give the
    # same float, bit for bit.  _exact_sum runs once on the certified path
    # and twice on the fallback, and both must run.
    sizes = []
    exact_sum = co._exact_sum
    monkeypatch.setattr(co, "_exact_sum", lambda terms: sizes.append(terms.size) or exact_sum(terms))
    paths = {"certified": 0, "fallback": 0}

    def bound(spec, bits):
        sizes.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(co, "_UNION_HEAD_BITS", bits)
            return co.union_bound(spec), list(sizes)

    @settings(max_examples=300, deadline=None)
    @given(
        bits=st.sampled_from([1, 2, 8, 60, 128]),
        base=st.floats(min_value=0.0, max_value=3e3),
        gaps=st.lists(
            st.sampled_from(UNION_GAPS) | st.floats(min_value=0.0, max_value=1074.9),
            min_size=1,
            max_size=40,
        ),
        repeat=st.integers(min_value=1, max_value=5000),
    )
    # the head 1 + 2**-53 is a tie that rounds down, and any tail rounds it up
    @example(bits=128, base=0.0, gaps=[0.0, 53.0, 200.0], repeat=1)
    @example(bits=128, base=0.0, gaps=[0.0, 200.0], repeat=1)
    # 200 tail terms of 2**-60 each, 2**-52.4 in all, move the head 1 up by
    # an ulp: the tail bound must not be any smaller than c * 2**-60
    @example(bits=60, base=0.0, gaps=[60.0, 0.0], repeat=200)
    # a -inf entry is left out, as inf and NaN are
    @example(bits=8, base=5.0, gaps=[3.0, -np.inf, 0.0, np.nan, 20.0], repeat=2)
    def check(bits, base, gaps, repeat):
        l_era = np.array([base + gaps[0]] * repeat + [base + g for g in gaps[1:]])
        spec = _spec_with_l_era(l_era)
        full, every = bound(spec, er._UNDERFLOW_BITS)  # no sum when no term is finite
        got, head = bound(spec, bits)
        assert got.hex() == full.hex() == _fsum_union_bound(l_era).hex()
        if len(head) == 2:
            paths["fallback"] += 1
            assert head[1:] == every
        elif head and head[0] < every[0]:
            paths["certified"] += 1

    check()
    assert paths["certified"] and paths["fallback"], paths


def _traced_needs(monkeypatch, workers, build):
    """Run build under tracemalloc: every _check_memory need, and the peak.

    Chunks of 2**12 channels keep the estimates' chunk allowance (192 KiB)
    small beside their per-channel terms, which the peak then tests.  Two
    workers are forced, so the peak holds both workers' chunks on any host.
    """
    workers(2)
    needs = []
    for module in (co, er):
        monkeypatch.setattr(module, "_check_memory", lambda need, what: needs.append(need))
        monkeypatch.setattr(module, "_CHUNK_CHANNELS", 1 << 12)
    tracemalloc.start()
    try:
        build()
        return needs, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "build",
    [
        lambda: co.select_classical(er.RootChannel(0.5), 18, rate=0.5),
        lambda: co.select_classical(er.RootChannel(0.5), 18, rate=1.0),
        lambda: co.select_classical(er.RootChannel(0.3), 18, max_sum_erasure=1e-3),
        lambda: co.select_classical(er.RootChannel(0.0), 17, max_sum_erasure=1.0),
        lambda: co.construct_multipocket(er.RootChannel(0.5), 16, 0.25, 8.0, 3.8),
        lambda: co.construct_multipocket(er.RootChannel(0.5), 18, 0.10, 8.0, 3.8),
        lambda: co.construct_multipocket(
            er.RootChannel(0.5), 18, 0.30, 8.0, 3.8, p_ub=0.99, levels=[3]
        ),
        lambda: co.construct_multipocket(
            er.RootChannel(0.5), 18, 0.0, 8.0, 3.8, p_ub=0.99, levels=[6, 17]
        ),
    ],
    ids=["rate-half", "rate-one", "budget", "budget-all-ties", "mp16", "mp18-low-beta",
         "mp18-filter-drops", "mp18-recruit-level-17"],
)
def test_memory_estimates_cover_the_traced_peak(monkeypatch, workers, build):
    # A plan runs only when every estimate fits the budget, so the largest
    # one must cover the whole call: the table or recruit scan, the
    # selection or training, the final filter and the union bound.
    needs, peak = _traced_needs(monkeypatch, workers, build)
    assert max(needs) >= peak, (needs, peak)


@pytest.mark.parametrize(
    "config",
    [
        dict(n=16, beta_p=0.25),
        dict(n=18, beta_p=0.10),
        dict(n=18, beta_p=0.30, p_ub=0.99, levels=[3]),
        dict(n=18, beta_p=0.0, p_ub=0.99, levels=[6, 17]),
        dict(n=12, beta_p=0.10, p_ub=0.9, levels=[3, 5, 7]),
        dict(n=8, beta_p=0.25, p_ub=0.9, levels=[4, 8]),
    ],
    ids=["mp16", "mp18-low-beta", "mp18-filter-drops", "mp18-recruit-level-17",
         "mp12-three-pockets", "mp8-rows-below-the-quota"],
)
def test_multipocket_is_the_same_for_any_worker_count(monkeypatch, workers, short_switch, config):
    # With 2**10-channel chunks every pocket splits into many chunks, which
    # 1, 2 or 3 workers take in whatever order their threads run; the final
    # filter drops channels in mp18-filter-drops.
    monkeypatch.setattr(co, "_CHUNK_CHANNELS", 1 << 10)
    build = functools.partial(co.construct_multipocket, er.RootChannel(0.5), mu_p=8.0, mu_star=3.8)
    workers(1)
    want, want_report = build(**config)
    for count in (2, 3):
        workers(count)
        spec, report = build(**config)
        assert spec == want and report == want_report
        assert np.array_equal(spec.l_era.view(np.uint64), want.l_era.view(np.uint64))


def test_recruit_estimate_covers_the_recruit_scan(monkeypatch, workers):
    # levels [16] puts 2**16 channels in the recruit table and recruits
    # about half of them, one slot each; the scan ends where training starts.
    peaks = []
    train = co._train_and_retain

    def traced_train(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return train(*args)

    monkeypatch.setattr(co, "_train_and_retain", traced_train)
    build = functools.partial(
        co.construct_multipocket, er.RootChannel(0.5), 16, 0.0, 8.0, 3.8, p_ub=0.9, levels=[16]
    )
    needs, peak = _traced_needs(monkeypatch, workers, build)
    assert needs[0] == 64 << 16 and needs[0] >= peaks[0]
    assert needs[-1] >= peak  # the code's estimate, checked last


def test_multipocket_structural_guarantee():
    root = er.RootChannel(0.5)
    spec, report = co.construct_multipocket(
        root, 16, 0.30, 8.0, 3.8, pockets=4, p_ub=2.0**-10
    )
    assert len(spec) == 2312
    assert report.n0 == 8 and report.quota == 5
    assert [s.level for s in report.pocket_stats] == [2, 4, 6, 8]
    assert np.all(spec.squaring_count >= 5)
    assert np.all(spec.l_era >= 2.0**4.8)  # erasure <= 2^(-2^(0.3*16))
    assert np.all(np.diff(spec.indices) > 0)  # dedup + sorted


def test_multipocket_equals_brute_force_reference_run():
    root = er.RootChannel(0.5)
    spec, _ = co.construct_multipocket(
        root, 16, 0.30, 8.0, 3.8, pockets=4, p_ub=2.0**-10
    )
    want = brute_force_multipocket(root, 16, 0.30, 8.0, 3.8, 4, 2.0**-10)
    assert sorted(want) == spec.indices.tolist()
    for j, le, sq, m in zip(
        spec.indices, spec.l_era, spec.squaring_count, spec.source_pocket
    ):
        bm, bsq, ble = want[int(j)]
        assert (bm, bsq) == (int(m), int(sq))
        assert ble == le  # scalar fold and table route agree bitwise


@settings(max_examples=30, deadline=None)
@given(
    z0=st.floats(min_value=0.25, max_value=0.75),
    n=st.integers(min_value=8, max_value=12),
    beta_p=st.sampled_from([0.0, 0.10, 0.25]),
    mu_p=st.floats(min_value=6.0, max_value=12.0),
    p_ub=st.sampled_from([2.0**-6, 0.5, 0.9]),
    pockets=st.integers(min_value=1, max_value=4),
    levels=st.none()
    | st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4, unique=True).map(
        sorted
    ),
    chunk_bits=st.sampled_from([None, 3, 6]),
)
# pocket 8 has no step left for the quota of 2, and pocket 4's rows below
# the chunk level start at s = 2 with some rows that cannot reach it
@example(z0=0.5, n=8, beta_p=0.25, mu_p=8.0, p_ub=0.9, pockets=1, levels=[4, 8], chunk_bits=3)
def test_multipocket_equals_brute_force_property(
    z0, n, beta_p, mu_p, p_ub, pockets, levels, chunk_bits
):
    # chunk_bits shrinks the train phase's chunk, so that recruits split
    # into many chunks and runs of recruits straddle chunk ends.
    root = er.RootChannel(z0)
    mu_star = 3.8
    try:
        with pytest.MonkeyPatch.context() as patch:
            if chunk_bits is not None:
                patch.setattr(co, "_CHUNK_CHANNELS", 1 << chunk_bits)
            spec, _ = co.construct_multipocket(
                root, n, beta_p, mu_p, mu_star, pockets=pockets, p_ub=p_ub, levels=levels
            )
        got = {
            int(j): (int(m), int(sq), float(le))
            for j, m, sq, le in zip(
                spec.indices, spec.source_pocket, spec.squaring_count, spec.l_era
            )
        }
    except EmptyCodeError:
        got = {}
    except ValueError:
        return  # n0 < pockets: rejected before any selection runs
    want = brute_force_multipocket(root, n, beta_p, mu_p, mu_star, pockets, p_ub, levels)
    assert got == want


def test_multipocket_interleaved_pockets_equal_brute_force():
    # Loose recruiting at levels 3, 5, 7 leaves pocket subtrees interleaved
    # in index order, so the merge cuts the code into several runs.
    root = er.RootChannel(0.3)
    spec, _ = co.construct_multipocket(
        root, 10, 0.10, 8.0, 3.8, p_ub=0.9, levels=[3, 5, 7]
    )
    runs = 1 + np.count_nonzero(np.diff(spec.source_pocket))
    assert runs == 7 and set(spec.source_pocket.tolist()) == {3, 5, 7}
    want = brute_force_multipocket(root, 10, 0.10, 8.0, 3.8, 3, 0.9, [3, 5, 7])
    got = {
        int(j): (int(m), int(sq), float(le))
        for j, m, sq, le in zip(
            spec.indices, spec.source_pocket, spec.squaring_count, spec.l_era
        )
    }
    assert got == want


def _quota_bound(spec, report):
    """Sum over pockets of recruits * #{extensions meeting the quota}."""
    return sum(
        round(p.recruited_weight * 2**p.level)
        * sum(math.comb(spec.n - p.level, k) for k in range(report.quota, spec.n - p.level + 1))
        for p in report.pocket_stats
    )


@pytest.mark.parametrize("chunk", [1, 3, 16, 1 << 20])
@pytest.mark.parametrize(
    "z0, levels, runs, dropped",
    [(0.3, [3, 5, 7], 7, 0), (0.3, [2, 5, 8], 5, 2)],
)
def test_multipocket_chunks_equal_brute_force(monkeypatch, chunk, z0, levels, runs, dropped):
    # Runs of recruits cut across chunks; on [2, 5, 8] the erasure filter
    # drops 2 quota-meeting channels, so the columns end below the bound.
    monkeypatch.setattr(co, "_CHUNK_CHANNELS", chunk)
    root = er.RootChannel(z0)
    spec, report = co.construct_multipocket(root, 10, 0.10, 8.0, 3.8, p_ub=0.9, levels=levels)
    assert 1 + np.count_nonzero(np.diff(spec.source_pocket)) == runs
    assert _quota_bound(spec, report) - len(spec) == dropped
    assert sum(p.retained_weight for p in report.pocket_stats) * 2**10 == len(spec)
    got = {
        int(j): (int(m), int(sq), float(le))
        for j, m, sq, le in zip(
            spec.indices, spec.source_pocket, spec.squaring_count, spec.l_era
        )
    }
    assert got == _loose_brute_force(z0, tuple(levels))


@functools.cache
def _loose_brute_force(z0, levels):
    return brute_force_multipocket(
        er.RootChannel(z0), 10, 0.10, 8.0, 3.8, 3, 0.9, list(levels)
    )


def _check_classical_rate(root, n, table, count, budget=None):
    if budget is None:
        spec = co.select_classical(root, n, rate=count / 2**n, table=table)
    else:
        spec = co.select_classical(root, n, max_sum_erasure=budget, table=table)
    want = classical_rate_reference(table[0], count)
    assert np.array_equal(spec.indices, want.astype(np.uint64) + 1)
    assert np.array_equal(spec.l_era, table[0][want])
    assert spec.squaring_count.tolist() == [bin(int(p)).count("1") for p in want]


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.sampled_from([0.0, math.inf, 1.0, 3.5]), min_size=64, max_size=64
    ),
    count=st.integers(min_value=0, max_value=64),
    budget=st.floats(min_value=0.05, max_value=70.0),
)
def test_classical_rate_equals_lexsort_on_tie_blocks(values, count, budget):
    le = np.array(values)
    root, table = er.RootChannel(0.5), (le, np.zeros(64))
    _check_classical_rate(root, 6, table, count)
    # budget mode: the count is the longest lexsort-ordered prefix whose
    # exact erasure sum is within the budget
    prefixes = _exact_prefixes(np.exp2(-le[np.lexsort((np.arange(64), -le))]).tolist())
    budget_count = sum(prefix <= budget for prefix in prefixes)
    if budget_count == 0:
        with pytest.raises(InfeasibleTargetError):
            co.select_classical(root, 6, max_sum_erasure=budget, table=table)
    else:
        _check_classical_rate(root, 6, table, budget_count, budget)


def test_classical_rate_boundary_inside_saturated_block():
    # At n = 14, z0 = 0.2 the level holds 727 channels with l_era = inf
    # and 48 with l_era = 0; put the cut inside each block and at its edges.
    root = er.RootChannel(0.2)
    table = er.level_log_table(root, 14)
    saturated = int(np.count_nonzero(np.isinf(table[0])))
    dead = int(np.count_nonzero(table[0] == 0.0))
    assert saturated > 100 and dead > 10
    size = 2**14
    for count in (saturated // 2, saturated, saturated + 1, size - dead // 2, size):
        _check_classical_rate(root, 14, table, count)


def test_multipocket_beta_zero_keeps_all_trained():
    root = er.RootChannel(0.5)
    spec, report = co.construct_multipocket(
        root, 12, 0.0, 8.0, 3.8, pockets=3, p_ub=2.0**-6
    )
    assert report.quota == 0
    recruited = math.fsum(s.recruited_weight for s in report.pocket_stats)
    assert spec.rate == pytest.approx(recruited, abs=1e-15)


def test_multipocket_single_pocket_degenerates():
    root = er.RootChannel(0.5)
    spec, report = co.construct_multipocket(
        root, 12, 0.10, 8.0, 3.8, pockets=1, p_ub=2.0**-6
    )
    assert len(report.pocket_stats) == 1
    assert report.pocket_stats[0].level == report.n0
    assert np.all(spec.source_pocket == report.n0)


def test_multipocket_monotone_in_beta():
    root = er.RootChannel(0.5)
    sizes = []
    for beta_p in (0.0, 0.10, 0.20, 0.30, 0.40):
        try:
            spec, _ = co.construct_multipocket(
                root, 14, beta_p, 8.0, 3.8, pockets=4, p_ub=2.0**-8
            )
            sizes.append(len(spec))
        except EmptyCodeError:
            sizes.append(0)
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_multipocket_empty_when_n_too_small():
    # beta_p = .30 is past max_beta(8, 3.8), about .2361, and the message says so
    hint = r"largest achievable beta_p .* 0\.2361 \(requested 0\.3\)"
    with pytest.raises(EmptyCodeError, match=hint):
        co.construct_multipocket(
            er.RootChannel(0.5), 8, 0.30, 8.0, 3.8, pockets=4, p_ub=2.0**-10
        )


def test_multipocket_validates_parameters():
    root = er.RootChannel(0.5)
    with pytest.raises(ValueError):
        co.construct_multipocket(root, 16, 0.30, 3.0, 3.8)  # mu_p <= mu_star
    with pytest.raises(ValueError):
        co.construct_multipocket(root, 16, 0.30, 8.0, 1.5)  # mu_star <= 2
    with pytest.raises(ValueError):
        co.construct_multipocket(root, 16, 0.60, 8.0, 3.8)  # beta_p > 1/2
    with pytest.raises(ValueError):
        co.construct_multipocket(root, 16, 0.30, 8.0, 3.8, p_ub=1.5)
    with pytest.raises(ValueError):
        co.construct_multipocket(root, 16, 0.30, 8.0, 3.8, levels=[4, 4])
    with pytest.raises(ValueError):
        co.construct_multipocket(root, 16, 0.30, 8.0, 3.8, levels=[0, 4])
    with pytest.raises(ValueError):
        co.construct_multipocket(root, 16, 0.30, 8.0, 3.8, levels=[4, 20])


def test_explicit_levels_override():
    root = er.RootChannel(0.5)
    spec, report = co.construct_multipocket(
        root, 20, 0.01, 8.0, 3.8, pockets=2, p_ub=2.0**-10, levels=[14, 18]
    )
    assert [s.level for s in report.pocket_stats] == [14, 18]
    assert set(np.unique(spec.source_pocket)) <= {14, 18}


def test_pocket_stats_accounting():
    root = er.RootChannel(0.5)
    spec, report = co.construct_multipocket(
        root, 16, 0.30, 8.0, 3.8, pockets=4, p_ub=2.0**-10
    )
    rows = report.pocket_stats
    assert [r.level for r in rows] == [2, 4, 6, 8]
    assert math.fsum(r.retained_weight for r in rows) == pytest.approx(spec.rate, abs=1e-15)
    for r in rows:
        assert r.retained_weight <= r.recruited_weight + 1e-15
        assert 0.0 <= r.lost_fraction <= 1.0


def test_pocket_loss_tracks_entropy_bound():
    # measured per-pocket loss vs the 2^(-(n-m)(1-H2(eps))) estimate,
    # eps = beta_p * n / (n - m); agreement demanded up to a factor of 8
    n, beta_p = 16, 0.30
    _, report = co.construct_multipocket(
        er.RootChannel(0.5), n, beta_p, 8.0, 3.8, pockets=4, p_ub=2.0**-10
    )
    for s in report.pocket_stats:
        if s.recruited_weight == 0.0:
            continue
        eps = beta_p * n / (n - s.level)
        assert eps <= 1.0
        bound = 2.0 ** (-(n - s.level) * (1.0 - cr.binary_entropy(eps)))
        assert s.lost_fraction <= 8.0 * bound


def test_gap_shrinks_with_blocklength():
    root = er.RootChannel(0.5)
    gaps = []
    for n in (14, 16, 18):
        _, report = co.construct_multipocket(
            root, n, 0.25, 8.0, 3.8, pockets=4, p_ub=2.0**-10
        )
        gaps.append(report.gap)
    assert gaps[2] < gaps[1] < gaps[0]


def test_codespec_file_round_trip(tmp_path):
    spec, _ = co.construct_multipocket(
        er.RootChannel(0.5), 12, 0.10, 8.0, 3.8, pockets=3, p_ub=2.0**-6
    )
    path = tmp_path / "code.txt"
    co.save_codespec(spec, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "n=12"
    assert text[1].startswith("z0=") and text[2].startswith("params=")
    loaded = co.load_codespec(str(path))
    assert loaded == spec
    assert np.array_equal(loaded.l_era, spec.l_era)
    assert np.array_equal(loaded.squaring_count, spec.squaring_count)
    assert np.array_equal(loaded.source_pocket, spec.source_pocket)
    assert loaded.params == spec.params


def test_codespec_file_lines_and_token_fallback(tmp_path, monkeypatch):
    monkeypatch.setattr(co, "_LINES_PER_WRITE", 3)  # four channel lines in two writes
    spec = _spec_with_l_era([np.inf, 1e300, 256.54118673355, 0.5])
    path = tmp_path / "code.txt"
    co.save_codespec(spec, str(path))
    rows = path.read_text().splitlines()[3:]
    assert rows == [
        "j=1 m=0 sq=0 lera=inf",
        "j=2 m=0 sq=1 lera=1e+300",
        "j=3 m=0 sq=1 lera=256.54118673355",
        "j=4 m=0 sq=2 lera=0.5",
    ]
    # Lines the writer never makes go through the token parse and load the
    # same values: reordered fields, extra spaces, CRLF, a sign, an
    # underscore, an upper-case exponent and a blank line.
    path.write_bytes(
        b"n=4\nz0=0.5\nparams=\n\n"
        b"j=1 m=0 sq=0 lera=inf\r\n"
        b"  lera=1E+300   sq=+1 m=0 j=2\n"
        b"j=3 m=0 sq=1 lera=256.541_18673355\n"
        b"j=4 m=-0 sq=2 lera=.5\n"
    )
    loaded = co.load_codespec(str(path))
    assert loaded == spec


def test_codespec_load_peak_is_its_columns(monkeypatch, tmp_path):
    # 2**16 channel lines parse straight into 32 bytes of columns a line;
    # the estimate from the file size covers the traced peak, also for a
    # file of no channel and the small files that one read of a piece outweighs
    path = tmp_path / "code.txt"
    needs = []
    monkeypatch.setattr(co, "_check_memory", lambda need, what: needs.append(need))
    for n in (0, 4, 8, 10, 12, 17):
        spec = co.select_classical(er.RootChannel(0.5), n, rate=0.5)
        co.save_codespec(spec, str(path))
        tracemalloc.start()
        try:
            loaded = co.load_codespec(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == spec and len(spec) == (1 << n) // 2
        need = needs.pop()
        assert peak <= need, (n, peak, need)
    assert peak < 64 * len(spec), peak


def _per_line_load(path):
    """load_codespec with every piece read as text, line by line."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(co, "_canonical_columns", lambda piece: None)
        return co.load_codespec(path)


def _load_or_message(load, path):
    try:
        spec = load(path)
    except ValueError as exc:
        return str(exc)
    columns = spec.indices, spec.l_era.view(np.uint64), spec.source_pocket
    return spec.n, spec.z0, spec.params, [(c.dtype, c.tolist()) for c in columns]


# Ways to write a channel line that save_codespec never writes, each read as
# the same channel: the variants of test_codespec_file_lines_and_token_fallback
# and a zero-padded m.
_LINE_VARIANTS = [
    "canonical", "reordered", "spaced", "crlf", "signed sq", "underscore",
    "upper case", "bare point", "signed zero m", "padded m",
]


def _channel_line(variant, j, m, sq, lera):
    if variant == "signed zero m" and m == 0:
        m = "-0"
    elif variant == "padded m":
        m = f"0{m}"
    if variant == "signed sq":
        sq = f"+{sq}"
    if variant == "underscore":
        lera = re.sub(r"(\d)(\d)", r"\1_\2", lera, count=1)
    elif variant == "upper case":
        lera = lera.upper()
    elif variant == "bare point":
        lera = re.sub(r"^(-?)0\.", r"\1.", lera)
    if variant == "reordered":
        return f"lera={lera} sq={sq} m={m} j={j}"
    if variant == "spaced":
        return f"  j={j}   m={m} sq={sq}\tlera={lera} "
    return f"j={j} m={m} sq={sq} lera={lera}" + ("\r" if variant == "crlf" else "")


# Channel lines that no reading takes, each as test_simulate_bad_code_line_exits_2 has it.
_BAD_LINES = [
    "j=1 m=0 lera=1.0",
    "j=1 m=0 sq=0 lera=1.0 x=2",
    "j=1 m=0 sq=0 lera=1.0 j=2",
    "j=one m=0 sq=0 lera=1.0",
    "j=18446744073709551616 m=0 sq=0 lera=1.0",
    "j=1 m=0 sq=256 lera=1.0",
]


@st.composite
def _code_file(draw):
    """The text of a level-63 code file: channel lines canonical or in a
    variant, blank lines between them, and at most one malformed line."""
    rows = draw(st.lists(
        st.tuples(
            st.integers(1, 1 << 63) | st.integers(1, 1 << 20),
            st.integers(0, 63),
            st.floats(allow_nan=True) | st.sampled_from([math.inf, 5e-324, 1e300, 0.5]),
            st.sampled_from(_LINE_VARIANTS),
        ),
        max_size=12,
        unique_by=lambda row: row[0],
    ).map(sorted))
    if rows and draw(st.booleans()):  # a j past 2**63: out of range, or past 2**64
        rows[-1] = (draw(st.integers((1 << 63) + 1, 1 << 64)), *rows[-1][1:])
    lines = []
    for j, m, lera, variant in rows:
        lines += [""] * draw(st.integers(0, 1))
        sq = bin((j - 1) & ((1 << (63 - m)) - 1)).count("1")
        lines.append(_channel_line(variant, j, m, sq, repr(lera)))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BAD_LINES)))
    return "n=63\nz0=0.5\nparams=mode=classical\n" + "".join(f"{ln}\n" for ln in lines)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_code_file(), piece=st.integers(1, 200) | st.just(1 << 17))
@example(
    text="n=63\nz0=0.5\nparams=\n\nj=9223372036854775808 m=63 sq=0 lera=1e+300\n"
    "j=9223372036854775809 m=0 sq=63 lera=inf\n",
    piece=1 << 17,
)
@example(  # the j past 64 bits comes before the line with no sq=
    text="n=63\nz0=0.5\nparams=mode=classical\n"
    "j=18446744073709551616 m=0 sq=63 lera=0.0\nj=1 m=0 lera=1.0\n",
    piece=1 << 17,
)
def test_codespec_pieces_load_as_the_per_line_loop(tmp_path, text, piece):
    # Pieces of one to a few lines put every variant on a piece edge.  The
    # columns, or the error with its file and line, are the per-line loop's;
    # the line it names is the first malformed one, a _BAD_LINES line or the
    # channel whose j is past 64 bits.
    path = tmp_path / "code.txt"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(co, "_PIECE_BYTES", piece)
        got = _load_or_message(co.load_codespec, str(path))
    assert got == _load_or_message(_per_line_load, str(path))
    malformed = [
        lineno
        for lineno, ln in enumerate(text.splitlines(), 1)
        if ln in _BAD_LINES or f"j={1 << 64}" in ln
    ]
    if malformed:
        assert got.startswith(f"{path}, line {malformed[0]}: "), got


def test_codespec_files_the_writer_makes_load_by_columns(tmp_path, monkeypatch):
    # every line save_codespec writes is taken whole into the columns: no
    # piece is left to the per-line loop
    columns = co._canonical_columns

    def refuse(piece):
        parsed = columns(piece)
        if parsed is None:
            pytest.fail(f"{bytes(piece)[:60]!r}... was left to the per-line loop")
        return parsed

    root = er.RootChannel(0.5)
    codes = [
        co.select_classical(root, 17, rate=0.5),
        co.select_classical(er.RootChannel(0.2), 14, max_sum_erasure=1e-3),
        co.select_classical(root, 3, rate=0.0),
        co.construct_multipocket(root, 12, 0.10, 8.0, 3.8, pockets=3, p_ub=2.0**-6)[0],
        co.construct_multipocket(root, 20, 0.25, 8.0, 3.8, pockets=4, p_ub=2.0**-10)[0],
        _spec_with_l_era([np.inf, 1e300, 256.54118673355, 0.5, 5e-324, 0.0, -1.5, -np.inf]),
        co.CodeSpec(
            n=63,
            z0=0.5,
            indices=np.array([1, 10**18, 1 << 63], dtype=np.uint64),
            l_era=np.array([2.2250738585072014e-308, 1.7976931348623157e308, 1e-5]),
            source_pocket=np.array([0, 7, 63], dtype=np.int64),
        ),
    ]
    path = tmp_path / "code.txt"
    for spec in codes:
        co.save_codespec(spec, str(path))
        # pieces of one line and of a few, for the small codes
        for piece in [1 << 17, 1 << 12] + ([1, 100] if len(spec) < 100 else []):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(co, "_PIECE_BYTES", piece)
                patch.setattr(co, "_canonical_columns", refuse)
                loaded = co.load_codespec(str(path))
            assert loaded == spec
            assert loaded.l_era.view(np.uint64).tolist() == spec.l_era.view(np.uint64).tolist()
            assert loaded.indices.dtype == np.uint64 and loaded.source_pocket.dtype == np.int64


_UTF8_HEADER = b"n=4\nz0=0.5\nparams=mode=classical\n"
_UTF8_LINE = b"j=1 m=0 sq=0 lera=1.0\n"


@pytest.mark.parametrize(
    "data, piece, lineno",
    [
        (b"n=4\nz0=0.\xff5\nparams=\n", 1 << 17, 2),
        (_UTF8_HEADER + _UTF8_LINE + b"\xff" + _UTF8_LINE, 1 << 17, 5),
        (_UTF8_HEADER + _UTF8_LINE * 2 + b"j=3 m=0 sq=\xff1 lera=1.0\n", 1 << 17, 6),
        (_UTF8_HEADER + _UTF8_LINE * 20 + b"j=1 m=0\xe2\x82 sq=0\n", 64, 24),
        (_UTF8_HEADER.replace(b"\n", b"\r") + b"j=1 m=0 sq=0 lera=1\r\xff\r", 1 << 17, 5),
    ],
    ids=["header", "line start", "line middle", "later piece", "cr only"],
)
def test_codespec_not_utf8_names_file_and_line(tmp_path, monkeypatch, data, piece, lineno):
    path = tmp_path / "code.txt"
    path.write_bytes(data)
    monkeypatch.setattr(co, "_PIECE_BYTES", piece)
    with pytest.raises(ValueError) as exc:
        co.load_codespec(str(path))
    bad = re.search(rb"[\x80-\xff]", data).group()[0]
    assert str(exc.value) == f"{path}, line {lineno}: byte 0x{bad:02x} is not UTF-8"


def _limit_line(j=10**18, m=0, sq="{}", lera="0.5", end="\n"):
    """A level-63 channel line; sq formats the count that j and m give."""
    count = bin((int(j) - 1) & ((1 << (63 - int(m))) - 1)).count("1")
    return f"j={j} m={m} sq={sq.format(count)} lera={lera}{end}"


@pytest.mark.parametrize(
    "line, taken",
    [
        (_limit_line(), True),  # j of 19 digits
        (_limit_line(j=f"0{10**18}"), False),
        (_limit_line(m="7".zfill(18)), True),
        (_limit_line(m="7".zfill(19)), False),
        (_limit_line(sq="255"), True),
        (_limit_line(sq="256"), False),
        (_limit_line(sq="{:04}"), False),
        (_limit_line(lera="-1.2345678901234567e-100"), True),  # 24 bytes
        (_limit_line(lera="-1.23456789012345678e-100"), False),  # 25 bytes
        (_limit_line(lera="-inf"), True),
        *(
            (_limit_line(lera=lera), False)
            for lera in ["nan", "INF", "1e5", "1.e5", ".5", "+1.0", "1E+5"]
        ),
        (_limit_line(end=""), False),
    ],
)
def test_codespec_canonical_set_limits(tmp_path, monkeypatch, line, taken):
    # Lines at each limit of what the columns take, and just past it.  The
    # values, or the error, are the per-line loop's either way.
    path = tmp_path / "code.txt"
    path.write_text("n=63\nz0=0.5\nparams=mode=classical\n" + line)
    parsed = []
    columns = co._canonical_columns

    def spy(piece):
        parsed.append(columns(piece))
        return parsed[-1]

    monkeypatch.setattr(co, "_canonical_columns", spy)
    got = _load_or_message(co.load_codespec, str(path))
    assert [p is not None for p in parsed] == [taken]
    assert got == _load_or_message(_per_line_load, str(path))


def test_codespec_validates_indices():
    with pytest.raises(ValueError):
        co.CodeSpec(
            n=2,
            z0=0.5,
            indices=np.array([3, 2], dtype=np.uint64),
            l_era=np.ones(2),
            source_pocket=np.zeros(2, dtype=np.int64),
            params={},
        )


@pytest.mark.parametrize(
    "column, values",
    [
        ("indices", np.array([1, 2, 4])),  # int64: the squaring count needs uint64
        ("l_era", np.array([1, 2, 3])),
        ("source_pocket", np.array([0.0, 1.7, 2.0])),
    ],
)
def test_codespec_refuses_a_column_of_the_wrong_kind(column, values):
    columns = dict(
        indices=np.array([1, 2, 4], dtype=np.uint64),
        l_era=np.ones(3),
        source_pocket=np.zeros(3, dtype=np.int64),
    )
    columns[column] = values
    with pytest.raises(ValueError, match=f"column {column} must hold"):
        co.CodeSpec(n=2, z0=0.5, **columns)


def test_codespec_refuses_a_pocket_outside_its_levels():
    # the squaring count shifts by n - m, so a pocket below 0 or above n
    # would derive it from a wrapped mask
    for pocket in (-1, 5, np.iinfo(np.int64).min, np.iinfo(np.int64).max):
        with pytest.raises(ValueError, match=r"source pocket outside \[0, 4\]"):
            co.CodeSpec(
                n=4,
                z0=0.5,
                indices=np.array([3, 9], dtype=np.uint64),
                l_era=np.ones(2),
                source_pocket=np.array([0, pocket], dtype=np.int64),
            )


def _code_rows(n):
    """Strictly increasing indices in [1, 2**n], each with a pocket in [0, n]."""
    rows = st.tuples(st.integers(1, 1 << n), st.integers(0, n))
    return st.lists(rows, max_size=40, unique_by=lambda r: r[0]).map(sorted)


@settings(max_examples=200, deadline=None)
@given(
    code=st.integers(0, 63).flatmap(lambda n: st.tuples(st.just(n), _code_rows(n))),
    chunk=st.sampled_from([1, 3, 7, 1 << 20]),
)
@example(code=(63, [(1, 0), (2, 63), (1 << 62, 1), ((1 << 63) - 1, 0), (1 << 63, 0)]), chunk=2)
@example(code=(63, [(1 << 63, 63)]), chunk=1)
@example(code=(0, [(1, 0)]), chunk=1)
@example(code=(5, []), chunk=3)
def test_squaring_count_is_the_popcount_below_the_pocket(code, chunk):
    # the derived column against Python ints, with chunks small enough that
    # their edges fall inside the code
    n, rows = code
    spec = co.CodeSpec(
        n=n,
        z0=0.5,
        indices=np.array([j for j, _ in rows], dtype=np.uint64),
        l_era=np.zeros(len(rows)),
        source_pocket=np.array([m for _, m in rows], dtype=np.int64),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(co, "_CHUNK_CHANNELS", chunk)
        got = spec.squaring_count
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert got.tolist() == [bin((j - 1) & ((1 << (n - m)) - 1)).count("1") for j, m in rows]


def test_gap_decay_script_runs(capsys, monkeypatch):
    # scripts/gap_decay.py at its default z0, mu', mu*, pockets and p_ub
    script = Path(__file__).resolve().parents[1] / "scripts" / "gap_decay.py"
    levels, betas = [12, 14, 16], [0.0, 0.25]
    argv = ["gap_decay.py", "--levels", *map(str, levels), "--betas", *map(str, betas)]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == len(betas)
    root = er.RootChannel(0.5)
    for beta_p, line in zip(betas, lines):
        want = [
            co.construct_multipocket(root, n, beta_p, 8.0, 3.8, pockets=4, p_ub=2.0**-10)[1].gap
            for n in levels
        ]
        assert line.startswith(f"beta'={beta_p}: n={levels} gaps=")
        printed = re.search(r"gaps=\[(.*?)\]", line).group(1)
        assert printed == ", ".join(f"{g:.5f}" for g in want)
        assert "log2-slope=" in line
    assert "gaps=[0.48975, 0.46106, 0.44229]" in lines[1]
