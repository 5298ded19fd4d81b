"""Encoder algebra, SC decoding on erasure patterns, and the two error routes."""

import functools
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ChannelPath, channel_erasure, polar_encode, polarize_prob, sc_decode_bec

from polarbec import codec, construction as co, erasure as er, errors
from polarbec.errors import DecodingInconsistencyError, LevelTooLargeError

LEVEL3_HALF = [
    0.99609375,
    0.87890625,
    0.80859375,
    0.31640625,
    0.68359375,
    0.19140625,
    0.12109375,
    0.00390625,
]


def _spec_single(n: int, j: int, z0: float = 0.5) -> co.CodeSpec:
    le = channel_erasure(er.RootChannel(z0), ChannelPath.from_index(n, j))
    return co.CodeSpec(
        n=n,
        z0=z0,
        indices=np.array([j], dtype=np.uint64),
        l_era=np.array([le.l_era]),
        source_pocket=np.zeros(1, dtype=np.int64),
        params={},
    )


def _bare_spec(n: int, indices, z0: float = 0.5) -> co.CodeSpec:
    """The channels in indices (1-based) with zeroed per-channel stats."""
    m = len(indices)
    return co.CodeSpec(
        n=n,
        z0=z0,
        indices=np.asarray(indices, dtype=np.uint64),
        l_era=np.zeros(m),
        source_pocket=np.zeros(m, dtype=np.int64),
        params={},
    )


def _empty_spec(n: int, z0: float = 0.5) -> co.CodeSpec:
    return _bare_spec(n, [], z0)


def test_kernel_pairs():
    assert polar_encode([0, 0]).tolist() == [0, 0]
    assert polar_encode([1, 0]).tolist() == [1, 0]
    assert polar_encode([0, 1]).tolist() == [1, 1]
    assert polar_encode([1, 1]).tolist() == [0, 1]


def test_encode_level2_rows():
    # rows of the squared kernel, one unit vector at a time
    assert polar_encode([1, 0, 0, 0]).tolist() == [1, 0, 0, 0]
    assert polar_encode([0, 1, 0, 0]).tolist() == [1, 1, 0, 0]
    assert polar_encode([0, 0, 1, 0]).tolist() == [1, 0, 1, 0]
    assert polar_encode([0, 0, 0, 1]).tolist() == [1, 1, 1, 1]


def test_encode_validation():
    with pytest.raises(ValueError):
        polar_encode([0, 1, 0])
    with pytest.raises(ValueError):
        polar_encode([])
    with pytest.raises(ValueError):
        polar_encode([0, 2])
    with pytest.raises(ValueError):
        polar_encode([[0, 1], [1, 0]])


@settings(max_examples=40)
@given(
    n=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
def test_encode_linear_and_involutive(n, data):
    size = 1 << n
    u = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)), dtype=np.int8)
    v = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)), dtype=np.int8)
    assert np.array_equal(
        polar_encode(u ^ v), polar_encode(u) ^ polar_encode(v)
    )
    assert np.array_equal(polar_encode(polar_encode(u)), u)


def test_prime_string_rows_map_to_indices():
    # Eight third-level channels listed by nesting order: outermost prime is
    # the last polarization step, so reading a row (r2, r1, r0) as steps
    # means swapping the top two bits to land on the path (r1, r2, r0).
    rows = [(r >> 2 & 1, r >> 1 & 1, r & 1) for r in range(8)]
    paths = [(r1, r2, r0) for (r2, r1, r0) in rows]
    js = [ChannelPath(3, p).index for p in paths]
    assert js == [1, 2, 5, 6, 3, 4, 7, 8]
    root = er.RootChannel(0.5)
    for path, j in zip(paths, js):
        got = channel_erasure(root, ChannelPath(3, path)).prob
        assert got == pytest.approx(LEVEL3_HALF[j - 1], abs=1e-15)


def test_decode_no_erasures_round_trip():
    rng = np.random.default_rng(11)
    root = er.RootChannel(0.4)
    for n in range(1, 7):
        size = 1 << n
        spec = co.select_classical(root, n, rate=0.5)
        info_pos = spec.indices.astype(int) - 1
        frozen_pos = np.setdiff1d(np.arange(size), info_pos)
        u = rng.integers(0, 2, size=size).astype(np.int8)
        x = polar_encode(u)
        res = sc_decode_bec(
            np.zeros(size, dtype=bool), x, spec, u[frozen_pos]
        )
        assert res.ok and res.first_failure is None
        assert np.array_equal(res.info_bits, u[info_pos])


def test_repetition_code_corrects_up_to_three_erasures():
    spec = _spec_single(2, 4)
    for bit in (0, 1):
        u = np.array([0, 0, 0, bit], dtype=np.int8)
        x = polar_encode(u)
        for k in (1, 2, 3):
            for pos in itertools.combinations(range(4), k):
                mask = np.zeros(4, dtype=bool)
                mask[list(pos)] = True
                res = sc_decode_bec(mask, x, spec, np.zeros(3, dtype=np.int8))
                assert res.ok
                assert res.info_bits.tolist() == [bit]


def test_all_erased_reports_first_selected_channel():
    spec = _spec_single(2, 4)
    res = sc_decode_bec(
        np.ones(4, dtype=bool),
        np.zeros(4, dtype=np.int8),
        spec,
        np.zeros(3, dtype=np.int8),
    )
    assert not res.ok
    assert res.info_bits is None
    assert res.first_failure == 4


def test_frozen_mismatch_raises():
    spec = _spec_single(1, 2)
    with pytest.raises(DecodingInconsistencyError):
        sc_decode_bec(
            np.zeros(2, dtype=bool),
            np.array([0, 1], dtype=np.int8),  # says u1 = 1, frozen to 0
            spec,
            np.zeros(1, dtype=np.int8),
        )


def test_decode_input_validation():
    spec = _spec_single(1, 2)
    with pytest.raises(ValueError):
        sc_decode_bec(np.zeros(4, dtype=bool), np.zeros(2, dtype=np.int8), spec, [0])
    with pytest.raises(ValueError):
        sc_decode_bec(np.zeros(2, dtype=bool), np.zeros(4, dtype=np.int8), spec, [0])
    with pytest.raises(ValueError):
        sc_decode_bec(np.zeros(2, dtype=bool), np.array([0, 3]), spec, [0])
    with pytest.raises(ValueError):
        sc_decode_bec(np.zeros(2, dtype=bool), np.zeros(2, dtype=np.int8), spec, [0, 1])


def _bits(mask: int, size: int) -> np.ndarray:
    return np.array([mask >> t & 1 for t in range(size)], dtype=np.int8)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    rate_idx=st.integers(min_value=0, max_value=2),
    data=st.data(),
)
def test_profile_matches_decoder(n, rate_idx, data):
    size = 1 << n
    rate = (0.25, 0.5, 0.75)[rate_idx]
    spec = co.select_classical(er.RootChannel(0.5), n, rate=rate)
    info_pos = spec.indices.astype(int) - 1
    frozen_pos = np.setdiff1d(np.arange(size), info_pos)
    known = _bits(data.draw(st.integers(0, (1 << size) - 1)), size).astype(bool)
    profile = codec._resolution_profile(known.copy())
    nonzero = _bits(data.draw(st.integers(1, (1 << size) - 1)), size)
    for u in (np.zeros(size, dtype=np.int8), nonzero):
        res = sc_decode_bec(~known, polar_encode(u), spec, u[frozen_pos])
        assert res.ok == bool(profile[info_pos].all())
        if res.ok:
            assert np.array_equal(res.info_bits, u[info_pos])
        else:
            want = int(spec.indices[int(np.argmin(profile[info_pos]))])
            assert res.first_failure == want


def _rational_erasures(z0: Fraction, n: int) -> list[Fraction]:
    # expanding children in (worse, better) order per parent keeps index order
    out = [z0]
    for _ in range(n):
        out = [polarize_prob(z, bit) for z in out for bit in (0, 1)]
    return out


def _genie_marginals(z0: Fraction, n: int) -> list[Fraction]:
    """P[input i unresolved | all earlier inputs supplied], by enumeration."""
    size = 1 << n
    totals = [Fraction(0)] * size
    for pattern in range(1 << size):
        known = np.array([(pattern >> t) & 1 == 1 for t in range(size)])
        weight = Fraction(1)
        for t in range(size):
            weight *= (1 - z0) if known[t] else z0
        profile = codec._resolution_profile(known)
        for i in range(size):
            if not profile[i]:
                totals[i] += weight
    return totals


@pytest.mark.parametrize("z0", [Fraction(1, 2), Fraction(0.2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_genie_marginals_equal_channel_erasures(z0, n):
    got = _genie_marginals(z0, n)
    want = _rational_erasures(z0, n)
    assert got == want  # exact rational identity, no tolerance


def test_exact_block_error_level1():
    assert codec.exact_block_error(_spec_single(1, 2), er.RootChannel(0.5)) == 0.25
    assert codec.exact_block_error(_spec_single(1, 1), er.RootChannel(0.5)) == 0.75


def test_exact_block_error_repetition():
    got = codec.exact_block_error(_spec_single(2, 4), er.RootChannel(0.5))
    assert got == pytest.approx(0.0625, abs=1e-15)


def test_exact_block_error_empty_and_too_large():
    assert codec.exact_block_error(_empty_spec(2), er.RootChannel(0.5)) == 0.0
    # n = 0 has no halves to class by: the one position fails when erased
    assert codec.exact_block_error(_bare_spec(0, [1], 0.2), er.RootChannel(0.2)) == 0.2
    assert codec.exact_block_error(_empty_spec(0, 0.2), er.RootChannel(0.2)) == 0.0
    with pytest.raises(LevelTooLargeError):
        codec.exact_block_error(_spec_single(5, 32), er.RootChannel(0.5))


@pytest.mark.parametrize("z0", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_block_error_sandwich(n, z0):
    root = er.RootChannel(z0)
    spec = co.select_classical(root, n, rate=0.5)
    exact = codec.exact_block_error(spec, root)
    worst_single = float(np.exp2(-spec.l_era).max())
    total = float(np.exp2(-spec.l_era).sum())
    assert worst_single - 1e-15 <= exact <= min(1.0, total) + 1e-15
    assert total == pytest.approx(2.0 ** -co.union_bound(spec), rel=1e-12)


@pytest.mark.parametrize(
    "rate, z0, want",
    # at z0 = 1/2 every pattern weighs 2**-16, so the value is a count over 2**16
    [
        pytest.param(0.5, 0.2, 0.03836713034711044, id="0.2-0.03836713034711044"),
        pytest.param(0.5, 0.5, 0.6524505615234375, id="0.5-0.6524505615234375"),
        (0.25, 0.2, 5.301558968320005e-05),
        (0.25, 0.5, 0.0544891357421875),  # 3,571 patterns
        (0.75, 0.2, 0.3807550512365571),
        (0.75, 0.5, 0.9794769287109375),  # 64,191 patterns
    ],
)
def test_exact_block_error_pinned_level4(rate, z0, want):
    root = er.RootChannel(z0)
    spec = co.select_classical(root, 4, rate=rate)
    assert codec.exact_block_error(spec, root) == want


@functools.cache
def _profiles_of_all_patterns(n: int) -> np.ndarray:
    """Row p is the resolution profile when bit t of p erases position t."""
    size = 1 << n
    known = (np.arange(1 << size)[:, None] >> np.arange(size) & 1) == 0
    return codec._resolution_profile(known)


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), data=st.data())
def test_exact_block_error_counts_profile_failures(n, data):
    # the two oracles share no code: message passing against the AND/OR profile
    size = 1 << n
    profile = _profiles_of_all_patterns(n)
    info_sets = st.lists(st.integers(0, size - 1), min_size=1, unique=True).map(sorted)
    first = data.draw(info_sets)
    second = data.draw(info_sets.filter(lambda info: info != first))
    # the first set again: no memo may carry over from the calls before it
    for info in (first, second, first):
        failures = int((~profile[:, info].all(axis=1)).sum())
        spec = _bare_spec(n, [i + 1 for i in info])
        assert codec.exact_block_error(spec, er.RootChannel(0.5)) * 2**size == failures


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), data=st.data())
def test_exact_block_error_weighs_profile_failures_by_received_count(n, data):
    # At z0 = 0.2 patterns weigh by their received count, so a root class
    # booked under the wrong count changes the value: the profile's
    # failures per received count, weighted and summed as exact_block_error
    # states it, match it bit for bit.
    z0, size = 0.2, 1 << n
    profile = _profiles_of_all_patterns(n)
    received = size - np.bitwise_count(np.arange(1 << size))
    info = data.draw(st.lists(st.integers(0, size - 1), min_size=1, unique=True).map(sorted))
    failed = ~profile[:, info].all(axis=1)
    fail_by_received = np.bincount(received[failed], minlength=size + 1).tolist()
    terms = [
        count * z0 ** (size - k) * (1.0 - z0) ** k
        for k, count in enumerate(fail_by_received)
        if count
    ]
    spec = _bare_spec(n, [i + 1 for i in info], z0)
    assert codec.exact_block_error(spec, er.RootChannel(z0)) == math.fsum(terms)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shared_memo_outcomes_equal_fresh_memo_decodes(n):
    # One memo for the whole enumeration, as exact_block_error keeps it,
    # against a fresh memo per decode; the outcome is the decoded pair or the
    # unresolved position (an int).  Each selection also sends a random
    # input block, so value bits and frozen ones are not all zero.
    size = 1 << n
    full = (1 << size) - 1
    rng = np.random.default_rng(n)
    for _ in range(4):
        info = rng.choice(size, size=rng.integers(1, size + 1), replace=False)
        is_frozen = np.ones(size, dtype=bool)
        is_frozen[info] = False
        u = rng.integers(0, 2, size=size).astype(np.int8)
        frozen, forced = codec._to_mask(is_frozen), codec._to_mask(is_frozen & (u == 1))
        x = codec._to_mask(polar_encode(u))
        for sent, values in ((0, 0), (x, forced)):
            memo, kinds = {}, set()
            for pattern in range(1 << size):
                known = full ^ pattern
                args = (known, sent & known, size, 0, frozen, values)
                out = codec._resolve(*args, memo)
                assert out == codec._resolve(*args, {})
                kinds.add(type(out))
            assert kinds == {int, tuple}


def test_first_channel_unresolved_is_a_failure():
    # The unresolved position of channel 1 is 0, which is false as a truth
    # value: the code must fail on it all the same.  Input 0 is the parity
    # of the whole block, so any erasure leaves it unknown.
    size = 4
    spec = _bare_spec(2, [1])
    assert codec.exact_block_error(spec, er.RootChannel(0.5)) == 1.0 - 0.5**size
    full = _bare_spec(2, [1, 2, 3, 4])
    for pattern in range(1, 1 << size):
        erased = _bits(pattern, size).astype(bool)
        res = sc_decode_bec(erased, np.zeros(size, dtype=np.int8), full, [])
        assert not res.ok and res.first_failure == 1
        res = sc_decode_bec(erased, np.zeros(size, dtype=np.int8), spec, np.zeros(3))
        assert not res.ok and res.first_failure == 1


def test_inconsistency_in_a_memoized_subtree_propagates_unstored():
    # u = (1, 0, 0, 0) sent through a code that freezes every input to 0:
    # the width-2 check-node subtree (key (0b11, 0b01, 2, 0)) meets the
    # frozen input 0 observed as 1.  The error leaves both that subtree and
    # its width-1 child out of the memo, and keeps what was stored before.
    size = 4
    every = (1 << size) - 1  # every position received, every input frozen
    memo = {}
    assert codec._resolve(every, 0, size, 0, every, 0, memo) == (0, 0)
    before = dict(memo)
    x = codec._to_mask(polar_encode([1, 0, 0, 0]))
    assert x == 0b0001
    with pytest.raises(DecodingInconsistencyError, match="channel 1"):
        codec._resolve(every, x, size, 0, every, 0, memo)
    assert memo == before
    assert (0b11, 0b01, 2, 0) not in memo and (0b1, 0b1, 1, 0) not in memo


def test_exact_block_error_memory_stays_small():
    # subtree states number in the hundreds at n = 4, about 64 kB traced;
    # storing the outcomes of the 3**8 root classes as well takes about 1 MB
    root = er.RootChannel(0.5)
    spec = co.select_classical(root, 4, rate=0.5)
    tracemalloc.start()
    try:
        codec.exact_block_error(spec, root)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_wilson_interval_properties():
    for errors, trials in [(0, 50), (1, 50), (25, 50), (50, 50), (3, 7)]:
        lo, hi = codec.wilson_interval(errors, trials)
        p = errors / trials
        assert 0.0 <= lo <= p <= hi <= 1.0
    assert codec.wilson_interval(0, 100)[0] == 0.0
    assert codec.wilson_interval(100, 100)[1] == 1.0
    narrow = codec.wilson_interval(10, 100)
    wide = codec.wilson_interval(10, 100, z=3.0)
    assert wide[0] < narrow[0] and narrow[1] < wide[1]
    with pytest.raises(ValueError):
        codec.wilson_interval(5, 0)
    with pytest.raises(ValueError):
        codec.wilson_interval(8, 7)


def test_simulate_deterministic_and_batch_invariant():
    spec = co.select_classical(er.RootChannel(0.5), 3, rate=0.5)
    root = er.RootChannel(0.5)
    a = codec.simulate(spec, root, trials=2000, seed=5)
    b = codec.simulate(spec, root, trials=2000, seed=5)
    c = codec.simulate(spec, root, trials=2000, seed=5, batch=137)
    assert a.block_errors == b.block_errors == c.block_errors
    assert a.trials == 2000
    assert c.batches.shape == (15, 2) and c.batches.dtype == np.int64
    assert sum(t for _, t in c.batches) == 2000
    assert sum(e for e, _ in c.batches) == c.block_errors
    d = codec.simulate(spec, root, trials=2000, seed=6)
    assert d.block_errors != a.block_errors  # would be astonishing otherwise
    lo, hi = a.wilson_ci95
    assert lo <= a.estimate <= hi


def test_simulate_degenerate_channels():
    spec = _spec_single(2, 4)
    assert codec.simulate(spec, er.RootChannel(0.0), 500, seed=1).block_errors == 0
    assert codec.simulate(spec, er.RootChannel(1.0), 500, seed=1).block_errors == 500
    assert codec.simulate(_empty_spec(2), er.RootChannel(0.7), 100, seed=1).block_errors == 0


def test_simulate_validation():
    spec = _spec_single(2, 4)
    with pytest.raises(ValueError):
        codec.simulate(spec, er.RootChannel(0.5), 0, seed=1)
    with pytest.raises(ValueError):
        codec.simulate(spec, er.RootChannel(0.5), 10, seed=1, batch=0)


def test_simulate_seed_range():
    spec = _spec_single(2, 4)
    root = er.RootChannel(0.5)
    for seed in (-1, 2**64, 2**80):
        with pytest.raises(ValueError, match="seed"):
            codec.simulate(spec, root, 10, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2**64 - 1):
            assert codec.simulate(spec, root, 10, seed=seed).trials == 10


def _documented_erasures(seed: int, z0: float, n: int, trials: int) -> np.ndarray:
    """Erasure patterns of trials 0 .. trials - 1, one row each, rebuilt lane
    by lane from the stream simulate() documents.

    Lane l of word w = row * 2**n + i is position i of trial 64 * row + l.
    Each lane compares its own bits of U, one per round, with c's bits,
    c = ceil(z0 * 2**53); the first bit that differs decides the lane,
    erased where c's bit is the 1 (U < c).  Round k of group g (words g * 2**16 ..
    (g + 1) * 2**16 - 1) reads Philox(key=seed, counter=[0, 0, k, g]):
    rounds below 8 the word at each word's offset, later rounds successive
    words for the words with a lane still undecided.  Rounds end after c's
    last set bit; lanes undecided then are not erased.
    """
    size = 1 << n
    c = math.ceil(z0 * 2**53)
    words = -(-trials // 64) * size
    erased = np.zeros((words, 64), dtype=bool)
    for start in range(0, words, 2**16):
        undecided = np.ones((min(2**16, words - start), 64), dtype=bool)
        for k in range(53):
            if c % 2 ** (53 - k) == 0:  # c's bits from k on are all 0
                break
            c_bit = bool(c >> (52 - k) & 1)
            live = np.arange(len(undecided)) if k < 8 else np.flatnonzero(undecided.any(axis=1))
            raw = np.random.Philox(key=seed, counter=[0, 0, k, start >> 16]).random_raw(len(live))
            # column l is bit l of each word
            u_bit = np.unpackbits(raw.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1,
                                  bitorder="little").astype(bool)
            decided = undecided[live] & (u_bit != c_bit)
            if c_bit:
                erased[start + live] |= decided
            undecided[live] &= ~decided
    return erased.reshape(-1, size, 64).transpose(0, 2, 1).reshape(-1, size)[:trials]


@pytest.mark.parametrize(
    "n, z0, trials",
    [(2, 0.5, 150), (4, 0.2, 300), (6, 0.45, 203), pytest.param(17, 0.45, 4, id="17-0.45-4")],
)
def test_simulate_follows_documented_stream(n, z0, trials):
    # Rebuild every trial's pattern from the stream simulate() documents and
    # decode it with the message-passing decoder; trial counts that are not
    # multiples of 64 leave padding lanes that must not count as failures.
    # At n = 17 a row spans two groups, and the one channel (erased with
    # probability 0.56) hangs on positions in both.
    size = 1 << n
    seed = 2**63 + 12345
    root = er.RootChannel(z0)
    spec = _bare_spec(n, [8192]) if n > 16 else co.select_classical(root, n, rate=0.5)
    frozen = np.zeros(size - len(spec), dtype=np.int8)
    patterns = _documented_erasures(seed, z0, n, trials)
    assert abs(patterns.mean() - z0) < 0.05
    failed = np.array([
        not sc_decode_bec(erased, np.zeros(size, dtype=np.int8), spec, frozen).ok
        for erased in patterns
    ])
    assert 0 < failed.sum() < trials
    for batch in (1, 63, 64, 65, 100, 333, 1000, trials, 4096):
        got = codec.simulate(spec, root, trials, seed, batch=batch)
        assert got.block_errors == failed.sum()
        assert got.batches.tolist() == [
            [int(failed[s : s + batch].sum()), min(batch, trials - s)]
            for s in range(0, trials, batch)
        ]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("z0", [0.2, 0.45, 0.5, 0.75])
def test_simulate_agrees_with_exact_block_error(n, z0):
    # Dyadic z0 (one or two bits of c) stops the draw after one or two rounds.
    root = er.RootChannel(z0)
    spec = co.select_classical(root, n, rate=0.5)
    got = codec.simulate(spec, root, 20_000, seed=17)
    lo, hi = codec.wilson_interval(got.block_errors, got.trials, z=5.0)
    assert lo <= codec.exact_block_error(spec, root) <= hi


@pytest.mark.parametrize("n, z0, short, long", [(10, 0.4, 5000, 12_000), (17, 0.45, 100, 150)])
def test_simulate_prefix_of_a_longer_run(n, z0, short, long):
    # Appending trials only appends words: the short run ends inside a row,
    # and at n = 10 inside a group of 64 rows, which it reads only in part.
    root = er.RootChannel(z0)
    spec = co.select_classical(root, n, rate=0.5)
    for batch in (10, 50):
        head = codec.simulate(spec, root, short, seed=21, batch=batch).batches.tolist()
        whole = codec.simulate(spec, root, long, seed=21, batch=batch).batches.tolist()
        assert whole[: len(head)] == head
        assert 0 < sum(e for e, _ in head) < short


@pytest.mark.parametrize("n", [1, 5, 10, 17])
def test_simulate_independent_of_chunks_and_workers(n, monkeypatch, workers, short_switch):
    # Each group of 2**16 words is one chunk.  At n = 1 and 5 the run is one
    # group, cut short; at n = 10 it is 313 rows, about five groups of 64
    # rows; at n = 17 it is three rows of two groups each.  The slab budgets
    # give slabs of 256, 64, 192 and 384 (the whole run) rows at n = 10, and
    # of 2, 1, 1 and 3 (the whole run) rows at n = 17.  Three workers (over the default cap,
    # and more than a 2-CPU host has) with a short switch interval stress
    # the disjoint writes.
    trials = 150 if n > 16 else 20_000
    root = er.RootChannel(0.45)
    spec = co.select_classical(root, n, rate=0.5)
    want = {
        batch: codec.simulate(spec, root, trials, seed=99, batch=batch)
        for batch in (trials // 60, trials // 20)  # 333 and 1000 at 20,000 trials
    }
    for slab in (codec._SLAB_WORDS, 1, 3 << 16, 3 << 17):
        monkeypatch.setattr(codec, "_SLAB_WORDS", slab)
        for count in (1, 2, 3):
            workers(count)
            for batch, ref in want.items():
                got = codec.simulate(spec, root, trials, seed=99, batch=batch)
                assert (got.block_errors, got.batches.tolist()) == (
                    ref.block_errors,
                    ref.batches.tolist(),
                )
    assert all(0 < ref.block_errors < trials for ref in want.values())


@pytest.mark.parametrize(
    "n, trials, batch",
    [(4, 10_000, 4096), (10, 5_000, 4096), (16, 600, 4096), (4, 100_000, 1)],
    ids=["4-10000", "10-5000", "16-600", "4-100000-batch1"],
)
@pytest.mark.parametrize("count", [1, 2])
def test_simulate_estimate_covers_the_traced_peak(n, trials, batch, count, monkeypatch, workers):
    # n = 16 profiles slabs of 4, 4 and 2 word rows, a group a row; n = 10
    # one slab of 79 rows, a group and a part; n = 4 one slab of 157 rows,
    # part of a group; at batch 1 the tally of 10**5 batches is most of it
    workers(count)
    root = er.RootChannel(0.45)
    spec = co.select_classical(root, n, rate=0.5)
    codec.simulate(spec, root, 64, seed=4)  # numpy.random is imported at its first use
    needs = []
    check = codec._check_memory
    monkeypatch.setattr(codec, "_check_memory", lambda b, w: (needs.append(b), check(b, w)))
    tracemalloc.start()
    try:
        codec.simulate(spec, root, trials, seed=4, batch=batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert needs[-1] >= peak, (needs, peak)


def test_simulate_memory_is_independent_of_batch():
    # A 64-trial row of 2**20 words is 8 MiB.  Profiling the whole batch
    # held a 16 MiB table, and drawing 8 trials at once held 64 MiB of raw
    # words on each worker.
    root = er.RootChannel(0.5)
    spec = co.select_classical(root, 20, rate=0.5)
    tracemalloc.start()
    try:
        got = codec.simulate(spec, root, 128, seed=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.batches.tolist() == [[got.block_errors, 128]]
    assert peak < 64 << 20


def test_simulate_more_cpus_never_refuse(monkeypatch):
    # A budget that holds a run on one CPU holds it on 64: the workers the
    # budget cannot hold are dropped, and the tally does not change.
    root = er.RootChannel(0.45)
    spec = co.select_classical(root, 10, rate=0.5)  # 4 groups of 4,096 trials
    needs = []
    check = codec._check_memory
    monkeypatch.setattr(codec, "_check_memory", lambda b, w: (needs.append(b), check(b, w)))

    def run(cpus, budget=None):
        monkeypatch.setattr(
            errors.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        if budget is not None:
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2 * budget}
            monkeypatch.setattr(errors.os, "sysconf", pages.__getitem__)
        got = codec.simulate(spec, root, 16_384, seed=5)
        return got.block_errors, got.batches.tolist()

    ref = run(1)
    one_cpu = needs[-1]
    assert run(64, budget=one_cpu) == ref and needs[-1] == one_cpu
    with pytest.raises(LevelTooLargeError):
        run(64, budget=one_cpu - 1)
    assert run(64, budget=4 * one_cpu) == ref and needs[-1] > one_cpu


def test_simulate_tracks_exact_probability():
    spec = _spec_single(1, 1)  # failure probability 0.75 at z0 = 0.5
    res = codec.simulate(spec, er.RootChannel(0.5), trials=20000, seed=3)
    lo, hi = res.wilson_ci95
    assert lo <= 0.75 <= hi
