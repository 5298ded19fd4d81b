"""Encoder algebra, SC decoding on erasure patterns, and the two error routes."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarbec import codec, construction as co, erasure as er
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
    le = er.channel_erasure(er.RootChannel(z0), er.ChannelPath.from_index(n, j))
    return co.CodeSpec(
        n=n,
        z0=z0,
        indices=np.array([j], dtype=np.uint64),
        l_era=np.array([le.l_era]),
        l_rel=np.array([le.l_rel]),
        squaring_count=np.array([bin(j - 1).count("1")], dtype=np.uint64),
        source_pocket=np.zeros(1, dtype=np.int64),
        params={},
    )


def _empty_spec(n: int, z0: float = 0.5) -> co.CodeSpec:
    return co.CodeSpec(
        n=n,
        z0=z0,
        indices=np.array([], dtype=np.uint64),
        l_era=np.array([]),
        l_rel=np.array([]),
        squaring_count=np.array([], dtype=np.uint64),
        source_pocket=np.array([], dtype=np.int64),
        params={},
    )


def test_kernel_pairs():
    assert codec.polar_encode([0, 0]).tolist() == [0, 0]
    assert codec.polar_encode([1, 0]).tolist() == [1, 0]
    assert codec.polar_encode([0, 1]).tolist() == [1, 1]
    assert codec.polar_encode([1, 1]).tolist() == [0, 1]


def test_encode_level2_rows():
    # rows of the squared kernel, one unit vector at a time
    assert codec.polar_encode([1, 0, 0, 0]).tolist() == [1, 0, 0, 0]
    assert codec.polar_encode([0, 1, 0, 0]).tolist() == [1, 1, 0, 0]
    assert codec.polar_encode([0, 0, 1, 0]).tolist() == [1, 0, 1, 0]
    assert codec.polar_encode([0, 0, 0, 1]).tolist() == [1, 1, 1, 1]


def test_encode_validation():
    with pytest.raises(ValueError):
        codec.polar_encode([0, 1, 0])
    with pytest.raises(ValueError):
        codec.polar_encode([])
    with pytest.raises(ValueError):
        codec.polar_encode([0, 2])
    with pytest.raises(ValueError):
        codec.polar_encode([[0, 1], [1, 0]])


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
        codec.polar_encode(u ^ v), codec.polar_encode(u) ^ codec.polar_encode(v)
    )
    assert np.array_equal(codec.polar_encode(codec.polar_encode(u)), u)


def test_prime_string_rows_map_to_indices():
    # Eight third-level channels listed by nesting order: outermost prime is
    # the last polarization step, so reading a row (r2, r1, r0) as steps
    # means swapping the top two bits to land on the path (r1, r2, r0).
    rows = [(r >> 2 & 1, r >> 1 & 1, r & 1) for r in range(8)]
    paths = [(r1, r2, r0) for (r2, r1, r0) in rows]
    js = [er.ChannelPath(3, p).index for p in paths]
    assert js == [1, 2, 5, 6, 3, 4, 7, 8]
    root = er.RootChannel(0.5)
    for path, j in zip(paths, js):
        got = er.channel_erasure(root, er.ChannelPath(3, path)).prob
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
        x = codec.polar_encode(u)
        res = codec.sc_decode_bec(
            np.zeros(size, dtype=bool), x, spec, u[frozen_pos]
        )
        assert res.ok and res.first_failure is None
        assert np.array_equal(res.info_bits, u[info_pos])


def test_repetition_code_corrects_up_to_three_erasures():
    spec = _spec_single(2, 4)
    for bit in (0, 1):
        u = np.array([0, 0, 0, bit], dtype=np.int8)
        x = codec.polar_encode(u)
        for k in (1, 2, 3):
            for pos in itertools.combinations(range(4), k):
                mask = np.zeros(4, dtype=bool)
                mask[list(pos)] = True
                res = codec.sc_decode_bec(mask, x, spec, np.zeros(3, dtype=np.int8))
                assert res.ok
                assert res.info_bits.tolist() == [bit]


def test_all_erased_reports_first_selected_channel():
    spec = _spec_single(2, 4)
    res = codec.sc_decode_bec(
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
        codec.sc_decode_bec(
            np.zeros(2, dtype=bool),
            np.array([0, 1], dtype=np.int8),  # says u1 = 1, frozen to 0
            spec,
            np.zeros(1, dtype=np.int8),
        )


def test_decode_input_validation():
    spec = _spec_single(1, 2)
    with pytest.raises(ValueError):
        codec.sc_decode_bec(np.zeros(4, dtype=bool), np.zeros(2, dtype=np.int8), spec, [0])
    with pytest.raises(ValueError):
        codec.sc_decode_bec(np.zeros(2, dtype=bool), np.zeros(4, dtype=np.int8), spec, [0])
    with pytest.raises(ValueError):
        codec.sc_decode_bec(np.zeros(2, dtype=bool), np.array([0, 3]), spec, [0])
    with pytest.raises(ValueError):
        codec.sc_decode_bec(np.zeros(2, dtype=bool), np.zeros(2, dtype=np.int8), spec, [0, 1])


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
        res = codec.sc_decode_bec(~known, codec.polar_encode(u), spec, u[frozen_pos])
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
        out = [er.polarize_prob(z, bit) for z in out for bit in (0, 1)]
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
    "z0, want",
    # at z0 = 1/2 every pattern weighs 2**-16, so the value is a count over 2**16
    [(0.2, 0.03836713034711044), (0.5, 0.6524505615234375)],
)
def test_exact_block_error_pinned_level4(z0, want):
    root = er.RootChannel(z0)
    spec = co.select_classical(root, 4, rate=0.5)
    assert codec.exact_block_error(spec, root) == want


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


@pytest.mark.parametrize("n, z0, trials", [(2, 0.5, 150), (4, 0.2, 300)])
def test_simulate_follows_documented_stream(n, z0, trials):
    # Rebuild every trial's pattern from the stream simulate() documents and
    # decode it with the message-passing decoder; trial counts that are not
    # multiples of 64 leave padding lanes that must not count as failures.
    size = 1 << n
    blocks = -(-size // 4)
    seed = 2**63 + 12345
    root = er.RootChannel(z0)
    spec = co.select_classical(root, n, rate=0.5)
    frozen = np.zeros(size - len(spec), dtype=np.int8)
    failures = 0
    for t in range(trials):
        raw = np.random.Philox(key=seed, counter=t * blocks).random_raw(4 * blocks)
        erased = (raw[:size] >> 11) < math.ceil(z0 * 2**53)
        gen = np.random.Generator(np.random.Philox(key=seed, counter=t * blocks))
        assert np.array_equal(erased, gen.random(size) < z0)
        res = codec.sc_decode_bec(erased, np.zeros(size, dtype=np.int8), spec, frozen)
        failures += not res.ok
    assert 0 < failures < trials
    for batch in (1, 63, 64, 65, 100, trials, 4096):
        got = codec.simulate(spec, root, trials, seed, batch=batch)
        assert got.block_errors == failures
        assert [t for _, t in got.batches] == [
            min(batch, trials - s) for s in range(0, trials, batch)
        ]


def test_simulate_tracks_exact_probability():
    spec = _spec_single(1, 1)  # failure probability 0.75 at z0 = 0.5
    res = codec.simulate(spec, er.RootChannel(0.5), trials=20000, seed=3)
    lo, hi = res.wilson_ci95
    assert lo <= 0.75 <= hi
