"""Erasure arithmetic against exact rational oracles.

Every frozen table below was recomputed with Fraction arithmetic before
being pinned; the float code under test must hit them to the tolerances
stated inline.
"""

import math
import os
import struct
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ChannelPath,
    LogErasure,
    channel_erasure,
    complement_log2_reference,
    level_erasures,
    linear_erasures,
    polar_better,
    polar_worse,
    polarize_prob,
)

from polarbec import codec, construction as co, erasure as er
from polarbec.errors import LevelTooLargeError

# Level-3 erasures for z0 = 1/2 in index order j = 1..8, exact dyadics.
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

LEVEL2_HALF = [0.9375, 0.5625, 0.4375, 0.0625]


def rational_chain(z0: Fraction, bits: tuple[int, ...]) -> Fraction:
    z = z0
    for b in bits:
        z = polarize_prob(z, b)
    return z


def test_polar_worse_fixed_point_and_half():
    z = LogErasure.from_prob(0.0)
    assert polar_worse(z).prob == 0.0
    z = LogErasure.from_prob(0.5)
    assert polar_worse(z).prob == pytest.approx(0.75, abs=1e-15)


def test_polar_worse_tiny_erasure():
    # Z = 2^-50 -> Z' = 2^-49 - 2^-100, so l_era lands a hair above 49.
    z = LogErasure(50.0, -math.log2(1.0 - 2.0**-50))
    out = polar_worse(z)
    assert out.l_era == pytest.approx(49.0, abs=1e-9)
    assert out.l_rel == 2.0 * z.l_rel  # exact doubling of the dominant field


def test_polar_better_examples():
    assert polar_better(LogErasure.from_prob(1.0)).prob == 1.0
    assert polar_better(LogErasure.from_prob(0.5)).prob == pytest.approx(0.25, abs=1e-15)
    assert polar_better(LogErasure.from_prob(0.75)).prob == pytest.approx(0.5625, abs=1e-15)


def test_polar_better_doubles_l_era_exactly():
    z = LogErasure.from_prob(0.3)
    assert polar_better(z).l_era == 2.0 * z.l_era


def test_channel_erasure_paths():
    root = er.RootChannel(0.5)
    assert channel_erasure(root, ChannelPath(2, (1, 1))).prob == pytest.approx(0.0625, abs=1e-15)
    assert channel_erasure(root, ChannelPath(2, (0, 0))).prob == pytest.approx(0.9375, abs=1e-15)
    assert channel_erasure(root, ChannelPath(2, (1, 0))).prob == pytest.approx(0.4375, abs=1e-15)


def test_level_erasures_level3_table():
    root = er.RootChannel(0.5)
    rows = list(level_erasures(root, 3))
    assert len(rows) == 8
    assert [ch.index for ch, _ in rows] == list(range(1, 9))
    for (_, z), want in zip(rows, LEVEL3_HALF):
        assert z.prob == pytest.approx(want, abs=1e-12)


def test_level_erasures_degenerate_levels():
    rows = list(level_erasures(er.RootChannel(0.37), 0))
    assert len(rows) == 1 and rows[0][1].prob == pytest.approx(0.37, abs=1e-15)
    z1 = [z.prob for _, z in level_erasures(er.RootChannel(0.3), 1)]
    assert z1 == pytest.approx([0.51, 0.09], abs=1e-12)


def test_level_erasures_respects_max_level():
    # refused by its byte estimate: 16 bytes a channel of 2**40 channels is
    # 16 TiB, over half of physical memory on any host below 32 TiB
    start = time.perf_counter()
    with pytest.raises(LevelTooLargeError, match="the level-40 table would need about"):
        er.level_log_table(er.RootChannel(0.5), 40)
    with pytest.raises(ValueError, match="level 1000000000000 is outside"):
        er.level_log_table(er.RootChannel(0.5), 10**12)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("z0", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_table_by_prefix_subtree_is_the_one_shot_table(monkeypatch, z0, n):
    # With 2**4-channel chunks, levels 3 and 4 are built in one shot and
    # levels 5 and 7 in 2 and 8 prefix subtrees; z0 = 0 and 1 put inf in
    # the root's l_era and l_rel.
    monkeypatch.setattr(er, "_CHUNK_CHANNELS", 1 << 4)
    root = er.RootChannel(z0)
    le, lr = er.level_log_table(root, n)
    want_le, want_lr = er.extend_log_table(*er.level_log_table(root, 0), n)
    assert _same_bits(le, want_le) and _same_bits(lr, want_lr)


@pytest.mark.parametrize("z0", [0.0, 0.3, 0.5, 1.0])
def test_table_is_the_same_for_any_worker_count(monkeypatch, workers, short_switch, z0):
    # With 2**4-channel chunks, level 9 is built from 32, 64 or 128 prefix
    # subtrees by 1, 2 or 3 workers, in whatever order their threads run.
    monkeypatch.setattr(er, "_CHUNK_CHANNELS", 1 << 4)
    root = er.RootChannel(z0)
    want_le, want_lr = er.extend_log_table(*er.level_log_table(root, 0), 9)
    for count in (1, 2, 3):
        workers(count)
        le, lr = er.level_log_table(root, 9)
        assert _same_bits(le, want_le) and _same_bits(lr, want_lr)


@pytest.mark.parametrize(
    "caller, failing",
    [
        pytest.param("walk", "calling thread", id="calling thread"),
        pytest.param("walk", "helper thread", id="helper thread"),
        pytest.param("simulate", "calling thread", id="simulate, calling thread"),
        pytest.param("simulate", "helper thread", id="simulate, helper thread"),
    ],
)
def test_walk_raises_a_worker_error_and_leaves_no_thread(monkeypatch, workers, caller, failing):
    # Both threaded steps share one chunk runner.  Each worker waits at its
    # first chunk until the other holds one too; then the failing one
    # raises, while the other sleeps a millisecond a chunk.  The other
    # takes no chunk after the error, and the error reaches the caller only
    # after every helper thread has ended.
    workers(2)
    both_hold_a_chunk = threading.Barrier(2, timeout=60)
    visited, raised, late = [], [], []

    def take(*args):
        me = threading.current_thread()
        if raised:
            late.append(me)  # a chunk taken after the error
        if me not in visited:
            both_hold_a_chunk.wait()
        visited.append(me)
        if (me is threading.main_thread()) == (failing == "calling thread"):
            raised.append(me)
            raise LevelTooLargeError("a chunk is over the budget")
        time.sleep(1e-3)

    threads = threading.active_count()
    with pytest.raises(LevelTooLargeError, match="a chunk is over the budget"):
        if caller == "walk":
            nodes = (np.ones(64), np.ones(64), 4)  # 128 chunks of 8 channels
            er._walk_subtrees([nodes], 3, take)
        else:
            monkeypatch.setattr(codec, "_draw_group", take)
            one = np.ones(1, dtype=np.uint64)
            spec = co.CodeSpec(16, 0.5, one, np.ones(1), one, np.zeros(1, dtype=np.int64))
            # two slabs of 4 chunks, a 64-trial row each
            codec.simulate(spec, er.RootChannel(0.5), 512, seed=0)
    assert threading.active_count() == threads
    assert len(set(visited)) == 2 and len(raised) == 1 and late == []


def test_table_build_holds_two_chunks_beside_its_output(workers):
    # Two levels above the chunk size the build takes 8 prefix subtrees on
    # two workers, each half a chunk; a one-shot build peaks at 2.8 times
    # its output.
    workers(2)
    n = er._CHUNK_CHANNELS.bit_length() + 1
    tracemalloc.start()
    try:
        le, lr = er.level_log_table(er.RootChannel(0.5), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert le.size == 1 << n
    assert peak <= le.nbytes + lr.nbytes + 2 * 16 * er._CHUNK_CHANNELS


def test_table_matches_stream_order():
    root = er.RootChannel(0.42)
    le, lr = er.level_log_table(root, 5)
    streamed = [z for _, z in level_erasures(root, 5)]
    assert np.array_equal(le, np.array([z.l_era for z in streamed]))
    assert np.array_equal(lr, np.array([z.l_rel for z in streamed]))


def test_table_matches_scalar_chains_bitwise():
    # The vectorized doubling and the scalar fold must agree to the last bit,
    # otherwise construction and its brute-force oracle can disagree on
    # threshold channels.
    root = er.RootChannel(0.3)
    le, lr = er.level_log_table(root, 6)
    for j in (1, 7, 22, 41, 64):
        ch = ChannelPath.from_index(6, j)
        z = channel_erasure(root, ch)
        assert z.l_era == le[j - 1]
        assert z.l_rel == lr[j - 1]


def test_rational_oracle_level_tables():
    half = Fraction(1, 2)
    for n, table in ((2, LEVEL2_HALF), (3, LEVEL3_HALF)):
        for j in range(1, 2**n + 1):
            bits = ChannelPath.from_index(n, j).path
            assert rational_chain(half, bits) == Fraction(table[j - 1])


def test_martingale_is_exact_per_step():
    for z in (Fraction(1, 2), Fraction(1, 3), Fraction(7, 10)):
        assert polarize_prob(z, 0) + polarize_prob(z, 1) == 2 * z


def test_extreme_better_run_keeps_doubling():
    # 500 squarings: l_era reaches 2^500 scale while the complement underflows
    # to l_rel = 0; nothing overflows and ordering still works.
    z = LogErasure.from_prob(0.5)
    for _ in range(500):
        z = polar_better(z)
    assert z.l_era == 2.0**500
    assert z.l_rel == 0.0
    assert math.isfinite(z.l_era)


def test_complement_log2_round_trip():
    for x in (1e-6, 0.01, 0.3, 1.0, 5.0, 39.9):
        assert er.complement_log2(er.complement_log2(x)) == pytest.approx(x, rel=1e-9)


def test_complement_log2_continuous_at_cutoff():
    below = er.complement_log2(er.COMPLEMENT_CUTOFF - 1e-9)
    above = er.complement_log2(er.COMPLEMENT_CUTOFF + 1e-9)
    assert below == pytest.approx(above, rel=1e-9)


def test_complement_log2_endpoints():
    assert er.complement_log2(0.0) == math.inf
    assert er.complement_log2(math.inf) == 0.0


def test_complement_log2_array_matches_scalar_bitwise():
    # zero, below 1, [1, cutoff], above cutoff (inf included)
    xs = np.array([
        0.0, 1e-300, 1e-9, 0.3, 0.999999, 1.0, 5.0, 39.9, er.COMPLEMENT_CUTOFF,
        np.nextafter(er.COMPLEMENT_CUTOFF, np.inf), 100.0, 1074.0, 1e300, np.inf,
    ])
    got = er.complement_log2(xs)
    assert got.shape == xs.shape
    for x, y in zip(xs, got):
        scalar = er.complement_log2(float(x))
        assert isinstance(scalar, float)
        assert np.array_equal(np.float64(scalar), y)
    assert np.array_equal(er.complement_log2(xs.reshape(2, 7)), got.reshape(2, 7))


COMPLEMENT_EDGES = [
    0.0, 5e-324, 2.2250738585072014e-308 / 3, 1.0,
    np.nextafter(er.COMPLEMENT_CUTOFF, 0.0), er.COMPLEMENT_CUTOFF,
    np.nextafter(er.COMPLEMENT_CUTOFF, np.inf), 1074.0,
    np.nextafter(er._UNDERFLOW_BITS, 0.0), er._UNDERFLOW_BITS, np.inf, np.nan, -1.0,
]


def _same_bits(got, want) -> bool:
    return np.array_equal(
        np.asarray(got, dtype=np.float64).view(np.uint64),
        np.asarray(want, dtype=np.float64).view(np.uint64),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sampled_from(COMPLEMENT_EDGES)
        | st.floats(min_value=0.0, max_value=2000.0)
        | st.floats(allow_nan=True, allow_infinity=True),
        min_size=1,
        max_size=40,
    )
)
def test_complement_log2_matches_masked_reference_bitwise(values):
    # The dead entries (x == 0 and x >= _UNDERFLOW_BITS) skip every formula;
    # the reference runs them through their branch masks.
    xs = np.array(values + COMPLEMENT_EDGES)
    with np.errstate(all="ignore"):
        got = er.complement_log2(xs)
        want = complement_log2_reference(xs)
        assert got.shape == xs.shape and _same_bits(got, want)
        grid = xs[: 2 * (xs.size // 2)].reshape(2, -1)
        assert _same_bits(er.complement_log2(grid), complement_log2_reference(grid))
        for x in values[:5] + COMPLEMENT_EDGES:
            scalar = er.complement_log2(np.float64(x).reshape(()))
            assert isinstance(scalar, float)
            assert _same_bits(scalar, complement_log2_reference(x))


def test_complement_log2_underflow_bound_is_exact():
    # exp2(-x) is the smallest subnormal just below the bound and 0.0 from it on.
    below = np.nextafter(er._UNDERFLOW_BITS, 0.0)
    assert np.exp2(-below) == 5e-324 and er.complement_log2(below) == 5e-324
    assert np.exp2(-er._UNDERFLOW_BITS) == 0.0
    assert er.complement_log2(er._UNDERFLOW_BITS) == 0.0


@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_log_pair_consistency(z):
    pair = LogErasure.from_prob(z)
    if pair.l_era <= 40.0 and pair.l_rel <= 40.0:
        assert abs(2.0**-pair.l_era + 2.0**-pair.l_rel - 1.0) <= 1e-9


@given(st.floats(min_value=0.0, max_value=1.0))
def test_degradation_ordering(z):
    pair = LogErasure.from_prob(z)
    assert polar_worse(pair).prob >= z - 1e-15
    assert polar_better(pair).prob <= z + 1e-15


@given(st.integers(min_value=0, max_value=20), st.data())
def test_channel_path_round_trip(level, data):
    j = data.draw(st.integers(min_value=1, max_value=2**level))
    ch = ChannelPath.from_index(level, j)
    assert ch.index == j
    assert ch.level == level
    assert ch.squaring_count == sum(ch.path)
    want = int("".join(map(str, ch.path)), 2) if level else 0
    assert ch.path_int == want


def test_channel_path_prefix_and_descendants():
    ch = ChannelPath(4, (1, 0, 1, 1))
    pre = ch.prefix(2)
    assert pre.path == (1, 0)
    assert ch.is_descendant_of(pre)
    assert not ch.is_descendant_of(ChannelPath(2, (0, 0)))
    assert not pre.is_descendant_of(ch)


def test_polarization_mass_leaves_the_middle():
    le, lr = er.level_log_table(er.RootChannel(0.5), 4)
    previous = 1.0
    for n in range(4, 21):
        if n > 4:
            le, lr = er.extend_log_table(le, lr, 1)
        z = linear_erasures(le)
        frac = float(np.mean((z > 0.01) & (z < 0.99)))
        assert frac <= previous + 1e-12
        previous = frac
    assert previous <= 0.5


def test_cache_round_trip(tmp_path):
    root = er.RootChannel(0.5)
    le, lr = er.cached_level_table(root, 6, str(tmp_path))
    want_le, want_lr = er.level_log_table(root, 6)
    assert np.array_equal(le, want_le) and np.array_equal(lr, want_lr)
    files = os.listdir(tmp_path)
    assert files == ["plzt-m06-3fe0000000000000.bin"]
    # second call must be served from disk and stay bitwise identical
    again_le, again_lr = er.cached_level_table(root, 6, str(tmp_path))
    assert np.array_equal(again_le, le) and np.array_equal(again_lr, lr)


def test_cache_layout_is_documented_format(tmp_path):
    root = er.RootChannel(0.25)
    le, lr = er.cached_level_table(root, 3, str(tmp_path))
    (name,) = os.listdir(tmp_path)
    blob = (tmp_path / name).read_bytes()
    magic, version, z0, m = struct.unpack_from("<4sIdI", blob)
    assert magic == b"PLZT" and version == 2 and z0 == 0.25 and m == 3
    # the header, then the whole l_era column, then the whole l_rel column
    assert blob == blob[: struct.calcsize("<4sIdI")] + le.tobytes() + lr.tobytes()


def test_cache_version_1_entry_is_recomputed_as_version_2(tmp_path):
    # version 1 interleaved the (l_era, l_rel) records
    root = er.RootChannel(0.3)
    want_le, want_lr = er.level_log_table(root, 5)
    path = tmp_path / er._cache_filename(0.3, 5)
    records = np.column_stack([want_le, want_lr]).astype("<f8")
    path.write_bytes(struct.pack("<4sIdI", b"PLZT", 1, 0.3, 5) + records.tobytes())
    le, lr = er.cached_level_table(root, 5, str(tmp_path))
    assert le.tobytes() == want_le.tobytes() and lr.tobytes() == want_lr.tobytes()
    assert os.listdir(tmp_path) == [path.name]
    header = struct.pack("<4sIdI", b"PLZT", 2, 0.3, 5)
    assert path.read_bytes() == header + want_le.tobytes() + want_lr.tobytes()


@pytest.mark.parametrize("m, message", [(40, "record bytes"), (64, "level 64")])
def test_cache_huge_level_rejected_before_allocating(tmp_path, m, message):
    # 16 * 2**40 bytes would not fit in memory: the file size check comes
    # first, and from m = 64 on not even the byte count is computed
    path = tmp_path / "table.bin"
    path.write_bytes(struct.pack("<4sIdI", b"PLZT", 2, 0.5, m) + bytes(32))
    with pytest.raises(ValueError, match=message):
        er.read_level_cache(str(path))


def test_cache_shrunk_after_size_check_is_rejected(tmp_path, monkeypatch):
    le, lr = er.level_log_table(er.RootChannel(0.3), 5)
    path = tmp_path / "table.bin"
    er.write_level_cache(str(path), 0.3, 5, le, lr)
    full = os.stat(path)
    path.write_bytes(path.read_bytes()[:-8])
    # the size check sees the whole file; the l_rel read then comes up short
    monkeypatch.setattr(er.os, "fstat", lambda fd: full)
    with pytest.raises(ValueError, match="got 504"):
        er.read_level_cache(str(path))


def test_cache_rejects_corrupted_file(tmp_path):
    root = er.RootChannel(0.5)
    er.cached_level_table(root, 3, str(tmp_path))
    path = tmp_path / os.listdir(tmp_path)[0]
    path.write_bytes(b"JUNK" + path.read_bytes()[4:])
    with pytest.raises(ValueError):
        er.read_level_cache(str(path))


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: blob[:10],  # truncated header
        lambda blob: blob[:-8],  # truncated records
        lambda blob: b"JUNK" + blob[4:],  # bad magic
        lambda blob: blob[:4] + struct.pack("<I", 99) + blob[8:],  # bad version
        lambda blob: blob[:16] + struct.pack("<I", 5) + blob[20:],  # size mismatch
        lambda blob: blob + b"\0",  # trailing byte
    ],
)
def test_cache_unreadable_entry_is_a_miss(tmp_path, damage):
    root = er.RootChannel(0.5)
    er.cached_level_table(root, 6, str(tmp_path))
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    path.write_bytes(damage(path.read_bytes()))
    le, lr = er.cached_level_table(root, 6, str(tmp_path))
    want_le, want_lr = er.level_log_table(root, 6)
    assert np.array_equal(le, want_le) and np.array_equal(lr, want_lr)
    assert os.listdir(tmp_path) == [name]
    assert path.stat().st_size == 20 + 16 * 2**6
    assert np.array_equal(er.read_level_cache(str(path))[2], want_le)


def test_cache_write_leaves_no_temp_file(tmp_path, monkeypatch):
    le, lr = er.level_log_table(er.RootChannel(0.5), 4)
    target = tmp_path / "table.bin"
    er.write_level_cache(str(target), 0.5, 4, le, lr)
    assert os.listdir(tmp_path) == ["table.bin"]

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(er.os, "replace", fail)
    with pytest.raises(OSError):
        er.write_level_cache(str(target), 0.5, 4, 2.0 * le, lr)
    assert os.listdir(tmp_path) == ["table.bin"]
    assert np.array_equal(er.read_level_cache(str(target))[2], le)


@settings(max_examples=30)
@given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=1, max_value=8))
def test_extend_matches_per_channel_fold(z0, n):
    root = er.RootChannel(z0)
    le, _ = er.level_log_table(root, n)
    for j in (1, 2**n):
        ch = ChannelPath.from_index(n, j)
        assert channel_erasure(root, ch).l_era == le[j - 1]
