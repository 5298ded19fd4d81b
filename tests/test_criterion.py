"""Eigenfunction ratio test, functional iteration, and entropy utilities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import binary_entropy_inv_reference, iterate_g_reference, linear_erasures

from polarbec import criterion as cr
from polarbec import erasure as er
from polarbec.errors import DegenerateFitError


def test_binary_entropy_values():
    assert cr.binary_entropy(0.5) == 1.0
    assert cr.binary_entropy(0.0) == 0.0
    assert cr.binary_entropy(1.0) == 0.0
    assert cr.binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-14)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        cr.binary_entropy(-0.01)
    with pytest.raises(ValueError):
        cr.binary_entropy(1.01)
    with pytest.raises(ValueError):
        cr.binary_entropy(math.nan)
    with pytest.raises(ValueError):
        cr.binary_entropy(np.array([0.2, math.nan]))
    with pytest.raises(ValueError):
        cr.binary_entropy(np.array([0.2, 1.5]))


def test_binary_entropy_array_matches_scalar():
    ps = np.array([0.0, 1e-300, 0.11, 0.5, 0.75, 1.0 - 1e-16, 1.0])
    got = cr.binary_entropy(ps)
    assert got.shape == ps.shape
    assert got.tolist() == [cr.binary_entropy(float(p)) for p in ps]
    assert isinstance(cr.binary_entropy(np.float64(0.3)), float)


def test_binary_entropy_inv_values():
    assert cr.binary_entropy_inv(1.0) == pytest.approx(0.5, abs=1e-12)
    assert cr.binary_entropy_inv(0.0) == 0.0
    assert cr.binary_entropy_inv(0.5) == pytest.approx(0.1100278644385071, abs=1e-10)
    with pytest.raises(ValueError):
        cr.binary_entropy_inv(1.5)


def test_entropy_round_trip():
    ys = np.linspace(0.0, 1.0, 1000)
    ps = cr.binary_entropy_inv(ys)
    assert cr.binary_entropy(ps) == pytest.approx(ys, abs=1e-10)


_H2INV_EDGES = [0.0, 1.0, 1.0 - 1e-12, 5e-324]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8))
def test_binary_entropy_inv_array_equals_scalar_loop(ys):
    targets = np.array(ys + _H2INV_EDGES)
    want = [binary_entropy_inv_reference(float(y)) for y in targets]
    got = cr.binary_entropy_inv(targets)
    assert got.shape == targets.shape
    assert got.tolist() == want
    for y, w in zip(targets, want):
        for zero_d in (float(y), np.float64(y), np.array(y)):
            one = cr.binary_entropy_inv(zero_d)
            assert isinstance(one, float) and one == w


@pytest.mark.parametrize("bad", [math.nan, -1e-3, 1.5])
def test_binary_entropy_inv_names_a_bad_element(bad):
    with pytest.raises(ValueError, match=f"got {bad!r}"):
        cr.binary_entropy_inv(np.array([0.2, bad, 0.7]))


def test_sup_ratio_builtin_families():
    got = cr.sup_ratio(cr.CandidateH.power(0.64), 100000)
    assert round(got.ratio, 3) == 0.833
    assert got.ratio == pytest.approx(0.8326048558320692, abs=1e-9)
    assert got.argmax == pytest.approx(0.2748539651544183, abs=1e-6)
    # the candidate is symmetric, so the mirror point attains the same value
    mirrored = cr._ratio_at(cr.CandidateH.power(0.64), 1.0 - got.argmax)
    assert float(mirrored) == pytest.approx(got.ratio, abs=1e-12)


def test_sup_ratio_alpha_half_at_center():
    h = cr.CandidateH.power(0.5)
    value = (h(0.25) + h(0.75)) / (2.0 * h(0.5))
    assert float(value) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-14)
    # the center value lower-bounds the sup
    assert cr.sup_ratio(h, 4096).ratio >= float(value) - 1e-12


def test_sup_ratio_one_sided_limits():
    # ratio(xi) -> 2**(alpha-1) at both endpoints for the power family:
    # (xi + xi^2)^alpha -> 0 and (2 - 3 xi + xi^2)^alpha -> 2^alpha
    for alpha in (0.01, 0.1, 0.64):
        got = cr.sup_ratio(cr.CandidateH.power(alpha), 100000)
        want = 2.0 ** (alpha - 1.0)
        assert got.end_limit == want


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@example(0.99)
@example(0.90)
def test_sup_ratio_is_at_least_its_limit_and_every_sample(alpha):
    # near alpha = 1 the sup is the end limit, approached but not attained,
    # so the grid scan alone would read less than the limit
    h = cr.CandidateH.power(alpha)
    got = cr.sup_ratio(h, 4096)
    _, ratios = cr.ratio_curve(h, 4096)
    assert got.ratio >= got.end_limit
    assert got.ratio >= ratios.max()
    if got.ratio == got.end_limit > ratios.max():
        assert got.argmax == 0.0


def test_sup_ratio_end_limit_wins_near_alpha_one():
    got = cr.sup_ratio(cr.CandidateH.power(0.99), 4096)
    assert got.ratio == 2.0 ** -0.01 and got.argmax == 0.0
    assert cr.mu_star_from_ratio(got.ratio) == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize("grid_size", [10**5, 10**6])
def test_ratio_estimate_covers_the_traced_peak(grid_size, monkeypatch):
    h = cr.CandidateH.power(0.64)
    cr.sup_ratio(h, 4096)  # numpy's first-call allocations
    needs = []
    check = cr._check_memory
    monkeypatch.setattr(cr, "_check_memory", lambda b, w: (needs.append(b), check(b, w)))
    for run in (cr.sup_ratio, cr.ratio_curve):
        tracemalloc.start()
        try:
            run(h, grid_size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert needs[-1] >= peak, (run.__name__, needs, peak)


def test_sup_ratio_rejects_coarse_grid():
    with pytest.raises(ValueError):
        cr.sup_ratio(cr.CandidateH.power(0.64), 999)


def test_sup_ratio_symmetric_under_grid_mirror():
    xi, ratios = cr.ratio_curve(cr.CandidateH.power(0.64), 4096)
    mirrored = cr._ratio_at(cr.CandidateH.power(0.64), 1.0 - xi)
    assert np.allclose(ratios, mirrored, atol=1e-12)


def test_mu_star_from_ratio():
    assert cr.mu_star_from_ratio(2.0 ** -0.25) == pytest.approx(4.0, abs=1e-12)
    got = cr.mu_star_from_ratio(0.833)
    assert got == pytest.approx(-1.0 / math.log2(0.833), abs=1e-12)
    assert got == pytest.approx(3.793459781999537, abs=1e-12)
    for bad in (0.70, 2.0 ** -0.5, 1.0, 1.2):
        with pytest.raises(ValueError):
            cr.mu_star_from_ratio(bad)


def test_iterate_g_start_is_indicator():
    its = cr.iterate_g(0.1, 0.9, 0, 4096)
    g0 = its[0]
    assert float(g0(0.5)) == 1.0
    assert float(g0(0.05)) == 0.0
    assert float(g0(0.95)) == 0.0


def test_iterate_g_one_step_examples():
    its = cr.iterate_g(0.01, 0.99, 1, 8192)
    # xi = 0.5: both images 0.25 and 0.75 sit inside (a, b)
    assert float(its[1](0.5)) == pytest.approx(1.0, abs=1e-12)
    # xi = 0.05: 0.0025 is outside, 0.0975 is inside
    assert float(its[1](0.05)) == pytest.approx(0.5, abs=1e-12)


def test_iterate_g_preserves_range_and_endpoints():
    its = cr.iterate_g(0.01, 0.99, 12, 4096)
    for g in its[1:]:
        assert np.all(g.values >= 0.0) and np.all(g.values <= 1.0)
        assert g.values[0] == 0.0 and g.values[-1] == 0.0


def test_iterate_g_interior_mass_decays():
    its = cr.iterate_g(0.01, 0.99, 20, 8192)
    at_half = [float(g(0.5)) for g in its]
    assert all(b <= a + 1e-12 for a, b in zip(at_half, at_half[1:]))


_ENDS = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


@settings(max_examples=20, deadline=None)
@given(
    grid_size=st.one_of(
        st.integers(min_value=4096, max_value=70_000),
        # 65_535 intervals is the last with 16-bit brackets
        st.sampled_from([4096, 10_007, 1 << 14, (1 << 14) + 1, 1 << 15, 65_535, 65_536]),
    ),
    ends=st.tuples(_ENDS, _ENDS).filter(lambda ab: ab[0] != ab[1]),
    n_steps=st.integers(min_value=0, max_value=5),
)
@example(grid_size=65_535, ends=(0.01, 0.99), n_steps=5)
@example(grid_size=65_536, ends=(0.01, 0.99), n_steps=5)
def test_iterate_g_equals_the_np_interp_iteration(grid_size, ends, n_steps):
    a, b = sorted(ends)
    got = cr.iterate_g(a, b, n_steps, grid_size)
    want = iterate_g_reference(a, b, n_steps, grid_size)
    assert len(got) == n_steps + 1
    for g, w in zip(got, want):
        assert g.values.tobytes() == w.tobytes()
        assert g.grid is got[0].grid


def test_iterate_g_equals_the_np_interp_iteration_at_bench_size():
    got = cr.iterate_g(0.01, 0.99, 50, 1 << 18)
    want = iterate_g_reference(0.01, 0.99, 50, 1 << 18)
    assert all(g.values.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("grid_size", [8192, 1 << 18])  # 16- and 32-bit brackets
def test_iterate_g_estimate_covers_the_traced_peak(grid_size, monkeypatch):
    cr.iterate_g(0.01, 0.99, 1, 4096)  # numpy's first-call allocations
    needs = []
    check = cr._check_memory
    monkeypatch.setattr(cr, "_check_memory", lambda b, w: (needs.append(b), check(b, w)))
    tracemalloc.start()
    try:
        cr.iterate_g(0.01, 0.99, 50, grid_size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert needs == [needs[0]] and needs[0] >= peak, (needs, peak)


_NODES = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=30)
_LOOKUPS = st.lists(
    st.one_of(st.floats(min_value=-0.5, max_value=1.5), st.sampled_from([0.0, 1.0, math.nan])),
    min_size=1,
    max_size=20,
)


# infinite table values, each written over a random node
_INFINITIES = st.lists(st.sampled_from([math.inf, -math.inf]), min_size=0, max_size=3)


@settings(max_examples=50, deadline=None)
@given(inner=_NODES, seed=st.integers(0, 2**32 - 1), xs=_LOOKUPS, infinities=_INFINITIES)
def test_grid_function_equals_np_interp(inner, seed, xs, infinities):
    grid = np.unique(np.array([0.0, 1.0] + inner))
    rng = np.random.default_rng(seed)
    values = rng.uniform(-2.0, 2.0, grid.size)
    values[rng.integers(0, grid.size, len(infinities))] = infinities
    g = cr.GridFunction(grid, values)
    xs = np.array(xs + grid.tolist())  # every node is a lookup too
    got, want = g(xs), np.interp(xs, grid, values)
    assert np.array_equal(got, want, equal_nan=True)  # NaN for NaN
    number = ~np.isnan(xs)
    assert got[number].tobytes() == want[number].tobytes()
    for x in xs[number]:
        one = g(float(x))
        assert isinstance(one, float)
        assert np.float64(one).tobytes() == np.interp(x, grid, values).tobytes()


def test_iterate_g_validates_inputs():
    with pytest.raises(ValueError):
        cr.iterate_g(0.5, 0.5, 5, 4096)
    with pytest.raises(ValueError):
        cr.iterate_g(0.01, 0.99, 5, 1024)


def test_expectation_identity_one_step():
    # averaging g0 over the two children equals g1 at the parent
    its = cr.iterate_g(0.01, 0.99, 1, 8192)
    g0, g1 = its[0], its[1]
    for z in (0.2, 0.37, 0.5, 0.8):
        avg = 0.5 * (float(g0(z * z)) + float(g0(2 * z - z * z)))
        assert avg == pytest.approx(float(g1(z)), abs=1e-3)


def test_direct_count_oracle():
    """Iterated interior mass vs exact channel counting, levels 1..16."""
    its = cr.iterate_g(0.01, 0.99, 16, 1 << 13)
    le, lr = er.level_log_table(er.RootChannel(0.5), 1)
    for n in range(1, 17):
        if n > 1:
            le, lr = er.extend_log_table(le, lr, 1)
        z = linear_erasures(le)
        frac = float(np.mean((z > 0.01) & (z < 0.99)))
        assert float(its[n](0.5)) == pytest.approx(frac, abs=2e-3)


def _constant_iterates(values):
    grid = np.array([0.0, 1.0])
    return [cr.GridFunction(grid, np.array([v, v], dtype=np.float64)) for v in values]


def test_estimate_mu_recovers_planted_exponent():
    planted = [2.0 ** (-n / 4.0) for n in range(24)]
    assert cr.estimate_mu(_constant_iterates(planted), 0.5) == pytest.approx(4.0, abs=1e-9)


@given(st.floats(min_value=2.5, max_value=12.0))
@settings(max_examples=25)
def test_estimate_mu_planted_property(mu):
    planted = [2.0 ** (-n / mu) for n in range(20)]
    assert cr.estimate_mu(_constant_iterates(planted), 0.3) == pytest.approx(mu, rel=1e-9)


def test_estimate_mu_degenerate_inputs():
    with pytest.raises(ValueError):
        cr.estimate_mu(_constant_iterates([0.5] * 9), 0.5)  # too few iterates
    with pytest.raises(DegenerateFitError):
        cr.estimate_mu(_constant_iterates([0.5] * 20), 0.5)  # zero slope
    dead = [2.0 ** -n for n in range(10)] + [0.0] * 10
    with pytest.raises(DegenerateFitError):
        cr.estimate_mu(_constant_iterates(dead), 0.5)  # underflow in the window


@pytest.mark.parametrize(
    "z0, fit_fraction, name",
    [
        (math.nan, 0.5, "z0"),
        (-0.1, 0.5, "z0"),
        (1.5, 0.5, "z0"),
        (0.5, 0.0, "fit_fraction"),
        (0.5, 1.5, "fit_fraction"),
        (0.5, math.nan, "fit_fraction"),
        (0.5, 0.05, "fit window"),  # int(12 * 0.95) = 11: one iterate left
    ],
)
def test_estimate_mu_refuses_z0_or_fit_fraction_out_of_range(z0, fit_fraction, name):
    planted = _constant_iterates([2.0 ** (-n / 4.0) for n in range(12)])
    with pytest.raises(ValueError, match=name):
        cr.estimate_mu(planted, z0, fit_fraction)
    # the ends of both ranges are accepted; 0.1 leaves a window of 2
    assert cr.estimate_mu(planted, 1.0, 1.0) == pytest.approx(4.0, abs=1e-9)
    assert cr.estimate_mu(planted, 0.0, 0.1) == pytest.approx(4.0, abs=1e-9)


def test_full_pipeline_estimate():
    its = cr.iterate_g(0.01, 0.99, 30, 1 << 13)
    mu = cr.estimate_mu(its, 0.5)
    assert mu == pytest.approx(3.628421745016466, abs=1e-9)
