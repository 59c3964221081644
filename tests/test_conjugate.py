import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legendrelab as ll
from legendrelab.catalog import entry
from legendrelab.generators import random_grid_function

from conftest import brute_conjugate_values


def rel_close(a, b, tol=1e-12):
    return np.abs(a - b) <= tol * (1.0 + np.maximum(np.abs(a), np.abs(b)))


def test_halfsq_conjugate_point_values(halfsq_1d, dual_fine_1d):
    res = ll.conjugate_brute(halfsq_1d, dual_fine_1d)
    i = dual_fine_1d.index_of_nearest([1.0])
    assert np.isclose(res.dual.flat[i], 0.5)
    assert np.isclose(res.primal_grid.point(res.argmax[i])[0], 1.0)
    assert res.trusted[i]

    # large tilt clamps the maximizer to the boundary: untrusted
    j = dual_fine_1d.index_of_nearest([2.9])
    assert not res.trusted[j]
    assert np.isclose(res.primal_grid.point(res.argmax[j])[0], 2.0)


def test_point_indicator_conjugate_is_zero(dual_fine_1d):
    g = ll.grid_1d(-2.0, 2.0, 201)
    f = ll.build_grid_function(g, lambda x: 0.0 if x == 0.0 else math.inf)
    res = ll.conjugate_fast(f, dual_fine_1d)
    assert np.allclose(res.dual.flat, 0.0)
    assert res.trusted.all()


def test_abs_conjugate_trusted_region(absval_1d, dual_fine_1d):
    """f* of |.| is the indicator of [-1,1]: zero there, clamped growth outside."""
    res = ll.conjugate_fast(absval_1d, dual_fine_1d)
    s = dual_fine_1d.points[:, 0]
    inside = np.abs(s) <= 1.0 + 1e-12
    assert np.allclose(res.dual.flat[inside], 0.0)
    assert res.trusted[inside].all()
    assert not res.trusted[~inside].any()
    out = res.dual.flat[~inside]
    assert np.allclose(out, 2.0 * (np.abs(s[~inside]) - 1.0))


def test_affine_conjugate_trust_only_at_slope(dual_fine_1d):
    g = ll.grid_1d(-2.0, 2.0, 201)
    a = 0.75
    f = ll.build_grid_function(g, lambda p: a * p[:, 0], name="affine",
                               vectorized=True)
    res = ll.conjugate_fast(f, dual_fine_1d)
    at_a = dual_fine_1d.index_of_nearest([a])
    assert res.trusted[at_a]
    assert np.isclose(res.dual.flat[at_a], 0.0)
    others = np.ones(dual_fine_1d.size, dtype=bool)
    others[at_a] = False
    assert not res.trusted[others].any()


@pytest.mark.parametrize("method", ["fast", "brute"])
def test_conjugate_matches_independent_oracle(method, halfsq_1d):
    dual = ll.grid_1d(-3.0, 3.0, 57)
    res = ll.conjugate(halfsq_1d, dual, method=method)
    expected = brute_conjugate_values(halfsq_1d, dual)
    assert rel_close(res.dual.flat, expected).all()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(30, 120),
       m=st.integers(20, 90), inf_frac=st.sampled_from([0.0, 0.1, 0.3]))
def test_fast_equals_brute_random_1d(seed, n, m, inf_frac):
    rng = np.random.default_rng(seed)
    g = ll.grid_1d(-2.0, 2.0, n)
    d = ll.grid_1d(float(rng.uniform(-4, -1)), float(rng.uniform(1, 4)), m)
    f = random_grid_function(rng, g, inf_frac=inf_frac)
    fast = ll.conjugate_fast(f, d)
    brute = ll.conjugate_brute(f, d)
    assert rel_close(fast.dual.flat, brute.dual.flat).all()
    assert (fast.trusted == brute.trusted).all()
    assert (fast.argmax == brute.argmax).all()


@pytest.mark.parametrize("eid", ["halfsq", "affine"])
def test_fast_argmax_first_index_on_catalog_ties(eid):
    """Exact ties resolve to the first maximizing index, as in brute force."""
    e = entry(eid)
    f = e.build()
    fast = ll.conjugate_fast(f, e.dual_grid)
    brute = ll.conjugate_brute(f, e.dual_grid)
    assert rel_close(fast.dual.flat, brute.dual.flat).all()
    assert (fast.trusted == brute.trusted).all()
    assert (fast.argmax == brute.argmax).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fast_equals_brute_random_2d(seed):
    rng = np.random.default_rng(seed)
    g = ll.grid_2d(-1.5, 1.5, 31)
    d = ll.grid_2d(-2.0, 2.0, 27)
    f = random_grid_function(rng, g, inf_frac=0.1)
    fast = ll.conjugate_fast(f, d)
    brute = ll.conjugate_brute(f, d)
    assert rel_close(fast.dual.flat, brute.dual.flat).all()
    assert (fast.trusted == brute.trusted).all()
    attained = (g.points[fast.argmax] * d.points).sum(axis=1) - f.flat[fast.argmax]
    assert rel_close(attained, fast.dual.flat).all()


@pytest.mark.parametrize("grid", [ll.grid_1d(-1.0, 1.0, 2),
                                  ll.Grid(((-1.0, 1.0), (-1.0, 1.0)), (2, 7)),
                                  ll.Grid(((-1.0, 1.0), (-1.0, 1.0)), (7, 2))],
                         ids=["1d", "2d_rows", "2d_cols"])
def test_two_point_axis_has_no_trusted_duals(grid):
    """A 2-point axis has no interior, so nothing is trusted."""
    rng = np.random.default_rng(3)
    f = ll.GridFunction(grid, rng.uniform(-1.0, 1.0, grid.shape))
    d = ll.Grid(((-2.0, 2.0),) * grid.dim, (9,) * grid.dim)
    fast = ll.conjugate_fast(f, d)
    brute = ll.conjugate_brute(f, d)
    assert rel_close(fast.dual.flat, brute.dual.flat).all()
    assert not fast.trusted.any()
    assert not brute.trusted.any()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fenchel_young_inequality(seed):
    rng = np.random.default_rng(seed)
    g = ll.grid_1d(-2.0, 2.0, 61)
    d = ll.grid_1d(-3.0, 3.0, 41)
    f = random_grid_function(rng, g, inf_frac=0.2)
    res = ll.conjugate_fast(f, d)
    gaps = f.flat[:, None] + res.dual.flat[None, :] - g.points @ d.points.T
    assert gaps[np.isfinite(gaps)].min() >= -1e-9


def test_order_reversal():
    g = ll.grid_1d(-2.0, 2.0, 81)
    d = ll.grid_1d(-2.0, 2.0, 81)
    rng = np.random.default_rng(7)
    f = random_grid_function(rng, g, inf_frac=0.0)
    bump = ll.GridFunction(g, f.values + rng.uniform(0.0, 1.0, g.size).reshape(g.shape))
    fs = ll.conjugate_fast(f, d).dual.flat
    gs = ll.conjugate_fast(bump, d).dual.flat
    assert (fs >= gs - 1e-12).all()


def test_tilt_identity(halfsq_1d):
    """(f - a x)*(s) = f*(s + a) where both sides are trusted."""
    a = 0.5
    g = halfsq_1d.grid
    d = ll.grid_1d(-3.0, 3.0, 121)  # dual h = 0.05, a on the dual lattice
    tilted = ll.GridFunction(g, halfsq_1d.values - a * g.axes[0].reshape(g.shape))
    r1 = ll.conjugate_fast(tilted, d)
    r2 = ll.conjugate_fast(halfsq_1d, d)
    for j in range(d.size):
        sj = d.point(j)[0] + a
        k = d.index_of_nearest([sj])
        if abs(d.point(k)[0] - sj) < 1e-9 and r1.trusted[j] and r2.trusted[k]:
            assert abs(r1.dual.flat[j] - r2.dual.flat[k]) < 1e-9


def test_biconjugate_halfsq_consistent(halfsq_1d, dual_fine_1d):
    bic = ll.biconjugate(halfsq_1d, dual_fine_1d)
    assert bic.consistent
    assert bic.max_gap <= bic.tol_bicon
    # f** <= f everywhere
    assert (bic.function.flat <= halfsq_1d.flat + 1e-9).all()


def test_biconjugate_double_well_envelope(grid_fine_1d, dual_fine_1d):
    """f** of the double well is its convex envelope: zero on [-1, 1].

    Oracle: brute-force double conjugation, cross-checked against the
    closed form max(|x| - 1, 0).
    """
    f = ll.build_grid_function(
        grid_fine_1d,
        lambda p: np.minimum(np.abs(p[:, 0] - 1.0), np.abs(p[:, 0] + 1.0)),
        name="double_well", vectorized=True)
    star = brute_conjugate_values(f, dual_fine_1d)
    star_fn = ll.GridFunction(dual_fine_1d, star.reshape(dual_fine_1d.shape))
    oracle = brute_conjugate_values(star_fn, grid_fine_1d)

    bic = ll.biconjugate(f, dual_fine_1d)
    assert not bic.consistent
    assert np.allclose(bic.function.flat, oracle, atol=1e-10)
    x = grid_fine_1d.points[:, 0]
    envelope = np.maximum(np.abs(x) - 1.0, 0.0)
    inside = np.abs(x) <= 1.0 + 1e-12
    assert np.abs(bic.function.flat[inside]).max() <= bic.tol_bicon
    assert np.abs(bic.function.flat - envelope).max() <= bic.tol_bicon


def test_biconjugate_two_point_indicator(grid_fine_1d, dual_fine_1d):
    """The biconjugate of an indicator of {-1, 1} vanishes on [-1, 1]."""
    f = ll.build_grid_function(
        grid_fine_1d,
        lambda x: 0.0 if abs(abs(x) - 1.0) < 1e-9 else math.inf)
    star = brute_conjugate_values(f, dual_fine_1d)
    star_fn = ll.GridFunction(dual_fine_1d, star.reshape(dual_fine_1d.shape))
    oracle = brute_conjugate_values(star_fn, grid_fine_1d)
    bic = ll.biconjugate(f, dual_fine_1d)
    assert np.allclose(bic.function.flat, oracle, atol=1e-10)
    x = grid_fine_1d.points[:, 0]
    inside = np.abs(x) <= 1.0 + 1e-12
    assert np.abs(bic.function.flat[inside]).max() <= 1e-9


def test_trusted_interior_erodes_boundary(absval_1d, dual_fine_1d):
    res = ll.conjugate_fast(absval_1d, dual_fine_1d)
    ti = res.trusted_interior()
    s = dual_fine_1d.points[:, 0]
    assert not ti[np.abs(np.abs(s) - 1.0) < 1e-9].any()
    assert ti[np.abs(s) <= 0.9].all()


def test_fast_transform_rejects_dim_three():
    g = ll.Grid(((0.0, 1.0),) * 3, (3, 3, 3))
    f = ll.GridFunction(g, np.zeros(g.shape))
    with pytest.raises(NotImplementedError):
        ll.conjugate_fast(f, g)


def test_heavy_inf_two_dimensional_rows():
    """Rows entirely outside dom f must drop out of the second pass."""
    g = ll.grid_2d(-1.0, 1.0, 11)
    d = ll.grid_2d(-2.0, 2.0, 9)
    vals = np.full(g.shape, math.inf)
    vals[5, :] = g.axes[1] ** 2          # a single finite row
    f = ll.GridFunction(g, vals)
    fast = ll.conjugate_fast(f, d)
    brute = ll.conjugate_brute(f, d)
    assert rel_close(fast.dual.flat, brute.dual.flat).all()
    assert (fast.trusted == brute.trusted).all()
