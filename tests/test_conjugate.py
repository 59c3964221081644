import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legendrelab as ll
import legendrelab.conjugate as C
from legendrelab.catalog import entries, entry
from legendrelab.conjugate import _MAXPLUS_BLOCK, _maxplus
from legendrelab.generators import random_convex_1d, random_grid_function
from legendrelab.tolerances import DEFAULT_TOLS

from conftest import brute_conjugate_values, random_convex_2d


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


def test_module_import_reaches_the_module():
    """``import legendrelab.conjugate as C`` binds the module, not a function
    the package exports under the module's name."""
    assert C.__name__ == "legendrelab.conjugate"
    assert C._maxplus is _maxplus


@pytest.mark.parametrize("conjugate", [ll.conjugate_fast, ll.conjugate_brute],
                         ids=["fast", "brute"])
def test_conjugate_matches_independent_oracle(conjugate, halfsq_1d):
    dual = ll.grid_1d(-3.0, 3.0, 57)
    res = conjugate(halfsq_1d, dual)
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


def lipschitz_per_axis_loop(f):
    """The earlier ``lipschitz_hat``: the largest finite difference per axis
    over that axis's nominal spacing, one axis at a time."""
    best = 0.0
    for ax in range(f.grid.dim):
        with np.errstate(invalid="ignore"):
            d = np.diff(f.values, axis=ax)
        ok = np.isfinite(d)
        if ok.any():
            best = max(best, float(np.abs(d[ok]).max()) / f.grid.spacing[ax])
    return best


def bicon_cases():
    """The catalog plus 200 seeded random functions, rough or convex, in
    1D and 2D, with and without +inf holes."""
    for e in entries():
        yield e.id, e.build(), e.dual_grid
    rng = np.random.default_rng(8)
    for k in range(200):
        if k % 2 == 0:
            g = ll.grid_1d(-2.0, 2.0, int(rng.integers(20, 160)))
            d = ll.grid_1d(-4.0, 4.0, int(rng.integers(20, 160)))
        else:
            g = ll.grid_2d(-1.5, 1.5, int(rng.integers(6, 30)))
            d = ll.grid_2d(-3.0, 3.0, int(rng.integers(6, 30)))
        if k % 4 < 2:
            f = random_grid_function(rng, g, inf_frac=float(rng.choice([0.0, 0.1, 0.3])))
        elif g.dim == 1:
            f = random_convex_1d(rng, g, strongly=bool(k % 8 < 4), boxed=bool(k % 3))
        else:
            f = random_convex_2d(rng, g, strongly=bool(k % 8 < 4))
        yield f"random{k}", f, d


def test_bicon_tolerance_matches_per_axis_slope_loop():
    """``biconjugate`` cuts at ``Tolerances.bicon`` with the largest |f| on
    the domain as scale. ``lipschitz_hat`` reads the cached one-step
    slopes, which divide by coordinate differences rather than the nominal
    spacing h. A coordinate
    lo + k h rounds twice, by at most one ulp of the grid extent in all, so
    a coordinate step is h up to two such ulps: tol_bicon moves by that
    relative amount plus a few roundings, and no consistency verdict
    moves."""
    eps = np.finfo(float).eps
    for name, f, d in bicon_cases():
        assert f.lipschitz_hat() == float(f.local_slopes.max()), name
        bic = ll.biconjugate(f, d)
        scale = float(np.abs(f.flat[f.domain_flat]).max(initial=0.0))
        assert bic.tol_bicon == DEFAULT_TOLS.bicon(
            f.grid.max_spacing, f.lipschitz_hat(), scale), name
        want = DEFAULT_TOLS.bicon(f.grid.max_spacing,
                                  lipschitz_per_axis_loop(f), scale)
        extent = max(abs(lo) + abs(hi) for lo, hi in f.grid.bounds)
        rel = 2 * np.spacing(extent) / min(f.grid.spacing) + 8 * eps
        assert abs(bic.tol_bicon - want) <= rel * want, name
        assert bic.consistent == (bic.max_gap <= want), name


def dense_maxplus(xs, F, ss):
    """Whole-array reference for ``_maxplus``: the first-index argmax of
    ``ss[j] * xs[k] - F[r, k]`` over one (rows, duals, primal) broadcast,
    with values recomputed at that index; -inf and -1 on an empty slice."""
    if xs.size == 0:
        return (np.full((F.shape[0], ss.size), -np.inf),
                np.full((F.shape[0], ss.size), -1))
    arg = (ss[:, None] * xs - F[:, None, :]).argmax(-1)
    return ss * xs[arg] - np.take_along_axis(F, arg, axis=1), arg


def conjugate_fast_rerun_all(f, dual_grid):
    """The earlier ``conjugate_fast``, on the dense reference: trust from
    re-running the passes on interior primal points for every dual point."""
    if f.grid.dim == 1:
        xs = f.grid.axes[0]
        ss = dual_grid.axes[0]
        fv = f.flat[None, :]
        vals, arg = dense_maxplus(xs, fv, ss)
        iv, _ = dense_maxplus(xs[1:-1], fv[:, 1:-1], ss)
        return vals[0], arg[0], (iv >= vals)[0]
    x1, x2 = f.grid.axes
    s1, s2 = dual_grid.axes
    fv = f.values
    g, a2 = dense_maxplus(x2, fv, s2)
    v, a1 = dense_maxplus(x1, -g.T, s1)
    g_int, _ = dense_maxplus(x2[1:-1], fv[1:-1, 1:-1], s2)
    iv, _ = dense_maxplus(x1[1:-1], -g_int.T, s1)
    cols = np.arange(s2.size)[:, None]
    arg = (a1 * f.grid.counts[1] + a2[a1, cols]).T.ravel()
    return v.T.ravel(), arg, (iv >= v).T.ravel()


def assert_matches_rerun_all(f, dual_grid):
    """Values, argmax and trust bitwise equal to the rerun-all oracle, for
    f* and for the second conjugate of f* back onto the primal grid."""
    for fn, onto in ((f, dual_grid), (None, f.grid)):
        if fn is None:
            fn = ll.conjugate_fast(f, dual_grid).dual
        got = ll.conjugate_fast(fn, onto)
        vals, arg, trusted = conjugate_fast_rerun_all(fn, onto)
        np.testing.assert_array_equal(got.dual.flat, vals)
        np.testing.assert_array_equal(got.argmax, arg)
        np.testing.assert_array_equal(got.trusted, trusted)


@st.composite
def oracle_case(draw):
    """1D or 2D (square or rectangular, axes down to 2 and 3 points) rough
    functions with 0-60 % +inf holes, affine rows whose points all tie at
    a slope on the dual grid, quantized values, and all-zero functions."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 2]))
    top = 300 if dim == 1 else 40
    counts = [draw(st.one_of(st.sampled_from([2, 3]), st.integers(2, top)))
              for _ in range(dim)]
    duals = [draw(st.integers(2, top)) for _ in range(dim)]
    g = ll.Grid(((-1.5, 2.0),) * dim, counts)
    lo, hi = -float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0))
    d = ll.Grid(((lo, hi),) * dim, duals)
    kind = draw(st.sampled_from(["rough", "affine", "quantized", "zero"]))
    inf_frac = draw(st.sampled_from([0.0, 0.1, 0.6]))
    if kind == "zero":
        return ll.GridFunction(g, np.zeros(g.shape)), d
    f = random_grid_function(rng, g, inf_frac=inf_frac)
    if kind == "quantized":
        f = ll.GridFunction(g, np.round(4.0 * f.values) / 4.0)
    elif kind == "affine":
        a = d.axes[-1][int(rng.integers(duals[-1]))]
        vals = np.broadcast_to(a * g.axes[-1], g.shape).copy()
        vals[f.values == math.inf] = math.inf
        f = ll.GridFunction(g, vals)
    return f, d


def windowed_from(floor):
    """Run ``_maxplus`` passes of at least ``floor`` scratch elements on the
    windowed search (where the separation lemma holds)."""
    return mock.patch.object(C, "_MAXPLUS_WINDOWED_MIN", floor)


@settings(max_examples=300, deadline=None)
@given(case=oracle_case(), windowed=st.booleans())
def test_fast_trust_equals_rerun_all_oracle(case, windowed):
    """Also with every pass windowed (where the separation lemma holds)."""
    f, d = case
    with windowed_from(0 if windowed else C._MAXPLUS_WINDOWED_MIN):
        assert_matches_rerun_all(f, d)


@pytest.mark.parametrize("eid", [e.id for e in entries()])
def test_fast_trust_equals_rerun_all_oracle_on_catalog(eid):
    e = entry(eid)
    assert_matches_rerun_all(e.build(), e.dual_grid)


def test_fast_trust_equals_rerun_all_oracle_on_bicon_cases():
    """The catalog and 200 seeded rough and convex functions: their second
    conjugates hold most of the open duals."""
    for name, f, d in bicon_cases():
        try:
            assert_matches_rerun_all(f, d)
        except AssertionError as err:
            raise AssertionError(name) from err


def open_columns(res):
    """The ``s2`` columns of a 2D conjugate holding an open dual (first
    maximizer neither interior nor at the last x1 index), and those holding
    any dual whose first maximizer is not interior, which the earlier rule
    re-ran."""
    n1, n2 = res.primal_grid.counts
    a1, a2 = np.divmod(res.argmax.reshape(res.dual_grid.shape), n2)
    edge = ~((a1 > 0) & (a1 < n1 - 1) & (a2 > 0) & (a2 < n2 - 1))
    return (np.flatnonzero((edge & (a1 < n1 - 1)).any(axis=0)),
            np.flatnonzero(edge.any(axis=0)))


def test_2d_trust_reruns_only_open_columns(monkeypatch):
    """A 2D biconjugate never passes the interior-x2 slab to ``_maxplus``
    (the interior-x2 maxima come from the first pass, which each conjugate
    runs once, over every x1 row and the interior x2 points), and its
    interior-x1 passes take only the columns that hold an open dual, here
    fewer than the earlier rule re-ran."""
    g = ll.grid_2d(-1.5, 1.5, 21)
    d = ll.grid_2d(-3.0, 3.0, 17)
    f = random_grid_function(np.random.default_rng(12), g, inf_frac=0.1)
    star = ll.conjugate_fast(f, d)
    second = ll.conjugate_fast(star.dual, g)
    calls = []

    def spy(xs, F, ss):
        calls.append((xs.copy(), F.copy()))
        return _maxplus(xs, F, ss)

    monkeypatch.setattr(C, "_maxplus", spy)
    bic = ll.biconjugate(f, d)
    np.testing.assert_array_equal(bic.trusted, second.trusted)
    for res, fn in ((star, f), (second, star.dual)):
        slab = fn.values[1:-1, 1:-1]
        assert not any(F.shape == slab.shape and np.array_equal(F, slab)
                       for _, F in calls)
        first = fn.values[:, 1:-1]
        is_first = [F.shape == first.shape and np.array_equal(F, first)
                    for _, F in calls]
        assert sum(is_first) == 1
        x1_inner = fn.grid.axes[0][1:-1]
        seen = [F.shape[0] for (xs, F), skip in zip(calls, is_first)
                if not skip and xs.shape == x1_inner.shape
                and np.array_equal(xs, x1_inner)]
        assert seen == [open_columns(res)[0].size]
    opened, rerun = open_columns(second)
    assert 0 < opened.size < rerun.size


def test_fast_matches_oracle_past_one_block():
    """A 131^2 primal holds more than ``_MAXPLUS_BLOCK`` values, so each
    block of the first pass takes one dual point and more elements."""
    g = ll.grid_2d(-1.0, 1.0, 131)
    assert g.size > _MAXPLUS_BLOCK
    f = random_grid_function(np.random.default_rng(4), g, inf_frac=0.1)
    assert_matches_rerun_all(f, ll.grid_2d(-2.0, 2.0, 11))


@pytest.mark.parametrize("block", [1, 1 << 16])
def test_maxplus_independent_of_block_size(monkeypatch, block):
    """Dense rows (3 of them) and windowed rows (8, past the crossover), and
    2D conjugates dense and windowed, all equal the dense reference."""
    rng = np.random.default_rng(5)
    xs = np.linspace(-2.0, 2.0, 201)
    ss = np.linspace(-3.0, 3.0, 241)
    F = rng.normal(size=(8, 201))
    F[rng.random(F.shape) < 0.1] = math.inf
    assert 3 * xs.size * ss.size < C._MAXPLUS_WINDOWED_MIN <= F.size * ss.size
    g = ll.grid_2d(-1.5, 1.5, 21)
    d = ll.grid_2d(-3.0, 3.0, 17)
    f = random_grid_function(rng, g, inf_frac=0.1)
    monkeypatch.setattr(C, "_MAXPLUS_BLOCK", block)
    for rows in (F[:3], F):
        for a, b in zip(_maxplus(xs, rows, ss), dense_maxplus(xs, rows, ss)):
            np.testing.assert_array_equal(a, b)
    for floor in (C._MAXPLUS_WINDOWED_MIN, 0):
        with windowed_from(floor):
            assert_matches_rerun_all(f, d)


@st.composite
def maxplus_case(draw):
    """(xs, F, ss) for ``_maxplus``: rough, convex or quantized (tied) rows
    with 0-60 % +inf holes and maybe an all-+inf row, offsets up to +-1e6,
    or 1e200 where the separation lemma fails, against a uniform dual axis
    or a non-uniform subset of it, either side of the crossover."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 8))
    xs = ll.grid_1d(-1.5, 2.0, draw(st.integers(2, 400))).axes[0]
    ss = ll.grid_1d(-float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0)),
                    draw(st.integers(2, 400))).axes[0]
    kind = draw(st.sampled_from(["rough", "convex", "quantized"]))
    h = float(xs[1] - xs[0])
    if kind == "convex":      # piecewise linear: collinear runs tie exactly
        slopes = np.sort(rng.uniform(-4.0, 4.0, size=(rows, xs.size - 1)))
        F = np.concatenate([np.zeros((rows, 1)), np.cumsum(slopes, 1) * h], 1)
    else:
        F = (np.cumsum(rng.normal(size=(rows, xs.size)), 1) * math.sqrt(h)
             + rng.normal(scale=0.5, size=(rows, xs.size)))
        if kind == "quantized":
            F = np.round(4.0 * F) / 4.0
    F = F + draw(st.sampled_from([0.0, 3.7, -250.0, 1e6, -1e6, 1e200]))
    F[rng.random(F.shape) < draw(st.sampled_from([0.0, 0.1, 0.6]))] = math.inf
    if draw(st.booleans()):
        F[rng.integers(rows)] = math.inf
    if draw(st.booleans()):   # a sorted, non-uniform subset of the dual axis
        keep = rng.random(ss.size) < rng.uniform(0.2, 0.9)
        keep[rng.integers(ss.size)] = True
        ss = ss[keep]
    return xs, F, ss


@settings(max_examples=300, deadline=None)
@given(case=maxplus_case(), windowed=st.booleans())
def test_windowed_maxplus_equals_dense_reference(case, windowed):
    """Values and first-index argmax bit for bit, at the crossover or with
    every pass windowed (where the separation lemma holds)."""
    xs, F, ss = case
    with windowed_from(0 if windowed else C._MAXPLUS_WINDOWED_MIN):
        got = _maxplus(xs, F, ss)
    for a, b in zip(got, dense_maxplus(xs, F, ss)):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=300, deadline=None)
@given(case=maxplus_case(), windowed=st.booleans())
def test_joined_maxplus_equals_dense_reference(case, windowed):
    """The interior pass joined with the two edge points equals the dense
    pass over all of xs (values with their sign bits, first argmax), and
    its interior values the dense pass over xs[1:-1]."""
    xs, F, ss = case
    with windowed_from(0 if windowed else C._MAXPLUS_WINDOWED_MIN):
        vals, arg, iv = C._maxplus_joined(xs, F, ss)
    want, want_arg = dense_maxplus(xs, F, ss)
    want_iv, _ = dense_maxplus(xs[1:-1], F[:, 1:-1], ss)
    np.testing.assert_array_equal(arg, want_arg)
    for a, b in ((vals, want), (iv, want_iv)):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def calls_to_windowed(monkeypatch):
    calls = []
    windowed = C._windowed_argmax

    def spy(xs, F, ss):
        calls.append(F.shape[0] * xs.size * ss.size)
        return windowed(xs, F, ss)

    monkeypatch.setattr(C, "_windowed_argmax", spy)
    return calls


def test_windowed_search_only_past_the_crossover(monkeypatch):
    """A 1D 201 -> 241 biconjugate stays dense; a 2D 81^2 -> 121^2 one
    windows its passes past the crossover, and both equal the reference."""
    calls = calls_to_windowed(monkeypatch)
    rng = np.random.default_rng(6)
    for make, n, m in ((ll.grid_1d, 201, 241), (ll.grid_2d, 81, 121)):
        calls.clear()
        f = random_grid_function(rng, make(-2.0, 2.0, n), inf_frac=0.1)
        assert_matches_rerun_all(f, make(-3.0, 3.0, m))
        assert all(c >= C._MAXPLUS_WINDOWED_MIN for c in calls)
        assert (len(calls) > 0) == (make is ll.grid_2d)


def test_separation_failure_runs_the_dense_pass(monkeypatch):
    """Values near 1e200 put e far above min dx * min ds: the pass runs
    dense, with no warning, and equals the reference."""
    calls = calls_to_windowed(monkeypatch)
    rng = np.random.default_rng(7)
    g = ll.grid_2d(-2.0, 2.0, 81)
    f = random_grid_function(rng, g, inf_frac=0.1)
    huge = ll.GridFunction(g, 1e200 * (1.0 + 0.01 * f.values))
    d = ll.grid_2d(-3.0, 3.0, 121)
    xs, ss = g.axes[1], d.axes[1]
    assert not C._separated(xs, huge.values, ss)
    assert C._separated(xs, f.values, ss)
    with np.errstate(all="raise"):
        assert_matches_rerun_all(huge, d)
    assert calls == []
