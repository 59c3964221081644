import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legendrelab as ll
from legendrelab import subdiff
from legendrelab.catalog import entries, entry
from legendrelab.errors import NoAdmissibleStepError, PointOutsideDomainError
from legendrelab.generators import random_convex_1d, random_grid_function
from legendrelab.tolerances import DEFAULT_TOLS, Tolerances


def test_abs_subgradients_at_zero(absval_1d, dual_fine_1d):
    res = ll.conjugate_fast(absval_1d, dual_fine_1d)
    x0 = absval_1d.grid.index_of_nearest([0.0])
    sub = ll.subgradients(absval_1d, res, x0)
    pts = sub.points()[:, 0]
    s = dual_fine_1d.points[:, 0]
    expected = s[(np.abs(s) <= 1.0 + 1e-12)]
    assert set(np.round(expected, 9)) <= set(np.round(pts, 9))
    assert (sub.gaps >= -1e-9).all()
    assert (np.diff(sub.gaps) >= 0).all()


def test_halfsq_subgradient_cluster(halfsq_1d, dual_fine_1d):
    res = ll.conjugate_fast(halfsq_1d, dual_fine_1d)
    x1 = halfsq_1d.grid.index_of_nearest([1.0])
    sub = ll.subgradients(halfsq_1d, res, x1)
    pts = sub.points()[:, 0]
    assert np.any(np.isclose(pts, 1.0))
    # best member is the gradient itself
    assert np.isclose(pts[0], 1.0)
    # s = 0 is excluded with gap 0.5
    s0 = dual_fine_1d.index_of_nearest([0.0])
    gap0 = (halfsq_1d.value_at(x1) + res.dual.flat[s0]
            - halfsq_1d.grid.point(x1) @ dual_fine_1d.point(s0))
    assert np.isclose(gap0, 0.5)
    assert s0 not in sub.members


def test_subgradients_outside_domain_raises(dual_fine_1d):
    g = ll.grid_1d(-2.0, 2.0, 201)
    f = ll.build_grid_function(g, lambda x: 0.0 if abs(x) <= 1 else math.inf)
    res = ll.conjugate_fast(f, dual_fine_1d)
    with pytest.raises(PointOutsideDomainError):
        ll.subgradients(f, res, g.index_of_nearest([1.5]))


def test_subgradient_interval_closed_under_midpoints(absval_1d, dual_fine_1d):
    """1D members form a contiguous index interval (convex gap in s)."""
    res = ll.conjugate_fast(absval_1d, dual_fine_1d)
    sub = ll.subgradients(absval_1d, res, absval_1d.grid.index_of_nearest([0.0]))
    m = np.sort(sub.members)
    assert np.array_equal(m, np.arange(m[0], m[-1] + 1))


def test_directional_derivative_abs():
    g = ll.grid_1d(-2.0, 2.0, 201)
    f = ll.build_grid_function(g, lambda p: np.abs(p[:, 0]), vectorized=True)
    d = ll.directional_derivative(f, g.index_of_nearest([0.0]), [1])
    assert np.isclose(d.value, 1.0)
    d_neg = ll.directional_derivative(f, g.index_of_nearest([0.0]), [-1])
    assert np.isclose(d_neg.value, 1.0)


def test_directional_derivative_halfsq(halfsq_1d):
    g = halfsq_1d.grid
    d = ll.directional_derivative(halfsq_1d, g.index_of_nearest([1.0]), [-1])
    assert abs(d.value - (-1.0)) <= g.max_spacing


def test_directional_derivative_well_edge():
    e = entry("fourth_root_well")
    f = e.build()
    x = f.grid.index_of_nearest([0.0, 1.0])
    d = ll.directional_derivative(f, x, [1, 0])
    assert d.value == 0.0


def test_directional_derivative_reduces_gcd(halfsq_1d):
    g = halfsq_1d.grid
    x = g.index_of_nearest([0.0])
    d1 = ll.directional_derivative(halfsq_1d, x, [1])
    d3 = ll.directional_derivative(halfsq_1d, x, [3])
    assert d1.value == d3.value


def test_directional_derivative_errors():
    g = ll.grid_1d(-1.0, 1.0, 11)
    f = ll.build_grid_function(g, lambda x: 0.0 if x <= 0 else math.inf)
    edge = g.index_of_nearest([-1.0])
    with pytest.raises(NoAdmissibleStepError):
        ll.directional_derivative(f, edge, [-1])
    at0 = g.index_of_nearest([0.0])
    d = ll.directional_derivative(f, at0, [1])
    assert d.value == math.inf


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_subgradient_monotonicity(seed):
    """<x1 - x2, s1 - s2> >= -2 tau scale over estimated pairs."""
    rng = np.random.default_rng(seed)
    g = ll.grid_1d(-2.0, 2.0, 101)
    d = ll.grid_1d(-4.0, 4.0, 81)
    f = random_convex_1d(rng, g, strongly=True)
    res = ll.conjugate_fast(f, d)
    pts = [g.index_of_nearest([v]) for v in (-1.0, -0.3, 0.4, 1.2)]
    pairs = []
    for x in pts:
        sub = ll.subgradients(f, res, x)
        if not sub.empty:
            pairs.append((g.point(x)[0], sub.points()[0, 0],
                          ll.tau_sub(f, x, sub.points()[0])))
    for i in range(len(pairs)):
        for j in range(i):
            (x1, s1, t1), (x2, s2, t2) = pairs[i], pairs[j]
            assert (x1 - x2) * (s1 - s2) >= -2.0 * max(t1, t2) * (1 + abs(x1 - x2))


def test_derivative_dominates_subgradient_pairing(halfsq_1d, absval_1d,
                                                  dual_fine_1d):
    """f'(x, d) >= <d, s> - O(h) over gap-minimal subgradient members.

    Gap-threshold members further out are only sqrt(h)-approximate
    subgradients; the support inequality is a statement about the exact
    ones, here the members at the bottom of the gap ordering.
    """
    for f, probes in ((halfsq_1d, (-1.0, 0.0, 0.7)), (absval_1d, (0.0, 0.5))):
        g = f.grid
        res = ll.conjugate_fast(f, dual_fine_1d)
        h = g.max_spacing
        for v in probes:
            x = g.index_of_nearest([v])
            sub = ll.subgradients(f, res, x)
            tight = sub.points()[sub.gaps <= sub.gaps.min() + 1e-9, 0]
            for direction in (1, -1):
                der = ll.directional_derivative(f, x, [direction])
                best = (tight * der.direction[0]).max()
                assert der.value >= best - 4.0 * h * (1 + abs(v))


def test_domain_chain_halfsq(halfsq_1d, dual_fine_1d):
    r = ll.domain_chain_check(halfsq_1d, dual_fine_1d)
    assert r.inclusion_holds
    s = dual_fine_1d.points[:, 0]
    strict = np.abs(s) <= 1.9
    assert r.dom_mj[strict].all()
    assert not r.dom_mj[np.abs(s) >= 2.1].any()


def test_domain_chain_abs_oracle(absval_1d, dual_fine_1d):
    """dom MJ members = tilts whose brute-force minimizer is interior."""
    r = ll.domain_chain_check(absval_1d, dual_fine_1d)
    assert r.inclusion_holds
    g = absval_1d.grid
    for j in range(0, dual_fine_1d.size, 17):
        tilted = absval_1d.flat - g.points[:, 0] * dual_fine_1d.point(j)[0]
        ties = np.flatnonzero(tilted <= tilted.min())
        interior_attained = bool(g.interior_flat[ties].any())
        assert bool(r.dom_mj[j]) == interior_attained


def test_domain_chain_exp_boundary():
    e = entry("exp")
    f = e.build()
    r = ll.domain_chain_check(f, e.dual_grid)
    assert r.inclusion_holds
    s = e.dual_grid.points[:, 0]
    assert not r.dom_mj[s <= 0.0].any()
    assert r.dom_mj[(s >= 0.2) & (s <= 3.0)].all()


def _domain_chain_full_pass(f, dual_grid, norm=ll.NormChoice.L2,
                            tols=DEFAULT_TOLS):
    """The chunked pass over every dual row that ``domain_chain_check``
    replaced, kept as its oracle."""
    bic = ll.biconjugate(f, dual_grid)
    star = bic.star
    dom_mj = star.trusted.copy()
    int_dom = star.trusted_interior()
    pts = f.grid.points
    duals = dual_grid.points
    x_norms = norm.length(pts)
    fss = bic.function.flat
    h_d = dual_grid.max_spacing
    dom_sub = np.zeros(dual_grid.size, dtype=bool)
    chunk = 256
    usable = bic.trusted & np.isfinite(fss)
    for lo in range(0, dual_grid.size, chunk):
        hi = min(lo + chunk, dual_grid.size)
        gaps = (star.dual.flat[lo:hi, None] + fss[None, :]
                - duals[lo:hi] @ pts.T)
        slopes = star.dual.local_slopes[lo:hi]
        taus = tols.gap_threshold(h_d, x_norms[None, :], slopes[:, None])
        dom_sub[lo:hi] = ((gaps <= taus) & usable[None, :]).any(axis=1)
    violations = np.flatnonzero((dom_mj | int_dom) & ~dom_sub)
    return bic, (dom_mj, int_dom, dom_sub, violations)


def _assert_same_report(r, want):
    for name, arr in zip(("dom_mj", "int_dom_conj", "dom_sub_conj",
                          "violations"), want):
        got = getattr(r, name)
        assert got.dtype == arr.dtype and np.array_equal(got, arr), name


@pytest.mark.parametrize("eid", [e.id for e in entries()])
def test_domain_chain_equals_full_pass_on_catalog(eid):
    e = entry(eid)
    f = e.build()
    _, want = _domain_chain_full_pass(f, e.dual_grid)
    _assert_same_report(ll.domain_chain_check(f, e.dual_grid), want)


def test_domain_chain_equals_full_pass_on_random_nonconvex(monkeypatch):
    """Rough functions with +inf holes whose slopes outrun a narrow dual
    grid: the maximizers of many dual rows are not usable points of f**, so
    the full pass decides those rows, both ways once the threshold is tight
    (a tight ``tau_c`` patched onto the instance ``subdiff`` reads)."""
    grids = [(ll.grid_1d(-2, 2, 81), ll.grid_1d(-1, 1, 9)),
             (ll.grid_2d(-2, 2, 17), ll.grid_2d(-1, 1, 7)),
             (ll.grid_1d(-2, 2, 41), ll.grid_1d(-3, 3, 5)),
             (ll.grid_2d(-2, 2, 13), ll.grid_2d(-3, 3, 5))]
    rows = left = 0
    decided = {True: 0, False: 0}
    for seed in range(12):
        g, d = grids[seed % 4]
        f = random_grid_function(np.random.default_rng(seed), g, inf_frac=0.2)
        norm = [ll.NormChoice.L2, ll.NormChoice.L1, ll.NormChoice.LINF][seed % 3]
        for tols in (DEFAULT_TOLS, Tolerances(tau_c=0.01)):
            monkeypatch.setattr(subdiff, "DEFAULT_TOLS", tols)
            bic, want = _domain_chain_full_pass(f, d, norm, tols)
            _assert_same_report(ll.domain_chain_check(f, d, norm), want)
            k = bic.star.argmax
            usable = bic.trusted & np.isfinite(bic.function.flat)
            unscreened = (k < 0) | ~usable[k]
            rows += d.size
            left += int(unscreened.sum())
            for verdict in (True, False):
                decided[verdict] += int((unscreened
                                         & (want[2] == verdict)).sum())
    assert left > 0.1 * rows
    assert decided[True] > 0 and decided[False] > 0
