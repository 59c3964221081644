import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legendrelab as ll
from legendrelab import subdiff
from legendrelab.catalog import entries, entry
from legendrelab.errors import PointOutsideDomainError
from legendrelab.generators import random_convex_1d, random_grid_function
from legendrelab.tolerances import DEFAULT_TOLS


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


@pytest.mark.parametrize("norm", list(ll.NormChoice), ids=lambda n: n.value)
def test_tau_sub_on_a_grid_reads_its_cached_dual_norms(norm):
    """A dual grid passed whole gives the thresholds of its points, bit for
    bit, from dual norms it computes once."""
    e = entry("halfsq2")
    f, d = e.build(), e.dual_grid
    x = f.grid.index_of_nearest([0.3, -0.2])
    np.testing.assert_array_equal(ll.tau_sub(f, x, d, norm),
                                  ll.tau_sub(f, x, d.points, norm))
    assert d.lengths(norm.dual) is d.lengths(norm.dual)


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
        if sub.members.size:
            pairs.append((g.point(x)[0], sub.points()[0, 0],
                          ll.tau_sub(f, x, sub.points()[0])))
    for i in range(len(pairs)):
        for j in range(i):
            (x1, s1, t1), (x2, s2, t2) = pairs[i], pairs[j]
            assert (x1 - x2) * (s1 - s2) >= -2.0 * max(t1, t2) * (1 + abs(x1 - x2))


def test_derivative_dominates_subgradient_pairing(halfsq_1d, absval_1d,
                                                  dual_fine_1d):
    """f'(x, d) >= <d, s> - O(h) over gap-minimal subgradient members, with
    f'(x, d) estimated by the one-step quotient (f(x + h d) - f(x)) / h.

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
                quotient = (f.value_at(x + direction) - f.value_at(x)) / h
                best = (tight * direction).max()
                assert quotient >= best - 4.0 * h * (1 + abs(v))


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


def _bracket_loop(star):
    """The bracket rule of ``domain_chain_check``, point by point in Python
    floats: s is in the estimate when on every axis f*(s + h e) - f*(s) >=
    h x_1 and f*(s - h e) - f*(s) >= -h x_{n-2}, each up to the ``delta0``
    slack of the larger |f*|, wherever that dual neighbor exists; none
    when a primal axis has no interior coordinate."""
    dg = star.dual_grid
    fs = star.dual.values
    out = np.zeros(dg.size, dtype=bool)
    if min(star.primal_grid.counts) < 3:
        return out
    for flat, idx in enumerate(np.ndindex(*dg.shape)):
        ok = True
        for ax, (x, h) in enumerate(zip(star.primal_grid.axes, dg.spacing)):
            for k, edge in ((1, float(x[1])), (-1, float(x[-2]))):
                pos = idx[ax] + k
                if not 0 <= pos < dg.shape[ax]:
                    continue
                here = float(fs[idx])
                there = float(fs[idx[:ax] + (pos,) + idx[ax + 1:]])
                slack = DEFAULT_TOLS.delta0(max(abs(here), abs(there)))
                ok = ok and there - here >= k * h * edge - slack
        out[flat] = ok
    return out


def _bracket_report(f, dual_grid):
    star = ll.conjugate_fast(f, dual_grid)
    dom_sub = _bracket_loop(star)
    int_dom = star.trusted_interior()
    violations = np.flatnonzero((star.trusted | int_dom) & ~dom_sub)
    return star, (star.trusted, int_dom, dom_sub, violations)


def _assert_same_report(r, want):
    for name, arr in zip(("dom_mj", "int_dom_conj", "dom_sub_conj",
                          "violations"), want):
        got = getattr(r, name)
        assert got.dtype == arr.dtype and np.array_equal(got, arr), name


@pytest.mark.parametrize("eid", [e.id for e in entries()])
def test_domain_chain_equals_bracket_oracle_on_catalog(eid):
    e = entry(eid)
    f = e.build()
    _, want = _bracket_report(f, e.dual_grid)
    _assert_same_report(ll.domain_chain_check(f, e.dual_grid), want)


def test_domain_chain_equals_bracket_oracle_on_random_nonconvex():
    """Rough functions with +inf holes, on dual grids narrower and wider
    than their slopes: the oracle decides duals both ways."""
    grids = [(ll.grid_1d(-2, 2, 81), ll.grid_1d(-1, 1, 9)),
             (ll.grid_2d(-2, 2, 17), ll.grid_2d(-1, 1, 7)),
             (ll.grid_1d(-2, 2, 41), ll.grid_1d(-3, 3, 5)),
             (ll.grid_2d(-2, 2, 13), ll.grid_2d(-3, 3, 5))]
    decided = {True: 0, False: 0}
    for seed in range(12):
        g, d = grids[seed % 4]
        f = random_grid_function(np.random.default_rng(seed), g, inf_frac=0.2)
        _, want = _bracket_report(f, d)
        _assert_same_report(ll.domain_chain_check(f, d), want)
        for verdict in (True, False):
            decided[verdict] += int((want[2] == verdict).sum())
    assert decided[True] > 0 and decided[False] > 0


@st.composite
def _random_conjugates(draw):
    """f* of a rough function with +inf holes on a random 1- or 2-axis box,
    over a dual box that may be narrower or wider than its slopes."""
    dim = draw(st.integers(1, 2))
    primal, dual = [], []
    for _ in range(dim):
        lo = draw(st.floats(-3.0, 0.0))
        primal.append(((lo, lo + draw(st.floats(0.5, 4.0))),
                       draw(st.integers(3, 40 if dim == 1 else 14))))
        lo = draw(st.floats(-6.0, 0.0))
        dual.append(((lo, lo + draw(st.floats(0.5, 10.0))),
                     draw(st.integers(2, 30 if dim == 1 else 12))))
    g = ll.Grid(*zip(*primal))
    d = ll.Grid(*zip(*dual))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = random_grid_function(rng, g,
                             inf_frac=draw(st.sampled_from([0.0, 0.1, 0.3])))
    return ll.conjugate_fast(f, d)


@settings(max_examples=150, deadline=None)
@given(star=_random_conjugates())
def test_domain_chain_estimate_holds_every_trusted_dual(star):
    """A trusted dual's maximizer is an interior subgradient of f*, so it
    lies in the bracket; the differences f*(s +- h e) - f*(s) reach h times
    it only up to rounding, which the ``delta0`` slack absorbs."""
    r = subdiff._domain_chain(star)
    assert r.dom_sub_conj[star.trusted].all()
    assert r.inclusion_holds


def test_domain_chain_two_point_axis_has_no_interior_bracket():
    """f* of 0 on {-1, 1} is |s|: its bracket [-1, 1] at s = 0 touches both
    ends of the primal interval, but no interior coordinate lies between."""
    for g, d in ((ll.grid_1d(-1.0, 1.0, 2), ll.grid_1d(-2.0, 2.0, 9)),
                 (ll.Grid(((-1.0, 1.0), (-1.0, 1.0)), (5, 2)),
                  ll.grid_2d(-2.0, 2.0, 9))):
        f = ll.GridFunction(g, np.zeros(g.shape))
        r = ll.domain_chain_check(f, d)
        assert not r.dom_sub_conj.any() and r.inclusion_holds


def test_domain_chain_abs_leaves_out_large_duals():
    """f* of |x| is the indicator of [-1, 1]; the estimate is that interval
    on the dual grid, and no dual with |s| >= 1.1 is in it."""
    e = entry("abs")
    r = ll.domain_chain_check(e.build(), e.dual_grid)
    s = e.dual_grid.points[:, 0]
    assert not r.dom_sub_conj[np.abs(s) >= 1.1].any()
    assert np.array_equal(r.dom_sub_conj, np.abs(s) <= 1.0 + 1e-12)


@pytest.mark.parametrize("eid", [e.id for e in entries()
                                 if e.conjugate_analytic is not None])
def test_domain_chain_estimate_inside_analytic_domain(eid):
    e = entry(eid)
    r = ll.domain_chain_check(e.build(), e.dual_grid)
    off = np.isposinf(e.conjugate_analytic(e.dual_grid.points))
    assert not (r.dom_sub_conj & off).any()


def test_domain_chain_truncation_undercount():
    """Interior duals where the analytic f* is finite but outside the
    estimate: their true subgradient leaves the interior primal box, so no
    grid point certifies it. Not a failure of the estimate; pinned so that
    a change in it shows. For the half squares, grad f*(s) = s."""
    under = {}
    for e in entries():
        if e.conjugate_analytic is None:
            continue
        d = e.dual_grid
        r = ll.domain_chain_check(e.build(), d)
        finite = np.isfinite(e.conjugate_analytic(d.points))
        missed = d.interior_flat & finite & ~r.dom_sub_conj
        under[e.id] = int(missed.sum())
        if e.id in ("halfsq", "halfsq2"):
            inner = [x[-2] for x in e.primal_grid.axes]
            beyond = (np.abs(d.points) > inner).any(axis=1)
            assert np.array_equal(missed, d.interior_flat & beyond)
    assert {k: v for k, v in under.items() if v} == {
        "halfsq": 80, "exp": 5, "halfsq2": 7920}
    assert len(under) == 12
