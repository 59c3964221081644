import math

import numpy as np
import pytest

import legendrelab as ll
from legendrelab.catalog import entry
from legendrelab.errors import (InfeasibleProblemError, InsufficientDataError,
                                NotASubgradientError)
from legendrelab.moduli import Modulus
from legendrelab.tolerances import DEFAULT_TOLS


def cert_start(grid):
    return DEFAULT_TOLS.cert_min_radius(grid.max_spacing)


def at_radius(m, t):
    k = np.flatnonzero(np.isclose(m.radii, t))
    assert k.size == 1
    return float(m.values[k[0]]), int(m.witnesses[k[0]])


def test_firm_modulus_quadratic(halfsq_1d):
    g = halfsq_1d.grid
    m = ll.firm_modulus(halfsq_1d, g.index_of_nearest([0.0]), [0.0])
    h = g.max_spacing
    for t in (0.2, 0.5, 1.0):
        v, _ = at_radius(m, t)
        assert abs(v - 0.5 * t * t) <= t * h
    pos, cert, _ = ll.certification_verdict(m, min_radius=cert_start(g))
    assert pos and cert.positive


def test_firm_modulus_abs_equality_side(absval_1d):
    """At the kink with the extreme subgradient s=1 the gap vanishes along u=t."""
    g = absval_1d.grid
    m = ll.firm_modulus(absval_1d, g.index_of_nearest([0.0]), [1.0])
    for t in (0.1, 0.5, 1.0):
        v, wit = at_radius(m, t)
        assert abs(v) <= 1e-12
        assert np.isclose(g.point(wit)[0], t)
    pos, _, _ = ll.certification_verdict(m, min_radius=cert_start(g))
    assert not pos


def test_firm_modulus_rejects_non_subgradient(halfsq_1d):
    with pytest.raises(NotASubgradientError):
        ll.firm_modulus(halfsq_1d, halfsq_1d.grid.index_of_nearest([1.0]), [0.0])


def test_firm_modulus_well_center_positive():
    """Brute-force oracle: shell minima of H(u) - H(0,0) over distance bands."""
    e = entry("fourth_root_well")
    f = e.build()
    g = f.grid
    c = g.index_of_nearest([0.0, 0.0])
    m = ll.firm_modulus(f, c, [0.0, 0.0])

    d = np.linalg.norm(g.points - g.point(c), axis=1)
    h = g.max_spacing
    for t in (0.25, 0.5, 0.75):
        band = (np.abs(d - t) <= h / 2) & (d > 0)
        oracle = np.min(f.flat[band] - f.value_at(c))
        v, _ = at_radius(m, t)
        assert np.isclose(v, oracle)
        assert v > 0
    sel = (m.radii > 0) & (m.radii < 1.0)
    assert (m.values[sel] > 0).all()
    pos, _, _ = ll.certification_verdict(m, min_radius=cert_start(g))
    assert pos


def test_total_convexity_quadratic(halfsq_1d):
    g = halfsq_1d.grid
    h = g.max_spacing
    m = ll.total_convexity_modulus(halfsq_1d, g.index_of_nearest([0.5]))
    for t in (0.2, 0.5, 1.0):
        v, _ = at_radius(m, t)
        assert 0.5 * t * t - 1.5 * t * h <= v <= 0.5 * t * t + 1e-9


def test_total_convexity_well_edge_zero():
    e = entry("fourth_root_well")
    f = e.build()
    g = f.grid
    m = ll.total_convexity_modulus(f, g.index_of_nearest([0.0, 1.0]))
    v, wit = at_radius(m, 0.5)
    assert v == 0.0
    assert np.isclose(abs(g.point(wit)[1]), 1.0)  # witness on the flat edge


def test_total_convexity_sqrt_well_corner_zero():
    e = entry("sqrt_well")
    f = e.build()
    g = f.grid
    m = ll.total_convexity_modulus(f, g.index_of_nearest([1.0, 1.0]))
    v, wit = at_radius(m, 0.5)
    assert v == 0.0
    assert np.allclose(g.point(wit), [0.5, 1.0])


def test_wellposedness_quadratic_tilt():
    e = entry("halfsq2")
    f = e.build()
    mod, rep = ll.wellposedness_modulus(f, [1.0, 0.0])
    assert np.allclose(f.grid.point(rep.minimizer), [1.0, 0.0])
    assert rep.strong and rep.multiplicity == 1
    h = f.grid.max_spacing
    for t in (0.5, 1.0):
        v, _ = at_radius(mod, t)
        assert abs(v - 0.5 * t * t) <= 1.2 * t * h


def test_wellposedness_symmetric_tie_not_strong():
    g = ll.grid_2d(-2.0, 2.0, 41)
    f = ll.build_grid_function(
        g, lambda p: np.where(
            (np.abs(np.abs(p[:, 0]) - 1.0) < 1e-9) & (np.abs(p[:, 1]) < 1e-9),
            -0.5 * (p * p).sum(axis=1), math.inf),
        name="neg_on_pair", vectorized=True)
    mod, rep = ll.wellposedness_modulus(f, [0.0, 0.0])
    assert rep.multiplicity == 2
    assert not rep.unique_at_resolution
    assert not rep.strong


def test_wellposedness_abs_kink(absval_1d):
    mod, rep = ll.wellposedness_modulus(absval_1d, [0.0])
    assert np.isclose(absval_1d.grid.point(rep.minimizer)[0], 0.0)
    assert rep.strong
    for t in (0.3, 1.0):
        v, _ = at_radius(mod, t)
        assert np.isclose(v, t)


def test_wellposedness_equals_firm_at_minimizer(halfsq_1d):
    """Both curves are shell infima of the same tilted gap: exact match."""
    s = [0.75]
    mod, rep = ll.wellposedness_modulus(halfsq_1d, s)
    firm = ll.firm_modulus(halfsq_1d, rep.minimizer, s)
    assert np.array_equal(mod.radii, firm.radii)
    both = np.isfinite(mod.values) & np.isfinite(firm.values)
    assert np.array_equal(mod.values[both], firm.values[both])
    assert np.array_equal(mod.empty, firm.empty)


def test_wellposedness_infeasible():
    g = ll.grid_1d(-1.0, 1.0, 11)
    f = ll.build_grid_function(g, lambda x: x * x)
    feasible = np.zeros(g.size, dtype=bool)
    with pytest.raises(InfeasibleProblemError):
        ll.wellposedness_modulus(f, [0.0], feasible=feasible)


def test_certify_gamma0_quadratic_samples():
    ts = np.linspace(0.1, 1.0, 10)
    m = Modulus("firm", 0, ts, 0.5 * ts * ts, np.zeros(10, bool),
                np.full(10, -1), ll.NormChoice.L2)
    cert = ll.certify_gamma0(m)
    assert cert.positive and cert.failure_radius is None


def test_certify_gamma0_zero_sample_fails_at_vertex():
    ts = np.array([0.5, 1.0, 1.5])
    vs = np.array([0.5, 0.0, 0.7])
    m = Modulus("firm", 0, ts, vs, np.zeros(3, bool), np.full(3, -1),
                ll.NormChoice.L2)
    cert = ll.certify_gamma0(m)
    assert not cert.positive
    assert cert.failure_radius == 1.0


def test_certify_gamma0_insufficient_data():
    ts = np.array([0.5, 1.0])
    vs = np.array([0.3, math.inf])
    m = Modulus("firm", 0, ts, vs, np.zeros(2, bool), np.full(2, -1),
                ll.NormChoice.L2)
    with pytest.raises(InsufficientDataError):
        ll.certify_gamma0(m)


def test_certification_vacuous_for_isolated_domain():
    g = ll.grid_1d(-2.0, 2.0, 201)
    f = ll.build_grid_function(g, lambda x: 0.0 if x == 0.0 else math.inf)
    mod, rep = ll.wellposedness_modulus(f, [0.0])
    assert rep.certificate_positive
    assert "vacuous" in rep.note
    assert rep.strong


def test_firm_modulus_well_certificate_positive_on_unit_interval():
    e = entry("fourth_root_well")
    f = e.build()
    m = ll.firm_modulus(f, f.grid.index_of_nearest([0.0, 0.0]), [0.0, 0.0])
    pos, cert, _ = ll.certification_verdict(m, min_radius=cert_start(f.grid))
    assert pos
    env = np.array(cert.knots)
    assert (env[env[:, 0] > 0][:, 1] > 0).all()


@pytest.mark.parametrize("eid,expected", [
    ("halfsq", True), ("halfsq2", True), ("abs", True), ("quartic", True),
    ("neg_entropy", True), ("point_indicator", True),
    ("affine", False), ("neg_halfsq", False), ("neg_halfsq2", False),
    ("exp", False),
])
def test_coercivity_catalog(eid, expected):
    r = ll.coercivity_check(entry(eid).build())
    assert r.verdict is expected, r.reason


def test_firm_at_least_total_minus_slack():
    """Total convexity at x forces firmness for every subgradient there."""
    for eid, pts in [("halfsq", [[0.0], [1.0]]),
                     ("fourth_root_well", [[0.0, 0.0], [0.5, -0.3]])]:
        e = entry(eid)
        f = e.build()
        res = ll.conjugate_fast(f, e.dual_grid)
        h = f.grid.max_spacing
        for p in pts:
            x = f.grid.index_of_nearest(p)
            sub = ll.subgradients(f, res, x)
            if sub.empty:
                continue
            total = ll.total_convexity_modulus(f, x)
            firm = ll.firm_modulus(f, x, sub.points()[0])
            both = np.isfinite(total.values) & np.isfinite(firm.values)
            tau = ll.tau_sub(f, x, sub.points()[0])
            slack = (tau + 4 * h) * (1.0 + firm.radii[both])
            assert (firm.values[both] >= total.values[both] - slack).all()


def test_uniform_firm_is_pointwise_min(absval_1d):
    g = absval_1d.grid
    x0 = g.index_of_nearest([0.0])
    tilts = [[-0.5], [0.0], [0.5]]
    uni = ll.uniform_firm_modulus(absval_1d, x0, tilts)
    singles = [ll.firm_modulus(absval_1d, x0, s) for s in tilts]
    stacked = np.vstack([m.values for m in singles])
    assert np.array_equal(uni.values, stacked.min(axis=0))


def test_firm_modulus_tilt_invariance(halfsq_1d):
    """Adding an affine part and shifting the subgradient leaves the curve."""
    g = halfsq_1d.grid
    a = 0.5
    shifted = ll.GridFunction(
        g, halfsq_1d.values + a * g.axes[0].reshape(g.shape) + 0.3)
    x = g.index_of_nearest([0.5])
    m1 = ll.firm_modulus(halfsq_1d, x, [0.5])
    m2 = ll.firm_modulus(shifted, x, [0.5 + a])
    both = np.isfinite(m1.values)
    assert np.allclose(m1.values[both], m2.values[both], atol=1e-9)


def test_prop5b_consistency_on_catalog():
    """A positive firm certificate at a genuine unique minimizer forces
    coercivity and a strong zero-tilt verdict."""
    for e in ll.entries():
        f = e.build()
        mod, rep = ll.wellposedness_modulus(f, np.zeros(f.grid.dim))
        if rep.boundary_descent or not rep.unique_at_resolution:
            continue
        if not rep.certificate_positive:
            continue
        assert ll.coercivity_check(f).verdict, e.id
        assert rep.strong, e.id


def test_moduli_respect_norm_choice():
    """Shells and pairings follow the requested norm."""
    e = entry("halfsq2")
    f = e.build()
    mod, rep = ll.wellposedness_modulus(f, [0.5, 0.5], norm=ll.NormChoice.LINF)
    assert rep.strong
    x = f.grid.index_of_nearest([0.0, 0.0])
    m_inf = ll.total_convexity_modulus(f, x, norm=ll.NormChoice.LINF)
    v, _ = at_radius(m_inf, 0.5)
    # linf shell of radius t contains the axis points at distance t
    assert 0 < v <= 0.5 * 0.5 ** 2 + 1e-9
