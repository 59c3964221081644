import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legendrelab as ll
from legendrelab import grids, moduli
from legendrelab.catalog import SET_NAMES, entry, make_set
from legendrelab.cli import main
from legendrelab.errors import (InfeasibleProblemError, NotASubgradientError,
                                PointOutsideDomainError)
from legendrelab.moduli import Modulus
from legendrelab.projections import probe_box
from legendrelab.report_io import write_modulus_csv
from legendrelab.tolerances import DEFAULT_TOLS

from conftest import finite_mask, restricted


VACUOUS = (True, None, "vacuous: no domain point in any usable shell")


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
    pos, cert, _ = ll.certification_verdict(m)
    assert pos and cert.positive


def test_firm_modulus_abs_equality_side(absval_1d):
    """At the kink with the extreme subgradient s=1 the gap vanishes along u=t."""
    g = absval_1d.grid
    m = ll.firm_modulus(absval_1d, g.index_of_nearest([0.0]), [1.0])
    for t in (0.1, 0.5, 1.0):
        v, wit = at_radius(m, t)
        assert abs(v) <= 1e-12
        assert np.isclose(g.point(wit)[0], t)
    pos, _, _ = ll.certification_verdict(m)
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
    pos, _, _ = ll.certification_verdict(m)
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
    with pytest.raises(InfeasibleProblemError):
        ll.wellposedness_modulus(f, [0.0], members=np.zeros(0, np.int64))


# -- gamma0 certificate against the built envelope -------------------------

def lower_hull(x, y):
    """Indices of the strict lower convex hull of points sorted by x."""
    stack = []
    for i in range(len(x)):
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            cross = (x[b] - x[a]) * (y[i] - y[a]) - (y[b] - y[a]) * (x[i] - x[a])
            if cross <= 0.0:
                stack.pop()
            else:
                break
        stack.append(i)
    return stack


def envelope_oracle(ts, vs, tols=DEFAULT_TOLS):
    """Reference: build the lower convex envelope of the samples through
    (0, 0) and interpolate it at every sampled radius. Returns whether it
    clears delta0 everywhere, the envelope and the floor."""
    px = np.concatenate([[0.0], ts])
    py = np.concatenate([[0.0], vs])
    hull = lower_hull(px, py)
    env = np.interp(ts, px[hull], py[hull])
    floor = tols.delta0(ts)
    return bool((env > floor).all()), env, floor


@st.composite
def gamma0_curve(draw):
    """Sampled curves: growth, values within a few delta0 of the floor
    (exactly on it too), zero samples and lines near the floor's slope,
    with some samples masked out as +inf or empty shells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    step = draw(st.sampled_from([0.01, 0.02, 0.05, 0.1 / 3]))
    ts = np.sort(rng.choice(np.arange(1, 400), n, replace=False)) * step
    floor = DEFAULT_TOLS.delta0(ts)
    kind = draw(st.sampled_from(["growth", "near_floor", "on_floor",
                                 "zeros", "near_slope"]))
    if kind == "growth":
        vs = rng.normal(size=n) ** 2 * ts
    elif kind == "near_floor":
        vs = floor * (1.0 + rng.uniform(-3.0, 3.0, n))
    elif kind == "on_floor":
        vs = np.where(rng.random(n) < 0.5, floor,
                      np.nextafter(floor, math.inf))
    elif kind == "zeros":
        vs = np.where(rng.random(n) < 0.2, 0.0,
                      floor * (1.0 + rng.uniform(0.0, 3.0, n)))
    else:
        slope = rng.uniform(0.5, 3.0) * DEFAULT_TOLS.eps_fp
        vs = slope * ts + floor * rng.uniform(-1.0, 1.0, n) * (rng.random(n) < 0.3)
    hidden = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
    empty = hidden & (rng.random(n) < 0.5)
    vs = np.where(hidden, math.inf, vs)
    return ts, vs, empty


@settings(max_examples=400, deadline=None)
@given(curve=gamma0_curve())
def test_certify_gamma0_equals_envelope_oracle(curve):
    ts, vs, empty = curve
    m = Modulus("firm", 0, ts, vs, empty, np.full(ts.size, -1),
                ll.NormChoice.L2)
    sel = finite_mask(m)
    pos, cert, note = ll.certification_verdict(m)
    if sel.sum() == 0:
        assert (pos, cert, note) == VACUOUS
        return
    assert pos is cert.positive and note == ""
    t, v = ts[sel], vs[sel]
    positive, env, floor = envelope_oracle(t, v)
    assert cert.positive is positive
    assert cert.n_finite == t.size
    if positive:
        assert cert.failure_radius is None
        return
    # the first sample at or below the floor, else the smallest radius;
    # the built envelope fails there
    low = ~(v > floor)
    assert cert.failure_radius == (t[low][0] if low.any() else t[0])
    k = int(np.flatnonzero(t == cert.failure_radius)[0])
    assert env[k] <= floor[k]


def test_certify_gamma0_quadratic_samples():
    ts = np.linspace(0.1, 1.0, 10)
    m = Modulus("firm", 0, ts, 0.5 * ts * ts, np.zeros(10, bool),
                np.full(10, -1), ll.NormChoice.L2)
    pos, cert, _ = ll.certification_verdict(m)
    assert pos and cert.positive and cert.failure_radius is None


def test_certify_gamma0_zero_sample_fails_at_vertex():
    ts = np.array([0.5, 1.0, 1.5])
    vs = np.array([0.5, 0.0, 0.7])
    m = Modulus("firm", 0, ts, vs, np.zeros(3, bool), np.full(3, -1),
                ll.NormChoice.L2)
    pos, cert, _ = ll.certification_verdict(m)
    assert not pos and not cert.positive
    assert cert.failure_radius == 1.0


def test_certify_gamma0_insufficient_data():
    """A curve with no finite sample is vacuously positive."""
    ts = np.array([0.5, 1.0])
    vs = np.array([math.inf, math.inf])
    m = Modulus("firm", 0, ts, vs, np.array([False, True]), np.full(2, -1),
                ll.NormChoice.L2)
    assert ll.certification_verdict(m) == VACUOUS


def test_certify_gamma0_single_sample_decides():
    """One finite sample has no chord tail: positive iff it clears delta0."""
    ts = np.array([0.5, 1.0])
    for v0, positive in ((0.3, True), (DEFAULT_TOLS.delta0(0.5), False)):
        m = Modulus("firm", 0, ts, np.array([v0, math.inf]),
                    np.zeros(2, bool), np.full(2, -1), ll.NormChoice.L2)
        pos, cert, _ = ll.certification_verdict(m)
        assert pos is cert.positive is positive and cert.n_finite == 1
        assert cert.failure_radius == (None if positive else 0.5)


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
    pos, cert, _ = ll.certification_verdict(m)
    assert pos and cert.positive
    mm = restricted(m, cert_start(f.grid))
    sel = finite_mask(mm)
    positive, env, _ = envelope_oracle(mm.radii[sel], mm.values[sel])
    assert positive and (env > 0).all()


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
            if not sub.members.size:
                continue
            total = ll.total_convexity_modulus(f, x)
            firm = ll.firm_modulus(f, x, sub.points()[0])
            both = np.isfinite(total.values) & np.isfinite(firm.values)
            tau = ll.tau_sub(f, x, sub.points()[0])
            slack = (tau + 4 * h) * (1.0 + firm.radii[both])
            assert (firm.values[both] >= total.values[both] - slack).all()


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


# -- grouped shell minima --------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Ladder:
    """One center's shells as the oracles build them: shell k holds the
    flat indices ``members[starts[k]:starts[k + 1]]`` at ``radii[k]``."""

    radii: np.ndarray
    members: np.ndarray
    starts: np.ndarray

    def __len__(self):
        return len(self.radii)

    def shells(self):
        return [self.members[a:b] for a, b in zip(self.starts[:-1], self.starts[1:])]


def shell_minima_loop(gaps, ladder, feasible=None):
    """Reference: one shell at a time, the first argmin of the feasible
    members' gaps; a witness only where that minimum is finite."""
    values = np.full(len(ladder), math.inf)
    empty = np.zeros(len(ladder), dtype=bool)
    witnesses = np.full(len(ladder), -1, dtype=np.int64)
    for i, mem in enumerate(ladder.shells()):
        if feasible is not None:
            mem = mem[feasible[mem]]
        if mem.size == 0:
            empty[i] = True
            continue
        vals = gaps[mem]
        j = int(np.argmin(vals))
        values[i] = vals[j]
        if np.isfinite(vals[j]):
            witnesses[i] = mem[j]
    return ladder.radii, values, empty, witnesses


def closed_shell(grid, center, radius, norm=ll.NormChoice.L2):
    """Reference: the grid points whose distance to the center lies within
    half the largest spacing of ``radius``, the center excluded, from one
    distance array per shell."""
    if radius <= 0:
        raise ValueError("shell radius must be positive")
    d = norm.length(grid.points - grid.point(center))
    return np.flatnonzero((np.abs(d - radius) <= grid.max_spacing / 2.0) & (d > 0))


def ladder_oracle(grid, center, norm, radii, within=None):
    """Reference: one center's ladder, the band-stencil slice or the closed
    shells at explicit ``radii``."""
    if radii is None:
        return shell_ladder_per_call(grid, center, norm, within)
    shells = [closed_shell(grid, center, float(t), norm) for t in radii]
    if within is not None:
        shells = [np.intersect1d(m, within, assume_unique=True) for m in shells]
    return Ladder(np.array([float(t) for t in radii]),
                  np.concatenate([np.empty(0, np.int64), *shells]),
                  np.cumsum([0, *(m.size for m in shells)]))


def library_minima(gaps, lad, within=None):
    """The library's shell minima over a one-row ladder, a band ladder or
    the ``(radii, seg, entry)`` memberships of explicit radii, whose columns
    index ``gaps`` (``gaps[within]`` with ``within``), less the row's first
    segment, with witnesses as flat indices."""
    table = gaps if within is None else gaps[within]
    if isinstance(lad, grids.ShellLadders):
        radii, seg, entry = lad.radii, lad.bands.ravel(), np.arange(table.size)
        k = int(lad.shells[0])
    else:
        radii, seg, entry = lad
        k = radii.size
    values, empty, wit = moduli._shell_minima(table[entry], seg, radii.size + 1)
    wit = wit[1:k + 1].copy()
    found = wit >= 0
    wit[found] = entry[wit[found]]
    if within is not None:
        wit[found] = within[wit[found]]
    return radii[:k], values[1:k + 1], empty[1:k + 1], wit


def member_indices(feasible):
    """The ascending flat indices of a mask, None for no mask."""
    return None if feasible is None else np.flatnonzero(feasible)


def assert_bitwise_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


GRIDS = [ll.grid_1d(-1.0, 1.0, 23), ll.grid_2d(-2.0, 2.0, 7, -1.0, 3.0, 5),
         ll.grid_2d(-1.0, 1.0, 15),
         ll.Grid(((0.0, 1.0), (-1.0, 1.0), (0.0, 2.0)), (5, 4, 6))]


@st.composite
def minima_case(draw):
    grid = draw(st.sampled_from(GRIDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = draw(st.one_of(st.sampled_from([0, grid.size - 1]),
                            st.integers(0, grid.size - 1)))
    # few distinct values, signed zeros and +inf make ties and all-inf shells
    palette = np.array([-1.0, -0.0, 0.0, 0.5, math.inf])
    gaps = np.where(rng.random(grid.size) < draw(st.floats(0.0, 1.0)),
                    palette[rng.integers(0, palette.size, grid.size)],
                    rng.normal(size=grid.size))
    density = draw(st.sampled_from([None, 0.0, 0.05, 0.3, 0.9, 1.0]))
    feasible = None if density is None else rng.random(grid.size) < density
    return grid, center, gaps, feasible


@settings(max_examples=80, deadline=None)
@given(case=minima_case(), norm=st.sampled_from(list(ll.NormChoice)))
def test_grouped_shell_minima_equal_per_shell_loop(case, norm):
    grid, center, gaps, feasible = case
    within = member_indices(feasible)
    lad = ll.shell_ladder(grid, center, norm=norm, within=within)
    assert_bitwise_equal(library_minima(gaps, lad, within),
                         shell_minima_loop(gaps, shell_ladder_per_call(
                             grid, center, norm), feasible))


@settings(max_examples=40, deadline=None)
@given(case=minima_case(),
       radii=st.lists(st.floats(0.01, 3.0), min_size=0, max_size=6,
                      unique=True).map(sorted))
def test_explicit_radii_minima_equal_per_shell_loop(case, radii):
    grid, center, gaps, feasible = case
    norm = ll.NormChoice.L2
    oracle = ladder_oracle(grid, center, norm, radii)
    ts, seg, entry = moduli._explicit_ladders(grid, np.array([center]), norm,
                                              radii)
    assert (seg > 0).all()                     # no points inside the radii
    assert (np.diff(seg) >= 0).all()           # memberships in shell order
    assert np.array_equal(np.cumsum(np.bincount(seg, minlength=ts.size + 1)),
                          oracle.starts)
    assert np.array_equal(entry, oracle.members)
    within = member_indices(feasible)
    lad = moduli._explicit_ladders(grid, np.array([center]), norm, radii, within)
    assert_bitwise_equal(library_minima(gaps, lad, within),
                         shell_minima_loop(gaps, oracle, feasible))


def test_grouped_minima_edge_cases():
    """Empty shells at the end, all-+inf shells, an all-infeasible grid and
    signed zeros: a shell reads its first least gap, 0.0 before -0.0 as
    0.0 and -0.0 before 0.0 as -0.0, as ``np.argmin`` does."""
    g = ll.grid_2d(-1.0, 1.0, 9)
    c = 0
    oracle = shell_ladder_per_call(g, c, ll.NormChoice.L2)
    near = ll.NormChoice.L2.length(g.points - g.point(c)) < 1.0
    tail = ll.shell_ladder(g, c, within=member_indices(near))
    assert tail.bands.max() < tail.radii.size          # empty tail shells
    gaps = np.where(np.arange(g.size) % 3 == 0, math.inf, 1.0)
    gaps[oracle.shells()[0]] = math.inf                # an all-+inf shell
    for feasible in (None, np.zeros(g.size, dtype=bool),
                     np.arange(g.size) >= g.size - 2, near):
        within = member_indices(feasible)
        lad = ll.shell_ladder(g, c, within=within)
        assert_bitwise_equal(library_minima(gaps, lad, within),
                             shell_minima_loop(gaps, oracle, feasible))
    lad = ll.shell_ladder(g, c)
    values, empty, wit = moduli._shell_minima(gaps, lad.bands.ravel(),
                                              lad.radii.size + 1)
    assert not empty[1] and values[1] == math.inf and wit[1] == -1

    line = ll.grid_1d(-2.0, 2.0, 5)                    # h = 1, shell 1: {1, 3}
    l2 = ll.NormChoice.L2
    ladders = ((ll.shell_ladder(line, 2), None),
               (moduli._explicit_ladders(line, np.array([2]), l2, [1.0]), [1.0]))
    for first_zero, second_zero in ((0.0, -0.0), (-0.0, 0.0)):
        gaps = np.array([2.0, first_zero, 3.0, second_zero, 2.0])
        for lad, radii in ladders:
            got = library_minima(gaps, lad)
            _, values, empty, wit = got
            assert not empty[0] and wit[0] == 1 and values[0] == 0.0
            assert np.signbit(values[0]) == np.signbit(first_zero)
            assert_bitwise_equal(got, shell_minima_loop(
                gaps, ladder_oracle(line, 2, l2, radii)))


# -- member-windowed well-posedness against the masked whole-grid body -----

def shell_minima_masked(gaps, ladder, feasible):
    """Reference: the grouped shell minima over the whole-grid ladder, with
    infeasible members masked to +inf and a shell empty when none of its
    members is feasible."""
    mem = ladder.members
    starts = ladder.starts[:-1]
    vals = gaps[mem]
    empty = starts == ladder.starts[1:]
    if feasible is not None:
        ok = feasible[mem]
        vals = np.where(ok, vals, math.inf)
        empty |= ~np.logical_or.reduceat(np.append(ok, False), starts)
    values = np.full(len(ladder), math.inf)
    witnesses = np.full(len(ladder), -1, dtype=np.int64)
    if empty.all():
        return ladder.radii, values, empty, witnesses
    filled = np.flatnonzero(~empty)
    seg_min = np.minimum.reduceat(np.append(vals, math.inf), starts)
    hits = np.flatnonzero(vals == np.repeat(seg_min, np.diff(ladder.starts)))
    first = hits[np.searchsorted(hits, starts[filled])]
    values[filled] = vals[first]
    found = np.isfinite(vals[first])
    witnesses[filled[found]] = mem[first[found]]
    return ladder.radii, values, empty, witnesses


def tie_cluster_per_call(f, values, s):
    """The parent's tie cluster of one tilted objective: its minimum, the
    tie slack and the flat indices within that slack of the minimum."""
    mval = float(values.min())
    eps = DEFAULT_TOLS.tie_slack(mval, float(np.abs(s).sum()), f.grid.bounds)
    return mval, eps, np.flatnonzero(values <= mval + eps)


def masked_wellposedness(f, s, radii=None, norm=ll.NormChoice.L2,
                         feasible=None):
    """Reference: the well-posedness modulus computed over the whole grid,
    with the points outside ``feasible`` masked to +inf."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    grid = f.grid
    tilted = f.tilted(s)
    cand = tilted
    if feasible is not None:
        cand = np.where(feasible, tilted, math.inf)
    if not np.isfinite(cand).any():
        raise InfeasibleProblemError("tilted problem has no feasible domain point")
    mval, eps, cluster = tie_cluster_per_call(f, cand, s)
    x_hat = int(cluster[0])
    coords = grid.points[cluster]
    diameter = float(norm.length(coords.max(axis=0) - coords.min(axis=0)))
    unique = diameter <= DEFAULT_TOLS.cell_limit(grid, norm)
    boundary_descent = (feasible is None
                        and not grid.interior_flat[cluster].any()
                        and moduli._edge_descent(grid, cand, cluster, mval + eps))
    gaps = cand - cand[x_hat]
    ladder = ladder_oracle(grid, x_hat, norm, radii)
    radii_a, values, empty, wit = shell_minima_masked(gaps, ladder, feasible)
    mod = Modulus("wellposed", x_hat, radii_a, values, empty, wit, norm,
                  tilt=tuple(float(c) for c in s), spacing=grid.max_spacing)
    pos, cert, note = moduli.certification_verdict(mod)
    report = moduli.WellposednessReport(
        tuple(float(c) for c in s), x_hat, mval, int(cluster.size), diameter,
        unique, boundary_descent, pos, cert, note)
    return mod, report


def assert_same_wellposedness(got, want):
    """Bitwise equal curves; every report field equal to the last bit (a
    float's repr round-trips, so equal reprs mean equal bits)."""
    (gm, gr), (wm, wr) = got, want
    assert_bitwise_equal((gm.radii, gm.values, gm.empty, gm.witnesses),
                         (wm.radii, wm.values, wm.empty, wm.witnesses))
    assert repr((gm.kind, gm.center, gm.norm, gm.tilt, gm.spacing)) == \
        repr((wm.kind, wm.center, wm.norm, wm.tilt, wm.spacing))
    for field in dataclasses.fields(wr):
        assert repr(getattr(gr, field.name)) == repr(getattr(wr, field.name))


def check_against_masked(f, s, feasible, norm, radii=None):
    try:
        want = masked_wellposedness(f, s, radii=radii, norm=norm,
                                    feasible=feasible)
    except InfeasibleProblemError:
        with pytest.raises(InfeasibleProblemError):
            ll.wellposedness_modulus(f, s, radii=radii, norm=norm,
                                     members=member_indices(feasible))
        return
    assert_same_wellposedness(
        ll.wellposedness_modulus(f, s, radii=radii, norm=norm,
                                 members=member_indices(feasible)), want)


@pytest.mark.parametrize("norm", list(ll.NormChoice))
@pytest.mark.parametrize("n", [41, 101])
@pytest.mark.parametrize("name", SET_NAMES)
def test_member_ladder_equals_masked_on_catalog_sets(name, n, norm):
    grid = ll.grid_2d(-2.0, 2.0, n)
    S = make_set(name, grid)
    for sign in (1.0, -1.0):
        f = ll.build_grid_function(
            grid, lambda p: sign * 0.5 * (p * p).sum(axis=-1), vectorized=True)
        lo, hi = probe_box(f)
        u = np.random.default_rng(n).random((6, 2))
        for s in (np.zeros(2), *(lo + u * (hi - lo))):
            check_against_masked(f, s, S.mask, norm)


MASK_GRIDS = [ll.grid_1d(-1.0, 1.0, 23), ll.grid_1d(0.0, 1.0, 2),
              ll.grid_2d(-2.0, 2.0, 7, -1.0, 3.0, 5),
              ll.grid_2d(-1.0, 1.0, 15)]


@st.composite
def masked_problem(draw):
    """A function with ties and +inf holes, a mask (single members, sparse,
    dense or full; members may lie outside dom f), a tilt, and radii."""
    grid = draw(st.sampled_from(MASK_GRIDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = np.where(rng.random(grid.size) < draw(st.floats(0.0, 1.0)),
                    rng.integers(-2, 3, grid.size).astype(float),
                    rng.normal(size=grid.size))
    vals[rng.random(grid.size) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = math.inf
    vals[rng.integers(grid.size)] = 0.0
    f = ll.GridFunction(grid, vals)
    density = draw(st.sampled_from([None, 0.1, 0.5, 1.0]))
    if density is None:
        feasible = np.zeros(grid.size, dtype=bool)
        feasible[draw(st.integers(0, grid.size - 1))] = True
    else:
        feasible = rng.random(grid.size) < density
    s = rng.normal(size=grid.dim) * draw(st.sampled_from([0.0, 0.5, 2.0]))
    radii = draw(st.one_of(st.none(),
                           st.lists(st.floats(0.05, 4.0), max_size=6,
                                    unique=True).map(sorted)))
    return f, feasible, s, radii


@settings(max_examples=200, deadline=None)
@given(problem=masked_problem(), norm=st.sampled_from(list(ll.NormChoice)))
def test_member_ladder_equals_masked_on_random_masks(problem, norm):
    f, feasible, s, radii = problem
    check_against_masked(f, s, feasible, norm, radii)


# -- total convexity against the per-axis loop ------------------------------

def total_convexity_per_axis_loop(f, x_flat, norm):
    """Reference: the total-convexity modulus with its per-axis quotients
    gathered by a loop over both directions of every axis (no ray arrays)."""
    fx = f.value_at(x_flat)
    grid = f.grid
    shape = np.asarray(grid.shape, dtype=np.int64)
    dim = grid.dim
    n = grid.size
    base = np.asarray(grid.unravel_index(x_flat), dtype=np.int64)
    spacing = np.asarray(grid.spacing)
    fv = f.flat
    k_dd = moduli._K_DD

    def flat_of(pos):
        return np.ravel_multi_index(tuple(np.clip(pos, 0, shape - 1).T),
                                    grid.shape)

    # per-axis signed quotients q[ax][sign] with admissible-step counts
    axis_q = np.full((dim, 2), math.inf)
    axis_cnt = np.zeros((dim, 2), dtype=int)
    for ax in range(dim):
        for si, sg in enumerate((1, -1)):
            vals = {}
            for k in range(1, k_dd + 1):
                pos = base.copy()
                pos[ax] += sg * k
                if not (0 <= pos[ax] < shape[ax]):
                    break
                fu = fv[grid.ravel_index(pos)]
                if np.isfinite(fu):
                    vals[k] = (fu - fx) / (k * spacing[ax])
            axis_cnt[ax, si] = len(vals)
            if vals:
                est = min(vals.values())
                if 1 in vals and 2 in vals:
                    est = min(est, 2.0 * vals[1] - vals[2])
                axis_q[ax, si] = est

    multi = np.stack(np.unravel_index(np.arange(n), grid.shape), axis=1)
    offsets = multi - base[None, :]
    g = np.gcd.reduce(np.abs(offsets), axis=1)
    g_safe = np.where(g == 0, 1, g)
    m0 = offsets // g_safe[:, None]

    # ray quotients over the first k_dd multiples of the primitive step
    step_len = norm.length(m0 * spacing[None, :])
    step_len[g == 0] = 1.0
    quot = np.full((k_dd, n), math.inf)
    adm = np.zeros((k_dd, n), dtype=bool)
    for k in range(1, k_dd + 1):
        pos = base[None, :] + k * m0
        ok = (pos >= 0).all(axis=1) & (pos < shape[None, :]).all(axis=1)
        vals = fv[flat_of(pos)]
        good = ok & np.isfinite(vals)
        adm[k - 1] = good
        quot[k - 1][good] = (vals[good] - fx) / (k * step_len[good])

    ks = np.arange(1, k_dd + 1)
    closer_ray = (adm & (ks[:, None] < np.minimum(g, k_dd + 1)[None, :])).any(axis=0)
    ray_ok = (g >= 2) & closer_ray
    fprime_ray = quot.min(axis=0)
    both = adm[0] & adm[1]
    fprime_ray[both] = np.minimum(fprime_ray[both],
                                  2.0 * quot[0][both] - quot[1][both])

    # axis decomposition bookkeeping
    sgn_idx = (offsets < 0).astype(int)          # 0 -> +, 1 -> -
    ax_ids = np.arange(dim)
    needed = offsets != 0
    n_axes = needed.sum(axis=1)
    cnt_needed = axis_cnt[ax_ids[None, :], sgn_idx]
    cnt_opposite = axis_cnt[ax_ids[None, :], 1 - sgn_idx]
    q_needed = axis_q[ax_ids[None, :], sgn_idx]
    delta_phys = np.abs(offsets) * spacing[None, :]
    q_safe = np.where(needed & np.isfinite(q_needed), q_needed, 0.0)
    decomp = (delta_phys * q_safe).sum(axis=1)

    single_cnt = np.where(needed, cnt_needed, 0).sum(axis=1)
    dec_ok = np.where(
        n_axes == 1,
        single_cnt >= 2,
        (~needed | ((cnt_needed >= 2) & (cnt_opposite >= 1))).all(axis=1))
    dec_ok &= n_axes >= 1

    dist = norm.length(grid.points - grid.point(x_flat))
    dist_safe = np.where(g == 0, 1.0, dist)
    bound_ray = np.where(ray_ok, dist_safe * fprime_ray, math.inf)
    bound_dec = np.where(dec_ok, decomp, math.inf)
    slope_term = np.minimum(bound_ray, bound_dec)
    usable = (ray_ok | dec_ok) & (g > 0) & np.isfinite(fv)
    gaps = np.full(n, math.inf)
    gaps[usable] = fv[usable] - fx - slope_term[usable]

    ladder = shell_ladder_per_call(grid, x_flat, norm)
    radii_a, values, empty, wit = shell_minima_per_call(gaps[ladder.members],
                                                        ladder)
    return Modulus("total", int(x_flat), radii_a, values, empty, wit, norm)


def domain_probe_points(f):
    """Corner, edge and centre of the index box spanned by dom f, each
    snapped to the nearest domain point (in 1D the edge is the far end)."""
    dom = np.flatnonzero(f.domain_flat)
    idx = np.stack(np.unravel_index(dom, f.grid.shape), axis=1)
    lo, hi = idx.min(axis=0), idx.max(axis=0)
    mid = (lo + hi) // 2
    picks = (lo, np.concatenate([hi[:1], mid[1:]]), mid)
    return [int(dom[np.abs(idx - p).sum(axis=1).argmin()]) for p in picks]


@pytest.mark.parametrize("norm", list(ll.NormChoice), ids=lambda n: n.name)
@pytest.mark.parametrize("eid", [e.id for e in ll.entries()])
def test_total_convexity_equals_per_axis_loop_on_catalog(eid, norm):
    f = entry(eid).build()
    for x in domain_probe_points(f):
        got = ll.total_convexity_modulus(f, x, norm=norm)
        want = total_convexity_per_axis_loop(f, x, norm)
        assert_bitwise_equal((got.radii, got.values, got.empty, got.witnesses),
                             (want.radii, want.values, want.empty,
                              want.witnesses))


# -- total convexity against the per-call ray arrays -------------------------

def total_convexity_per_call(f, x_flat, norm, radii=None):
    """Reference: the total-convexity modulus with its ray arrays (offsets,
    gcds, primitive steps, step lengths, clipped hops) rebuilt about the
    base point on every call instead of read from the cached stencil."""
    fx = f.value_at(x_flat)
    grid = f.grid
    shape = np.asarray(grid.shape, dtype=np.int64)
    dim = grid.dim
    n = grid.size
    base = np.asarray(grid.unravel_index(x_flat), dtype=np.int64)
    spacing = np.asarray(grid.spacing)
    fv = f.flat
    k_dd = moduli._K_DD

    def flat_of(pos):
        return np.ravel_multi_index(tuple(np.clip(pos, 0, shape - 1).T),
                                    grid.shape)

    multi = np.stack(np.unravel_index(np.arange(n), grid.shape), axis=1)
    offsets = multi - base[None, :]
    g = np.gcd.reduce(np.abs(offsets), axis=1)
    g_safe = np.where(g == 0, 1, g)
    m0 = offsets // g_safe[:, None]

    step_len = norm.length(m0 * spacing[None, :])
    step_len[g == 0] = 1.0
    quot = np.full((k_dd, n), math.inf)
    adm = np.zeros((k_dd, n), dtype=bool)
    for k in range(1, k_dd + 1):
        pos = base[None, :] + k * m0
        ok = (pos >= 0).all(axis=1) & (pos < shape[None, :]).all(axis=1)
        vals = fv[flat_of(pos)]
        good = ok & np.isfinite(vals)
        adm[k - 1] = good
        quot[k - 1][good] = (vals[good] - fx) / (k * step_len[good])

    ks = np.arange(1, k_dd + 1)
    closer_ray = (adm & (ks[:, None] < np.minimum(g, k_dd + 1)[None, :])).any(axis=0)
    ray_ok = (g >= 2) & closer_ray
    fprime_ray = quot.min(axis=0)
    both = adm[0] & adm[1]
    fprime_ray[both] = np.minimum(fprime_ray[both],
                                  2.0 * quot[0][both] - quot[1][both])

    steps = np.eye(dim, dtype=np.int64)
    nbrs = base + np.stack([steps, -steps], axis=1)
    on_grid = ((nbrs >= 0) & (nbrs < shape)).all(axis=2)
    at = flat_of(nbrs.reshape(-1, dim)).reshape(dim, 2)
    axis_q = np.where(on_grid, fprime_ray[at], math.inf)
    axis_cnt = np.where(on_grid, adm[:, at].sum(axis=0), 0)

    sgn_idx = (offsets < 0).astype(int)
    ax_ids = np.arange(dim)
    needed = offsets != 0
    n_axes = needed.sum(axis=1)
    cnt_needed = axis_cnt[ax_ids[None, :], sgn_idx]
    cnt_opposite = axis_cnt[ax_ids[None, :], 1 - sgn_idx]
    q_needed = axis_q[ax_ids[None, :], sgn_idx]
    delta_phys = np.abs(offsets) * spacing[None, :]
    q_safe = np.where(needed & np.isfinite(q_needed), q_needed, 0.0)
    decomp = (delta_phys * q_safe).sum(axis=1)

    single_cnt = np.where(needed, cnt_needed, 0).sum(axis=1)
    dec_ok = np.where(
        n_axes == 1,
        single_cnt >= 2,
        (~needed | ((cnt_needed >= 2) & (cnt_opposite >= 1))).all(axis=1))
    dec_ok &= n_axes >= 1

    dist = norm.length(grid.points - grid.point(x_flat))
    dist_safe = np.where(g == 0, 1.0, dist)
    bound_ray = np.where(ray_ok, dist_safe * fprime_ray, math.inf)
    bound_dec = np.where(dec_ok, decomp, math.inf)
    slope_term = np.minimum(bound_ray, bound_dec)
    usable = (ray_ok | dec_ok) & (g > 0) & np.isfinite(fv)
    gaps = np.full(n, math.inf)
    gaps[usable] = fv[usable] - fx - slope_term[usable]

    ladder = ladder_oracle(grid, x_flat, norm, radii)
    return shell_minima_per_call(gaps[ladder.members], ladder)


def assert_total_equals_per_call(f, x, norm, radii=None):
    got = ll.total_convexity_modulus(f, x, radii=radii, norm=norm)
    assert_bitwise_equal((got.radii, got.values, got.empty, got.witnesses),
                         total_convexity_per_call(f, x, norm, radii))


@pytest.mark.parametrize("norm", list(ll.NormChoice), ids=lambda n: n.name)
@pytest.mark.parametrize("eid", [e.id for e in ll.entries()])
def test_total_convexity_stencil_equals_per_call_on_catalog(eid, norm):
    f = entry(eid).build()
    dom = np.flatnonzero(f.domain_flat)
    picks = dom[np.linspace(0, dom.size - 1, 5).astype(int)]
    for x in {*domain_probe_points(f), *(int(i) for i in picks)}:
        assert_total_equals_per_call(f, x, norm)


STENCIL_GRIDS = [ll.grid_1d(-1.0, 1.0, 2), ll.grid_1d(-1.0, 1.0, 3),
                 ll.grid_1d(-1.0, 1.0, 23), ll.grid_2d(-1.0, 1.0, 2, 0.0, 1.0, 3),
                 ll.grid_2d(-2.0, 2.0, 5, -1.0, 3.0, 3),
                 ll.grid_2d(-1.0, 1.0, 9),
                 ll.Grid(((0.0, 1.0), (-1.0, 1.0), (0.0, 2.0)), (3, 2, 4))]


@st.composite
def total_problem(draw):
    """A function with ties and +inf holes, a domain base point, and
    either the default ladder or explicit radii."""
    grid = draw(st.sampled_from(STENCIL_GRIDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = np.where(rng.random(grid.size) < draw(st.floats(0.0, 1.0)),
                    rng.integers(-2, 3, grid.size).astype(float),
                    rng.normal(size=grid.size))
    vals[rng.random(grid.size) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = math.inf
    x = draw(st.integers(0, grid.size - 1))
    vals[x] = rng.normal()
    radii = draw(st.one_of(st.none(), st.lists(st.floats(0.05, 4.0),
                                                min_size=1, max_size=6,
                                                unique=True).map(sorted)))
    return ll.GridFunction(grid, vals), x, radii


@settings(max_examples=200, deadline=None)
@given(problem=total_problem(), norm=st.sampled_from(list(ll.NormChoice)))
def test_total_convexity_stencil_equals_per_call_on_random_functions(problem, norm):
    f, x, radii = problem
    assert_total_equals_per_call(f, x, norm, radii)


def test_ray_stencil_is_cached_and_read_only():
    grid = ll.grid_2d(-2.0, 2.0, 5, -1.0, 3.0, 3)
    arrays = grids._ray_stencil(grid, ll.NormChoice.L1, moduli._K_DD)
    assert grids._ray_stencil(grid, ll.NormChoice.L1, moduli._K_DD) is arrays
    # one 5 x 3 window at each of the 5 x 3 origins of the 9 x 5 lattice
    assert arrays.g.shape == arrays.step_len.shape == (5, 3, 5, 3)
    assert arrays.hops.shape == (moduli._K_DD, 5, 3, 5, 3)
    assert (arrays.g.dtype, arrays.hops.dtype) == (np.int16, np.int32)
    assert arrays.slots == 9 * 5 + 1
    for a in arrays[:3]:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0


def verdict_cut_by_caller(m, min_radius):
    """``certification_verdict`` as it was when each caller passed
    ``min_radius = cert_min_radius(h)`` for its grid step h."""
    mm = restricted(m, min_radius) if min_radius > 0 else m
    return ll.certification_verdict(dataclasses.replace(mm, spacing=0.0))


def catalog_curves(f, dual_grid, radii):
    """Firm, total and well-posedness curves at a few tilts s
    and their conjugate maximizers x (a subgradient pair)."""
    conj = ll.conjugate_fast(f, dual_grid)
    for s_flat in np.linspace(0, dual_grid.size - 1, 5).astype(int)[1:-1]:
        s = dual_grid.point(int(s_flat))
        x = int(conj.argmax[s_flat])
        yield ll.firm_modulus(f, x, s, radii=radii)
        yield ll.total_convexity_modulus(f, x, radii=radii)
        yield ll.wellposedness_modulus(f, s, radii=radii)[0]


@pytest.mark.parametrize("explicit_radii", [False, True],
                         ids=["ladder", "explicit-radii"])
@pytest.mark.parametrize("eid", [e.id for e in ll.entries()])
def test_certification_cut_from_recorded_spacing(eid, explicit_radii):
    """Each built curve records its grid step, and the verdict equals the
    one made with the cut its callers used to pass."""
    e = entry(eid)
    f = e.build()
    h = f.grid.max_spacing
    radii = list(h * np.array([0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0])) \
        if explicit_radii else None
    for m in catalog_curves(f, e.dual_grid, radii):
        assert m.spacing == h
        assert restricted(m, cert_start(f.grid)).spacing == h
        got = ll.certification_verdict(m)
        assert got == verdict_cut_by_caller(m, cert_start(f.grid)), m.kind


def test_hand_built_curve_keeps_every_shell():
    """A curve built by hand records step 0, and cert_min_radius(0) = 0, so
    nothing is cut; recording a step cuts below cert_min_radius of it."""
    assert DEFAULT_TOLS.cert_min_radius(0.0) == 0.0
    ts = np.array([0.01, 0.02, 0.5, 1.0, 1.5])
    vs = np.array([0.0, 0.0, 0.2, 0.5, 0.9])
    m = Modulus("firm", 0, ts, vs, np.zeros(5, bool), np.full(5, -1),
                ll.NormChoice.L2)
    assert m.spacing == 0.0
    got = ll.certification_verdict(m)
    assert got == verdict_cut_by_caller(m, 0.0)
    assert not got[0]
    stepped = Modulus("firm", 0, ts, vs, np.zeros(5, bool), np.full(5, -1),
                      ll.NormChoice.L2, spacing=0.02)
    got = ll.certification_verdict(stepped)
    assert got == verdict_cut_by_caller(stepped, DEFAULT_TOLS.cert_min_radius(0.02))
    assert got[0]


def test_recorded_spacing_cuts_split_minimizer_zero():
    """Tilting halfsq to a midpoint between nodes splits the minimizer over
    two nodes, a zero at radius one step; the cut from the curve's own step
    drops it, as the callers' explicit cut did."""
    f = entry("halfsq").build()
    h = f.grid.max_spacing
    m, rep = ll.wellposedness_modulus(f, [0.3 + h / 2])
    assert rep.multiplicity == 2 and rep.certificate_positive
    assert ll.certification_verdict(m) == verdict_cut_by_caller(m, cert_start(f.grid))
    assert not verdict_cut_by_caller(m, 0.0)[0]


# -- row blocks against the per-call bodies ----------------------------------
#
# The oracles below are the per-call bodies the row core replaced: one
# ladder, one grouped shell-minima pass and one certificate per call.

def shell_ladder_per_call(grid, center, norm, within=None):
    """Reference: one center's ladder from a slice of the band stencil."""
    lattice = tuple(2 * n - 1 for n in grid.counts)
    multi = grid.unravel_index(center)
    window = grids._band_stencil(grid, norm).band.reshape(lattice)[
        tuple(slice(n - 1 - c, 2 * n - 1 - c) for n, c in zip(grid.counts, multi))]
    kmax = int(window[tuple(slice(None, None, n - 1) for n in grid.counts)].max())
    bands = (window.ravel() if within is None
             else window[np.unravel_index(within, grid.counts)])
    order = np.argsort(bands, kind="stable")
    starts = np.searchsorted(bands[order], np.arange(1, max(kmax, 1) + 2))
    if within is not None:
        order = within[order]
    return Ladder(np.arange(1, len(starts)) * grid.max_spacing,
                  order[starts[0]:starts[-1]], starts - starts[0])


def shell_minima_per_call(vals, ladder):
    """Reference: the grouped shell minima of one ladder."""
    mem = ladder.members
    starts = ladder.starts[:-1]
    empty = starts == ladder.starts[1:]
    values = np.full(len(ladder), math.inf)
    witnesses = np.full(len(ladder), -1, dtype=np.int64)
    if empty.all():
        return ladder.radii, values, empty, witnesses
    filled = np.flatnonzero(~empty)
    seg_min = np.minimum.reduceat(np.append(vals, math.inf), starts)
    hits = np.flatnonzero(vals == np.repeat(seg_min, np.diff(ladder.starts)))
    first = hits[np.searchsorted(hits, starts[filled])]
    values[filled] = vals[first]
    found = np.isfinite(vals[first])
    witnesses[filled[found]] = mem[first[found]]
    return ladder.radii, values, empty, witnesses


def certify_gamma0_per_call(m):
    sel = finite_mask(m)
    ts = m.radii[sel]
    vs = m.values[sel]
    low = np.flatnonzero(~(vs > DEFAULT_TOLS.delta0(ts)))
    if low.size:
        return moduli.Gamma0Certificate(False, float(ts[low[0]]), int(ts.size))
    t0 = float(ts[0])
    chord = t0 * float((vs[1:] / ts[1:]).min(initial=math.inf))
    first = min(float(vs[0]), chord)
    positive = bool(first > DEFAULT_TOLS.delta0(t0))
    return moduli.Gamma0Certificate(positive, None if positive else t0,
                                    int(ts.size))


def certification_verdict_per_call(m):
    mm = (restricted(m, DEFAULT_TOLS.cert_min_radius(m.spacing))
          if m.spacing > 0 else m)
    if int(finite_mask(mm).sum()) == 0:
        return VACUOUS
    cert = certify_gamma0_per_call(mm)
    return cert.positive, cert, ""


def firm_modulus_per_call(f, x_flat, s, radii=None, norm=ll.NormChoice.L2):
    fx = f.value_at(x_flat)
    if not np.isfinite(fx):
        raise PointOutsideDomainError(f"f is +inf at flat index {x_flat}")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    tilted = f.tilted(s)
    gap = fx - float(tilted.min()) - float(f.grid.point(x_flat) @ s)
    tau = DEFAULT_TOLS.gap_threshold(f.grid.max_spacing,
                                     float(norm.dual.length(s)),
                                     f.local_slope(x_flat))
    if gap > tau:
        raise NotASubgradientError(
            f"gap {gap:.3g} exceeds threshold {tau:.3g} at flat index {x_flat}")
    ladder = ladder_oracle(f.grid, x_flat, norm, radii)
    radii_a, values, empty, wit = shell_minima_per_call(
        tilted[ladder.members] - tilted[x_flat], ladder)
    return Modulus("firm", int(x_flat), radii_a, values, empty, wit, norm,
                   tilt=tuple(float(c) for c in s), spacing=f.grid.max_spacing)


def total_modulus_per_call(f, x_flat, radii=None, norm=ll.NormChoice.L2):
    if not np.isfinite(f.value_at(x_flat)):
        raise PointOutsideDomainError(f"f is +inf at flat index {x_flat}")
    radii_a, values, empty, wit = total_convexity_per_call(f, x_flat, norm, radii)
    return Modulus("total", int(x_flat), radii_a, values, empty, wit, norm,
                   spacing=f.grid.max_spacing)


def wellposedness_per_call(f, s, radii=None, norm=ll.NormChoice.L2,
                           members=None):
    s = np.atleast_1d(np.asarray(s, dtype=float))
    grid = f.grid
    tilted = f.tilted(s)
    cand = tilted if members is None else tilted[members]
    if not np.isfinite(cand).any():
        raise InfeasibleProblemError("tilted problem has no feasible domain point")
    mval, eps, cluster = tie_cluster_per_call(f, cand, s)
    cluster = cluster if members is None else members[cluster]
    x_hat = int(cluster[0])
    coords = grid.points[cluster]
    diameter = float(norm.length(coords.max(axis=0) - coords.min(axis=0)))
    unique = diameter <= DEFAULT_TOLS.cell_limit(grid, norm)
    boundary_descent = (members is None
                        and not grid.interior_flat[cluster].any()
                        and moduli._edge_descent(grid, tilted, cluster, mval + eps))
    ladder = ladder_oracle(grid, x_hat, norm, radii, within=members)
    radii_a, values, empty, wit = shell_minima_per_call(
        tilted[ladder.members] - tilted[x_hat], ladder)
    mod = Modulus("wellposed", x_hat, radii_a, values, empty, wit, norm,
                  tilt=tuple(float(c) for c in s), spacing=grid.max_spacing)
    pos, cert, note = certification_verdict_per_call(mod)
    return mod, moduli.WellposednessReport(
        tuple(float(c) for c in s), x_hat, mval, int(cluster.size), diameter,
        unique, boundary_descent, pos, cert, note)


def assert_same_curve(got, want):
    assert_bitwise_equal((got.radii, got.values, got.empty, got.witnesses),
                         (want.radii, want.values, want.empty, want.witnesses))
    assert repr((got.kind, got.center, got.norm, got.tilt, got.spacing)) == \
        repr((want.kind, want.center, want.norm, want.tilt, want.spacing))


def assert_same_fields(got, want):
    """Equal reprs: every field equal to the last bit, types included."""
    assert repr(got) == repr(want)


def rows_or_error(call, rows):
    """The per-call results of ``rows`` in order, or the error of the first
    row that raises (as the per-call loop would stop there)."""
    out = []
    for row in rows:
        try:
            out.append(call(*row))
        except (PointOutsideDomainError, NotASubgradientError,
                InfeasibleProblemError) as err:
            return out, err
    return out, None


def check_block(block, call, rows):
    """The block call raises the first per-call error, or equals the
    per-call results row by row."""
    want, err = rows_or_error(call, rows)
    if err is not None:
        with pytest.raises(type(err)) as got:
            block()
        assert str(got.value) == str(err)
        return None
    got = block()
    assert len(got[0]) == len(want)
    return got, want


@st.composite
def row_problem(draw):
    """A function with ties and +inf holes, R base points (some may lie
    outside dom f), R tilts, an optional set of members (some may lie
    outside dom f) and either the default ladders or explicit radii."""
    grid = draw(st.sampled_from(STENCIL_GRIDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = np.where(rng.random(grid.size) < draw(st.floats(0.0, 1.0)),
                    rng.integers(-2, 3, grid.size).astype(float),
                    rng.normal(size=grid.size))
    vals[rng.random(grid.size) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = math.inf
    vals[rng.integers(grid.size)] = 0.0
    f = ll.GridFunction(grid, vals)
    n_rows = draw(st.integers(1, 6))
    dom = np.flatnonzero(f.domain_flat)
    outside = draw(st.sampled_from([0.0, 0.0, 0.2]))
    points = [int(rng.integers(grid.size)) if rng.random() < outside
              else int(rng.choice(dom)) for _ in range(n_rows)]
    tilts = rng.normal(size=(n_rows, grid.dim)) * draw(st.sampled_from([0.0, 0.5, 2.0]))
    density = draw(st.sampled_from([None, 0.1, 0.5]))
    members = (None if density is None
               else np.flatnonzero(rng.random(grid.size) < density))
    if members is not None and members.size == 0:
        members = np.array([int(rng.integers(grid.size))])
    radii = draw(st.one_of(st.none(), st.lists(st.floats(0.05, 4.0), min_size=1,
                                                max_size=6, unique=True).map(sorted)))
    return f, points, tilts, members, radii


@settings(max_examples=150, deadline=None)
@given(problem=row_problem(), norm=st.sampled_from(list(ll.NormChoice)))
def test_total_rows_equal_per_call(problem, norm):
    f, points, _, _, radii = problem
    checked = check_block(lambda: moduli._total_rows(f, points, norm, radii),
                          lambda x: total_modulus_per_call(f, x, radii, norm),
                          [(x,) for x in points])
    if checked is None:
        return
    (mods, verdicts), want = checked
    for x, mod, verdict, w in zip(points, mods, verdicts, want):
        one = ll.total_convexity_modulus(f, x, radii=radii, norm=norm)
        for got in (mod, one):
            assert_same_curve(got, w)
        assert_same_fields(verdict, certification_verdict_per_call(w))
        assert_same_fields(ll.certification_verdict(one), verdict)


@settings(max_examples=150, deadline=None)
@given(problem=row_problem(), norm=st.sampled_from(list(ll.NormChoice)),
       pick=st.sampled_from(["minimizer", "minimizer", "any"]))
def test_firm_rows_equal_per_call(problem, norm, pick):
    f, points, tilts, _, radii = problem
    if pick == "minimizer":     # subgradient pairs: x minimizes f - <., s>
        points = [int(np.argmin(f.tilted(s))) for s in tilts]
    rows = list(zip(points, tilts))
    checked = check_block(lambda: moduli._firm_rows(f, points, tilts, norm, radii),
                          lambda x, s: firm_modulus_per_call(f, x, s, radii, norm),
                          rows)
    if checked is None:
        return
    (mods, verdicts), want = checked
    for (x, s), mod, verdict, w in zip(rows, mods, verdicts, want):
        one = ll.firm_modulus(f, x, s, radii=radii, norm=norm)
        for got in (mod, one):
            assert_same_curve(got, w)
        assert_same_fields(verdict, certification_verdict_per_call(w))


@settings(max_examples=150, deadline=None)
@given(problem=row_problem(), norm=st.sampled_from(list(ll.NormChoice)))
def test_wellposed_rows_equal_per_call(problem, norm):
    f, _, tilts, members, radii = problem
    checked = check_block(
        lambda: moduli._wellposed_rows(f, tilts, norm, radii, members),
        lambda s: wellposedness_per_call(f, s, radii, norm, members),
        [(s,) for s in tilts])
    if checked is None:
        return
    (mods, reports), want = checked
    for s, mod, rep, (wm, wr) in zip(tilts, mods, reports, want):
        one_mod, one_rep = ll.wellposedness_modulus(f, s, radii=radii, norm=norm,
                                                    members=members)
        for got_mod, got_rep in ((mod, rep), (one_mod, one_rep)):
            assert_same_curve(got_mod, wm)
            assert_same_fields(got_rep, wr)


@settings(max_examples=300, deadline=None)
@given(curves=st.lists(gamma0_curve(), min_size=1, max_size=5),
       spacing=st.sampled_from([0.0, 0.01, 0.05]))
def test_certificate_rows_equal_per_call(curves, spacing):
    """Curves of one sampling, certified together, against one at a time."""
    ts = curves[0][0]
    rows = [(vs[:ts.size], empty[:ts.size]) for t, vs, empty in curves
            if t.size >= ts.size]
    values = np.array([vs for vs, _ in rows])
    empty = np.array([e for _, e in rows])
    got = moduli._verdicts(ts, values, empty, spacing)
    for (vs, e), verdict in zip(rows, got):
        m = Modulus("firm", 0, ts, vs, e, np.full(ts.size, -1),
                    ll.NormChoice.L2, spacing=spacing)
        assert_same_fields(verdict, certification_verdict_per_call(m))
        assert_same_fields(ll.certification_verdict(m), verdict)
        # without a recorded step nothing is cut
        uncut = dataclasses.replace(m, spacing=0.0)
        assert_same_fields(ll.certification_verdict(uncut),
                           certification_verdict_per_call(uncut))


@pytest.mark.parametrize("norm", list(ll.NormChoice), ids=lambda n: n.name)
@pytest.mark.parametrize("eid", [e.id for e in ll.entries()])
def test_row_blocks_equal_per_call_on_catalog(eid, norm):
    """Every kind, as one block of spread rows, against the per-call
    bodies: total at domain points, firm at conjugate subgradient pairs,
    well-posedness at spread tilts."""
    e = entry(eid)
    f = e.build()
    dom = np.flatnonzero(f.domain_flat)
    points = [int(i) for i in dom[np.linspace(0, dom.size - 1, 6).astype(int)]]
    mods, verdicts = moduli._total_rows(f, points, norm)
    for x, mod, verdict in zip(points, mods, verdicts):
        want = total_modulus_per_call(f, x, norm=norm)
        assert_same_curve(mod, want)
        assert_same_fields(verdict, certification_verdict_per_call(want))
    conj = ll.conjugate_fast(f, e.dual_grid)
    duals = np.linspace(0, e.dual_grid.size - 1, 7).astype(int)[1:-1]
    tilts = [e.dual_grid.point(int(s)) for s in duals]
    pairs = [int(conj.argmax[s]) for s in duals]
    mods, verdicts = moduli._firm_rows(f, pairs, tilts, norm)
    for x, s, mod, verdict in zip(pairs, tilts, mods, verdicts):
        want = firm_modulus_per_call(f, x, s, norm=norm)
        assert_same_curve(mod, want)
        assert_same_fields(verdict, certification_verdict_per_call(want))
    mods, reports = moduli._wellposed_rows(f, tilts, norm)
    for s, mod, rep in zip(tilts, mods, reports):
        wm, wr = wellposedness_per_call(f, s, norm=norm)
        assert_same_curve(mod, wm)
        assert_same_fields(rep, wr)


@pytest.mark.parametrize("block", [1, 3, 8])
@pytest.mark.parametrize("eid", [e.id for e in ll.entries() if e.dim == 1])
def test_block_functions_stop_after_the_failing_block(eid, block, monkeypatch):
    """``_by_blocks`` yields the one-row results in input order, each
    block computed when its first row is read: a loop that breaks at the
    first failure has computed the blocks up to the one holding it and no
    more, and a loop that reads on gets every row."""
    e = entry(eid)
    f = e.build()
    monkeypatch.setattr(moduli, "_ROW_BLOCK", block * f.grid.size)
    dom = np.flatnonzero(f.domain_flat)
    points = [int(i) for i in dom[np.linspace(0, dom.size - 1, 12).astype(int)]]
    tilts = [e.dual_grid.point(int(s))
             for s in np.linspace(0, e.dual_grid.size - 1, 11).astype(int)[1:-1]]

    def rows_kept(failed):
        bad = [i for i, b in enumerate(failed) if b]
        return len(failed) if not bad else min(len(failed),
                                               (bad[0] // block + 1) * block)

    totals = [ll.total_convexity_modulus(f, x) for x in points]
    L2 = ll.NormChoice.L2
    cases = [(lambda: moduli._by_blocks(moduli._total_rows, f, points, norm=L2),
              [(m, ll.certification_verdict(m)) for m in totals],
              lambda verdict: not verdict[0]),
             (lambda: moduli._by_blocks(moduli._wellposed_rows, f, tilts,
                                        norm=L2),
              [ll.wellposedness_modulus(f, s) for s in tilts],
              lambda rep: not rep.strong)]
    computed = []
    for name in ("_total_rows", "_wellposed_rows"):
        def counting(f, rows, *args, body=getattr(moduli, name), **kwargs):
            computed.extend(rows)
            return body(f, rows, *args, **kwargs)
        monkeypatch.setattr(moduli, name, counting)

    for rows, one, failed in cases:
        failures = [failed(verdict) for _, verdict in one]
        computed.clear()
        read = []
        for row in rows():
            read.append(row)
            if failed(row[1]):
                break
        assert len(read) == (failures.index(True) + 1 if any(failures)
                             else len(one))
        assert len(computed) == rows_kept(failures)
        computed.clear()
        every = list(rows())
        assert len(every) == len(computed) == len(one)
        for got in (read, every):
            for (mod, verdict), (want_mod, want) in zip(got, one):
                assert_same_curve(mod, want_mod)
                assert_same_fields(verdict, want)

    conj = ll.conjugate_fast(f, e.dual_grid)
    duals = [e.dual_grid.index_of_nearest(s) for s in tilts]
    pairs = [int(conj.argmax[s]) for s in duals]
    rows = list(moduli._by_blocks(moduli._firm_rows, f, pairs, tilts, norm=L2))
    assert len(rows) == len(pairs)
    for x, s, (mod, verdict) in zip(pairs, tilts, rows):
        want = ll.firm_modulus(f, x, s)
        assert_same_curve(mod, want)
        assert_same_fields(verdict, ll.certification_verdict(want))


# -- closed forms read through the row-block reader ---------------------------

def half_squared_distance(grid, x, w):
    """1/2 |w - x|_2^2 from the coordinates of grid points w and x."""
    d = grid.points[w] - grid.points[x]
    return 0.5 * (d * d).sum(axis=-1)


@pytest.mark.parametrize("norm", list(ll.NormChoice))
@pytest.mark.parametrize("eid", ["halfsq", "halfsq2"])
def test_halfsq_moduli_are_half_the_squared_distance(eid, norm):
    """For f = 1/2 |.|_2^2 the firm gap at (x, s = x) and the total gap
    about x are the Bregman distance 1/2 |u - x|_2^2, whatever norm draws the
    shells (the total gap by the extrapolation, exact on quadratics), so
    every finite shell minimum is that distance at its witness."""
    f = entry(eid).build()
    rng = np.random.default_rng(42)
    xs = rng.choice(np.flatnonzero(f.grid.interior_flat), 25, replace=False)
    firm = moduli._by_blocks(moduli._firm_rows, f, xs, f.grid.points[xs],
                             norm=norm)
    total = moduli._by_blocks(moduli._total_rows, f, xs, norm=norm)
    for x, (fm, _), (tm, _) in zip(xs, firm, total):
        for m in (fm, tm):
            fin = np.isfinite(m.values)
            assert fin.any()
            want = half_squared_distance(f.grid, x, m.witnesses[fin])
            np.testing.assert_allclose(m.values[fin], want, rtol=1e-11, atol=0)


@pytest.mark.parametrize("norm", list(ll.NormChoice))
def test_affine_total_moduli_are_zero(norm):
    """An affine function's total gap is 0, so every finite shell minimum
    is 0 up to rounding and no certificate is positive."""
    f = entry("affine").build()
    xs = np.flatnonzero(f.domain_flat)[::7]
    curves = list(moduli._by_blocks(moduli._total_rows, f, xs, norm=norm))
    assert len(curves) == xs.size
    for m, (pos, _, _) in curves:
        fin = np.isfinite(m.values)
        assert fin.any()
        assert np.abs(m.values[fin]).max() <= 1e-12
        assert not pos



def coordinate_distance(grid, x, norm):
    """|u - x| in ``norm`` for every grid point u, from the coordinates."""
    d = [np.abs(c - c[x]) for c in grid.points.T]
    if norm is ll.NormChoice.L2:
        return np.sqrt(sum(c * c for c in d))
    if norm is ll.NormChoice.L1:
        return sum(d)
    return np.max(d, axis=0)


def interior_bases(f, seed, n=10):
    return np.random.default_rng(seed).choice(
        np.flatnonzero(f.grid.interior_flat), n, replace=False)


@pytest.mark.parametrize("radii", [None, [0.05, 0.1, 0.3, 0.7]])
@pytest.mark.parametrize("norm", list(ll.NormChoice))
@pytest.mark.parametrize("s", [-0.5, 0.0, 0.9])
def test_abs_firm_gap_at_zero_is_closed_form(s, norm, radii):
    """For f = |.| at x = 0 and s in (-1, 1) the firm gap is |u| - s u, so
    every finite shell minimum is that gap at its witness."""
    f = entry("abs").build()
    x = f.grid.index_of_nearest([0.0])
    assert f.grid.points[x, 0] == 0.0
    m = ll.firm_modulus(f, x, [s], radii=radii, norm=norm)
    fin = np.isfinite(m.values)
    assert fin.any()
    w = f.grid.points[m.witnesses[fin], 0]
    np.testing.assert_allclose(m.values[fin], np.abs(w) - s * w,
                               rtol=1e-11, atol=0)


@pytest.mark.parametrize("norm", list(ll.NormChoice))
@pytest.mark.parametrize("eid", ["halfsq", "halfsq2"])
def test_halfsq_wellposedness_at_grid_tilts(eid, norm):
    """For f = 1/2 |.|_2^2 and a grid-point tilt s, the tilted minimizer is
    s and the well-posedness gap is 1/2 |u - s|_2^2: the report is strong
    and every finite shell minimum is that distance at its witness."""
    f = entry(eid).build()
    xs = interior_bases(f, 7)
    rows = moduli._by_blocks(moduli._wellposed_rows, f, f.grid.points[xs],
                             norm=norm)
    for x, (m, rep) in zip(xs, rows):
        assert rep.minimizer == m.center == x
        assert rep.strong
        fin = np.isfinite(m.values)
        assert fin.any()
        want = half_squared_distance(f.grid, x, m.witnesses[fin])
        np.testing.assert_allclose(m.values[fin], want, rtol=1e-11, atol=0)


def closed_form_shells(grid, x, norm, gap):
    """The default ladder about base x from the coordinates: radii k h for
    bands k = 1 .. the largest band (at least 1), a point's band being
    floor(|u - x| / h + 1/2) with h the largest spacing, and each shell's
    least ``gap`` (+inf where it has no member)."""
    band = np.floor(coordinate_distance(grid, x, norm) / grid.max_spacing + 0.5)
    band = band.astype(np.int64)
    least = np.full(max(band.max(), 1) + 1, math.inf)
    np.minimum.at(least, band, gap)
    return np.arange(1, least.size) * grid.max_spacing, least[1:]


def closed_form_clears(grid, radii, least):
    """Whether the closed-form minima clear ``delta0`` at every certified
    radius: a nonempty shell at or past ``cert_min_radius``."""
    cert = (radii >= DEFAULT_TOLS.cert_min_radius(grid.max_spacing)) & (
        least < math.inf)
    return bool(cert.any() and (least[cert] > DEFAULT_TOLS.delta0(radii[cert])).all())


# Grid-edge bases of halfsq2 (every 7th of its 81^2 points: 938 bases, 47 on
# the edge) whose total curve reads a shell minimum above the closed form.
# The usable rule of ``_total_rows`` skips a shell's nearest member when its
# axis decomposition needs a sample beyond the grid edge (the FOUND on
# grid-edge bases in CHANGES.md); a mend moves these counts.
EDGE_ABOVE_CLOSED_FORM = {ll.NormChoice.L2: 47, ll.NormChoice.L1: 47,
                          ll.NormChoice.LINF: 0}


@pytest.mark.parametrize("norm", list(ll.NormChoice), ids=lambda n: n.name)
def test_halfsq2_total_moduli_at_grid_edge_bases(norm):
    """For f = 1/2 |.|_2^2 each total shell minimum about a base is the
    least 1/2 |u - x|_2^2 over the shell's usable members: equal to the
    least over all members at interior bases, at or above it at grid-edge
    bases, where members may be skipped. The shells and their empty flags
    are the closed form's, and the certificate is positive wherever the
    closed form clears ``delta0`` at every certified radius."""
    f = entry("halfsq2").build()
    g = f.grid
    xs = np.arange(0, g.size, 7)
    edge = ~g.interior_flat[xs]
    assert (xs.size, edge.sum()) == (938, 47)
    above = 0
    rows = moduli._by_blocks(moduli._total_rows, f, xs, norm=norm)
    for x, on_edge, (m, (pos, _, _)) in zip(xs, edge, rows):
        bregman = 0.5 * sum((c - c[x]) ** 2 for c in g.points.T)
        radii, least = closed_form_shells(g, x, norm, bregman)
        np.testing.assert_array_equal(m.radii, radii)
        np.testing.assert_array_equal(m.empty, least == math.inf)
        fin = np.isfinite(m.values)
        v, want = m.values[fin], least[fin]
        if on_edge:
            assert (v >= want * (1.0 - 1e-11)).all()
            above += bool((v > want * (1.0 + 1e-11)).any())
        else:
            np.testing.assert_allclose(v, want, rtol=1e-11, atol=0)
        if closed_form_clears(g, radii, least):
            assert pos
    assert above == EDGE_ABOVE_CLOSED_FORM[norm]


@pytest.mark.parametrize("norm", list(ll.NormChoice), ids=lambda n: n.name)
@pytest.mark.parametrize("eid", ["halfsq", "affine"])
def test_total_certificate_follows_the_closed_form(eid, norm):
    """At every 7th domain point, edges included, the total certificate is
    positive exactly where the closed-form shell minima clear ``delta0`` at
    every certified radius: always for halfsq (1/2 |u - x|^2), never for
    affine (0)."""
    f = entry(eid).build()
    g = f.grid
    xs = np.flatnonzero(f.domain_flat)[::7]
    rows = list(moduli._by_blocks(moduli._total_rows, f, xs, norm=norm))
    assert len(rows) == xs.size
    for x, (m, (pos, _, _)) in zip(xs, rows):
        gap = (half_squared_distance(g, x, np.arange(g.size)) if eid == "halfsq"
               else np.zeros(g.size))
        radii, least = closed_form_shells(g, x, norm, gap)
        np.testing.assert_array_equal(m.radii, radii)
        assert pos == closed_form_clears(g, radii, least) == (eid == "halfsq")


RADII = [0.05, 0.1, 0.2, 0.35, 0.6, 1.0]


@pytest.mark.parametrize("norm", list(ll.NormChoice))
@pytest.mark.parametrize("kind", ["firm", "total"])
@pytest.mark.parametrize("eid", ["halfsq", "halfsq2"])
def test_halfsq_explicit_radii_are_closed_form(eid, kind, norm):
    """At explicit radii the shells are the points with |d - t| <= h/2 and
    d > 0. For f = 1/2 |.|_2^2 each shell's empty flag is that set's, and
    each finite shell minimum is 1/2 |w - x|_2^2 at a witness w in it. Every
    member of a firm shell is usable, so a firm minimum is also the least
    1/2 |u - x|_2^2 over the members; a total one may skip members."""
    f = entry(eid).build()
    g = f.grid
    xs = interior_bases(f, 11)
    columns = (xs, g.points[xs]) if kind == "firm" else (xs,)
    rows = moduli._by_blocks(getattr(moduli, f"_{kind}_rows"), f, *columns,
                             norm=norm, radii=RADII)
    for x, (m, _) in zip(xs, rows):
        assert m.radii.tolist() == RADII
        d = coordinate_distance(g, x, norm)
        bregman = half_squared_distance(g, x, np.arange(g.size))
        for t, v, empty, w in zip(RADII, m.values, m.empty, m.witnesses):
            shell = (np.abs(d - t) <= g.max_spacing / 2.0) & (d > 0)
            assert empty == (not shell.any())
            if not np.isfinite(v):
                assert kind == "total" or empty
                continue
            assert shell[w]
            np.testing.assert_allclose(v, bregman[w], rtol=1e-11, atol=0)
            if kind == "firm":
                np.testing.assert_allclose(v, bregman[shell].min(),
                                           rtol=1e-11, atol=0)

# -- coercivity and explicit radii against the one-center bodies -------------

def coercivity_per_call(f, norm):
    """Reference: the growth test on one ladder about the minimizer."""
    grid = f.grid
    tilted = f.flat
    mval, eps, cluster = tie_cluster_per_call(f, tilted, np.zeros(grid.dim))
    x_hat = int(cluster[0])
    if moduli._edge_descent(grid, tilted, cluster, mval + eps):
        return moduli.CoercivityReport(False, x_hat,
                                       "minimum on grid edge with outward descent")
    ladder = shell_ladder_per_call(grid, x_hat, norm)
    radii, values, empty, _ = shell_minima_per_call(tilted[ladder.members] - mval,
                                                    ladder)
    outer = (~empty) & (radii > radii[-1] / 2.0)
    if not outer.any():
        return moduli.CoercivityReport(False, x_hat, "no usable outer shells")
    vals = values[outer]
    ts = radii[outer]
    floor = DEFAULT_TOLS.delta0(ts)
    if not (vals > floor).all():
        t_bad = float(ts[~(vals > floor)][0])
        return moduli.CoercivityReport(
            False, x_hat, f"outer shell minimum not above the floor at t={t_bad:g}")
    vf = vals[np.isfinite(vals)]
    if vf.size >= 2:
        slack = DEFAULT_TOLS.delta0(float(np.abs(vf).max()))
        if not (np.diff(vf) >= -slack).all():
            return moduli.CoercivityReport(False, x_hat,
                                           "outer shell minima are not monotone")
    return moduli.CoercivityReport(True, x_hat, "")


@pytest.mark.parametrize("norm", list(ll.NormChoice), ids=lambda n: n.name)
@pytest.mark.parametrize("eid", [e.id for e in ll.entries()])
def test_coercivity_equals_per_call_on_catalog(eid, norm):
    f = entry(eid).build()
    assert_same_fields(ll.coercivity_check(f, norm), coercivity_per_call(f, norm))


@pytest.mark.parametrize("radii", [[1.0, 0.5, 0.1], [0.5, 0.5], [math.nan, 1.0],
                                   [0.5, math.inf], [0.0, 1.0], [-0.5, 1.0]],
                         ids=["decreasing", "repeated", "nan", "inf", "zero",
                              "negative"])
def test_radii_outside_the_contract_raise(halfsq_1d, radii):
    """Explicit radii are finite, positive and strictly increasing, as
    ``Modulus.radii`` states; any other list is refused."""
    x = halfsq_1d.grid.index_of_nearest([0.0])
    for call in (lambda: ll.total_convexity_modulus(halfsq_1d, x, radii=radii),
                 lambda: ll.firm_modulus(halfsq_1d, x, [0.0], radii=radii),
                 lambda: ll.wellposedness_modulus(halfsq_1d, [0.0], radii=radii),
                 lambda: ll.wellposedness_modulus(halfsq_1d, [0.0], radii=radii,
                                                  members=np.array([x - 1, x]))):
        with pytest.raises(ValueError, match="strictly increasing"):
            call()


@pytest.mark.parametrize("kind,option", [("total", ["--at", "1,1"]),
                                         ("wellposed", ["--subgradient", "0.1,0.1"])])
def test_modulus_cli_radii_csv_equals_closed_shell_oracle(kind, option, tmp_path):
    radii = [0.05, 0.1, 0.2, 0.4, 0.8]
    got = tmp_path / "cli.csv"
    assert main(["modulus", "--catalog", "sqrt_well", "--kind", kind, *option,
                 "--radii", ",".join(map(str, radii)), "--out", str(got)]) == 0
    f = entry("sqrt_well").build()
    want = tmp_path / "oracle.csv"
    if kind == "total":
        curve = total_modulus_per_call(f, f.grid.index_of_nearest([1.0, 1.0]), radii)
    else:
        curve, _ = wellposedness_per_call(f, [0.1, 0.1], radii)
    write_modulus_csv(curve, want)
    assert got.read_bytes() == want.read_bytes()
