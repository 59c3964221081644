import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legendrelab as ll
from legendrelab import moduli
from legendrelab.errors import EmptyDomainError
from legendrelab.grids import finite_range


def test_grid_coordinates_are_lb_plus_k_h():
    g = ll.grid_1d(-1.0, 1.0, 5)
    h = g.spacing[0]
    assert np.array_equal(g.axes[0], -1.0 + np.arange(5) * h)
    assert g.size == 5
    g2 = ll.grid_2d(0.0, 1.0, 3, -1.0, 1.0, 5)
    assert g2.shape == (3, 5)
    assert g2.points.shape == (15, 2)


def test_grid_rejects_bad_axes():
    with pytest.raises(ValueError):
        ll.Grid(((1.0, 1.0),), (3,))
    with pytest.raises(ValueError):
        ll.Grid(((0.0, 1.0),), (1,))


def test_index_round_trip():
    g = ll.grid_2d(-2.0, 2.0, 7, -1.0, 3.0, 5)
    for flat in (0, 3, 17, g.size - 1):
        assert g.ravel_index(g.unravel_index(flat)) == flat
    assert g.index_of_nearest(g.point(13)) == 13


def test_build_grid_function_examples():
    g = ll.grid_1d(-1.0, 1.0, 3)
    f = ll.build_grid_function(g, lambda x: 0.5 * x * x)
    assert np.allclose(f.flat, [0.5, 0.0, 0.5])

    ind = ll.build_grid_function(g, lambda x: 0.0 if x == 0.0 else math.inf)
    assert list(ind.flat) == [math.inf, 0.0, math.inf]

    g2 = ll.grid_1d(0.0, 1.0, 2)
    with pytest.raises(EmptyDomainError):
        ll.build_grid_function(g2, lambda x: math.inf)


def test_grid_function_rejects_nan_and_neg_inf():
    g = ll.grid_1d(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        ll.GridFunction(g, np.array([0.0, math.nan]))
    with pytest.raises(ValueError):
        ll.GridFunction(g, np.array([0.0, -math.inf]))


def test_extreal_arithmetic():
    # +inf absorbs addition; min over a set with finite values is finite
    vals = np.array([1.0, math.inf, -2.0])
    assert (vals + math.inf == math.inf).all()
    assert np.isfinite(vals.min())
    assert math.inf > vals[2]


def segments(lad):
    """Every segment of a one-row band ladder, in order: the ascending
    columns of band 0, then those of each shell."""
    return [np.flatnonzero(lad.bands[0] == b) for b in range(lad.radii.size + 1)]


def explicit_shells(grid, center, radii, norm=ll.NormChoice.L2):
    """The closed shells at ``radii`` about one center, as the moduli build
    them for explicit radii: one segment of flat indices per radius."""
    ts, seg, entry = moduli._explicit_ladders(grid, np.array([center]), norm,
                                              radii)
    first, *shells = [entry[seg == k] for k in range(ts.size + 1)]
    assert first.size == 0 and len(shells) == len(radii)
    return shells


def test_shell_1d_examples():
    g = ll.grid_1d(-2.0, 2.0, 5)  # h = 1
    small, unit = explicit_shells(g, g.index_of_nearest([0.0]), [0.2, 1.0])
    assert sorted(g.points[unit][:, 0]) == [-1.0, 1.0]
    assert small.size == 0


def test_shell_2d_linf_ring():
    g = ll.grid_2d(-2.0, 2.0, 5)  # h = 1
    c = g.index_of_nearest([0.0, 0.0])
    (sh,) = explicit_shells(g, c, [1.0], norm=ll.NormChoice.LINF)
    assert sh.size == 8
    d = ll.NormChoice.LINF.length(g.points[sh])
    assert np.allclose(d, 1.0)


def test_shell_excludes_center():
    g = ll.grid_1d(-2.0, 2.0, 5)
    (sh,) = explicit_shells(g, 2, [0.4])
    assert 2 not in sh


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 30), seed=st.integers(0, 10_000))
def test_shell_ladder_partitions_grid(n, seed):
    """Bands at multiples of the spacing cover every point exactly once:
    the center alone in the first segment, the rest in its shells."""
    rng = np.random.default_rng(seed)
    g = ll.grid_1d(-1.0, 1.0, n)
    center = int(rng.integers(0, n))
    lad = ll.shell_ladder(g, center)
    first, *shells = segments(lad)
    assert first.tolist() == [center]
    seen = np.concatenate(shells[:int(lad.shells[0])])
    assert np.array_equal(np.sort(seen), np.setdiff1d(np.arange(n), [center]))


def test_shell_symmetry_under_reflection():
    g = ll.grid_1d(-2.0, 2.0, 9)
    c = g.index_of_nearest([1.0])
    c_ref = g.index_of_nearest([-1.0])
    (sh,) = explicit_shells(g, c, [1.5])
    (sh_ref,) = explicit_shells(g, c_ref, [1.5])
    pts = np.sort(g.points[sh][:, 0])
    pts_ref = np.sort(-g.points[sh_ref][:, 0])
    assert np.allclose(pts, pts_ref)


def test_norm_dual_pairing():
    assert ll.NormChoice.L2.dual is ll.NormChoice.L2
    assert ll.NormChoice.L1.dual is ll.NormChoice.LINF
    assert ll.NormChoice.LINF.dual is ll.NormChoice.L1
    v = np.array([[3.0, -4.0]])
    assert np.isclose(ll.NormChoice.L2.length(v)[0], 5.0)
    assert np.isclose(ll.NormChoice.L1.length(v)[0], 7.0)
    assert np.isclose(ll.NormChoice.LINF.length(v)[0], 4.0)


# -- band-stencil shell ladders ------------------------------------------

ANISO = ll.grid_2d(-2.0, 2.0, 7, -1.0, 3.0, 5)


@st.composite
def grid_and_center(draw):
    """1D-3D grids (square and anisotropic) with a center that is often on
    an edge or a corner."""
    dim = draw(st.integers(1, 3))
    top = (40, 15, 7)[dim - 1]
    bounds, counts, multi = [], [], []
    for _ in range(dim):
        lo = draw(st.sampled_from([-2.0, -1.0, 0.0, 0.5]))
        bounds.append((lo, lo + draw(st.sampled_from([1.0, 2.0, 3.0, 4.0]))))
        n = draw(st.integers(2, top))
        counts.append(n)
        multi.append(draw(st.one_of(st.sampled_from([0, n - 1]),
                                    st.integers(0, n - 1))))
    grid = ll.Grid(tuple(bounds), tuple(counts))
    return grid, grid.ravel_index(multi)


def pointwise_band(grid, center, flat, norm, step):
    """The band of one grid point, from its index offset to the center."""
    offset = (np.array(grid.unravel_index(flat))
              - np.array(grid.unravel_index(center)))
    length = float(norm.length(offset * np.array(grid.spacing)))
    return math.floor(length / step + 0.5)


def check_ladder(grid, center, norm):
    """One row: segment 0 holds the center and the points within half a
    step, segments 1..shells[0] bands 1..k in ascending order, and the
    later segments up to the grid's largest ladder are empty."""
    lad = ll.shell_ladder(grid, center, norm=norm)
    step = grid.max_spacing
    bands = {flat: pointwise_band(grid, center, flat, norm, step)
             for flat in range(grid.size)}
    k = int(lad.shells[0])
    assert lad.shells.shape == (1,) and k == max(max(bands.values()), 1)
    # radii up to the band of the corner-to-corner offset
    widest = max(pointwise_band(grid, 0, grid.size - 1, norm, step), 1)
    assert np.array_equal(lad.radii, np.arange(1, widest + 1) * step)
    assert lad.bands.shape == (1, grid.size)
    segs = segments(lad)
    assert len(segs) == widest + 1
    assert center in segs[0]
    for band, seg in enumerate(segs):
        assert (np.diff(seg) > 0).all()
        assert all(bands[int(m)] == band for m in seg)
    assert all(seg.size == 0 for seg in segs[k + 1:])
    # the segments partition the grid
    assert sorted(np.concatenate(segs).tolist()) == list(range(grid.size))


@settings(max_examples=60, deadline=None)
@given(gc=grid_and_center(), norm=st.sampled_from(list(ll.NormChoice)))
def test_ladder_bands_match_pointwise_offsets(gc, norm):
    check_ladder(*gc, norm)


@pytest.mark.parametrize("norm", list(ll.NormChoice))
@pytest.mark.parametrize("multi", [(0, 0), (6, 4), (0, 4), (3, 0), (3, 2), (6, 1)])
def test_ladder_on_anisotropic_grid_edges_and_corners(norm, multi):
    check_ladder(ANISO, ANISO.ravel_index(multi), norm)


@settings(max_examples=80, deadline=None)
@given(gc=grid_and_center(), norm=st.sampled_from(list(ll.NormChoice)),
       density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_member_ladder_is_full_ladder_filtered(gc, norm, density, seed):
    """Same radii and shell count, and the full ladder's bands at the
    columns ``within``: segment k keeps the full segment's members that are
    in ``within``, in the same ascending order (as positions in
    ``within``)."""
    grid, center = gc
    within = np.flatnonzero(np.random.default_rng(seed).random(grid.size)
                            < density)
    full = ll.shell_ladder(grid, center, norm=norm)
    part = ll.shell_ladder(grid, center, norm=norm, within=within)
    assert part.radii.tobytes() == full.radii.tobytes()
    assert np.array_equal(part.shells, full.shells)
    assert np.array_equal(part.bands, full.bands[:, within])
    kept = [seg[np.isin(seg, within)] for seg in segments(full)]
    for seg, k in zip(segments(part), kept, strict=True):
        assert np.array_equal(within[seg], k)


def local_slope_loop(f, flat):
    """Reference: the largest one-step slope over in-domain neighbors."""
    fx = f.value_at(flat)
    if not np.isfinite(fx):
        return 0.0
    best = 0.0
    x = f.grid.point(flat)
    for ax in range(f.grid.dim):
        for k in (-1, 1):
            nb = int(f.grid.shift(flat, ax, k))
            if nb < 0:
                continue
            fn = f.value_at(nb)
            if np.isfinite(fn):
                step = float(ll.NormChoice.LINF.length(f.grid.point(nb) - x))
                best = max(best, abs(fn - fx) / step)
    return best


@pytest.mark.parametrize("grid", [
    ll.grid_1d(-1.0, 1.0, 31), ll.grid_2d(-2.0, 2.0, 21), ANISO,
    ll.Grid(((0.0, 1.0), (-1.0, 1.0), (0.0, 2.0)), (5, 4, 6))],
    ids=["1d", "2d", "2d-aniso", "3d"])
def test_local_slopes_equal_per_point_loop(grid):
    rng = np.random.default_rng(grid.size)
    vals = rng.normal(size=grid.size) * 3.0
    vals[rng.random(grid.size) < 0.2] = math.inf
    vals[0] = 0.0
    f = ll.GridFunction(grid, vals)
    want = np.array([local_slope_loop(f, i) for i in range(grid.size)])
    assert f.local_slopes.tobytes() == want.tobytes()
    assert all(f.local_slope(i) == want[i] for i in range(grid.size))


def test_finite_range_rule():
    """4 (max |f| + max |x_i| sum_i |s_i|) and 4 max one-step slope must be
    finite: every catalog entry with its dual grid is inside, values near
    the float maximum are not, nor are steps that overflow a slope, and
    `build_grid_function` rejects them as it rejects nan."""
    for e in ll.entries():
        corner = np.abs(e.dual_grid.bounds).max(axis=1)
        assert finite_range(e.build(), corner), e.id
    grid = ll.grid_1d(-2.0, 2.0, 11)
    assert finite_range(ll.GridFunction(grid, np.full(11, 4e307)))
    assert not finite_range(ll.GridFunction(grid, np.full(11, 1.7e308)))
    # each value is inside, but a one-step slope 8e307 / 0.4 overflows
    steep = 4e307 * (-1.0) ** np.arange(11)
    assert not finite_range(ll.GridFunction(grid, steep))
    assert finite_range(ll.GridFunction(grid, np.where(steep > 0, steep, math.inf)))
    halfsq = ll.entry("halfsq").build()
    assert finite_range(halfsq, [1e307])
    assert not finite_range(halfsq, [5e307])
    with pytest.raises(ValueError, match="finite-range"):
        ll.build_grid_function(grid, lambda x: 1.7e308)
