import math
import subprocess
import sys

import numpy as np
import pytest

import legendrelab as ll
from legendrelab.catalog import (entries, entry, finite_difference_hessian,
                                 fourth_root_well, fourth_root_well_hessian,
                                 fourth_root_well_hessian_det, sqrt_well)
from legendrelab.errors import PointOutsideDomainError
from legendrelab.tolerances import DEFAULT_TOLS

from conftest import brute_conjugate_values, cli_env


# Entries whose values round differently under numpy's AVX512 kernels: exp
# goes through np.exp, which has no correctly rounded numpy spelling.
SIMD_DEPENDENT = {"exp"}


def test_fourth_root_well_does_not_depend_on_simd_dispatch():
    """The values of every catalog entry but exp on its catalog grid, and
    its conjugate_fast dual on its dual grid, are the same bytes whichever
    SIMD kernels numpy dispatches to: the second run disables numpy's
    AVX512 kernels, so every ufunc runs the kernel of a CPU without them.
    On such a CPU numpy warns that it cannot disable those features, and
    both runs are alike."""
    code = ("import hashlib\nfrom legendrelab import conjugate_fast\n"
            "from legendrelab.catalog import entries\n"
            "for e in entries():\n"
            "    f = e.build()\n"
            "    dual = conjugate_fast(f, e.dual_grid).dual.values\n"
            "    print(e.id, *(hashlib.sha256(v.tobytes()).hexdigest()\n"
            "                  for v in (f.values, dual)))")
    env = {k: v for k, v in cli_env().items() if k != "NPY_DISABLE_CPU_FEATURES"}
    runs = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env={**env, **extra}, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append(dict(line.split(" ", 1) for line in proc.stdout.splitlines()))
    assert list(runs[0]) == [e.id for e in entries()]
    assert SIMD_DEPENDENT <= set(runs[0])
    assert [eid for eid in runs[0] if runs[0][eid] != runs[1][eid]
            and eid not in SIMD_DEPENDENT] == []


def test_fourth_root_well_values():
    pts = np.array([[0.0, 0.0], [0.3, 1.0], [2.0, 0.0], [1.0, 1.0]])
    vals = fourth_root_well(pts)
    assert vals[0] == -1.0
    assert vals[1] == 0.0
    assert vals[2] == math.inf
    assert vals[3] == 0.0


def test_fourth_root_well_edge_row_is_zero_on_grid():
    """Every grid point meant to sit on y = 1 evaluates to exactly zero,
    despite the coordinate carrying rounding."""
    g = entry("fourth_root_well").primal_grid
    y_idx = round((1.0 - g.bounds[1][0]) / g.spacing[1])
    xs = g.axes[0]
    row = np.stack([xs, np.full_like(xs, g.axes[1][y_idx])], axis=1)
    vals = fourth_root_well(row)
    inside = np.abs(xs) <= 1.0
    assert (vals[inside] == 0.0).all()


def test_sqrt_well_values():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 1.0], [1.5, 0.0]])
    vals = sqrt_well(pts)
    assert vals[0] == -1.0
    assert vals[1] == 0.0
    assert vals[2] == 0.0
    assert vals[3] == math.inf


def test_hessian_formula_at_origin():
    H = fourth_root_well_hessian([0.0, 0.0])
    assert np.isclose(H[0, 0], 0.5)
    assert np.isclose(H[1, 1], 0.5)
    assert np.isclose(H[0, 1], 0.0)
    assert np.isclose(fourth_root_well_hessian_det([0.0, 0.0]), 0.25)


def test_hessian_formula_off_center():
    """Evaluate the closed form at (0.5, 0) and cross-check by differences."""
    H = fourth_root_well_hessian([0.5, 0.0])
    expected = (2.25 / 4.0) * (1.0 / 0.75 ** 7) ** 0.25
    assert np.isclose(H[0, 0], expected)
    fd = finite_difference_hessian(fourth_root_well, [0.5, 0.0])
    assert np.abs(fd - H).max() < 1e-6


def test_hessian_outside_open_box_raises():
    with pytest.raises(PointOutsideDomainError):
        fourth_root_well_hessian([1.0, 0.0])
    with pytest.raises(PointOutsideDomainError):
        fourth_root_well_hessian_det([0.0, 1.5])


def test_hessian_difference_agreement_on_sample_grid():
    worst = 0.0
    for x in np.linspace(-0.8, 0.8, 5):
        for y in np.linspace(-0.8, 0.8, 5):
            fd = finite_difference_hessian(fourth_root_well, (x, y))
            cl = fourth_root_well_hessian((x, y))
            worst = max(worst, float(np.abs(fd - cl).max()))
    assert worst < 1e-6


def test_hessian_positive_definite_inside():
    for x in (-0.9, -0.3, 0.4, 0.8):
        for y in (-0.7, 0.0, 0.9):
            H = fourth_root_well_hessian([x, y])
            assert H[0, 0] > 0
            assert np.linalg.det(H) > 0
            det = fourth_root_well_hessian_det([x, y])
            assert np.isclose(det, np.linalg.det(H), rtol=1e-9)


@pytest.mark.parametrize("e", [e for e in entries() if e.conjugate_analytic],
                         ids=lambda e: e.id)
def test_analytic_conjugates_match_transform(e):
    """Where the transform is trusted, it agrees with the closed form."""
    f = e.build()
    res = ll.conjugate_fast(f, e.dual_grid)
    expected = e.conjugate_analytic(e.dual_grid.points)
    scale = float(np.abs(f.flat[f.domain_flat]).max(initial=0.0))
    tol = max(DEFAULT_TOLS.bicon(f.grid.max_spacing, f.lipschitz_hat(), scale),
              1e-7)
    sel = res.trusted & np.isfinite(expected)
    assert sel.any()
    assert np.abs(res.dual.flat[sel] - expected[sel]).max() <= tol


@pytest.mark.parametrize("e", [e for e in entries() if e.gradient_analytic],
                         ids=lambda e: e.id)
def test_analytic_gradients_are_subgradients(e):
    f = e.build()
    rng = np.random.default_rng(11)
    dom = np.flatnonzero(f.domain_flat & f.grid.interior_flat)
    for x in rng.choice(dom, size=6, replace=False):
        p = f.grid.point(int(x))
        if e.id == "fourth_root_well" and (np.abs(p) > 0.9).any():
            continue
        s = e.gradient_analytic(p[None, :] if e.dim == 2 else p)[0]
        fstar, _ = ll.conjugate_value(f, np.atleast_1d(s))
        gap = f.value_at(int(x)) + fstar - float(p @ np.atleast_1d(s))
        assert gap <= ll.tau_sub(f, int(x), np.atleast_1d(s))


def test_brute_conjugate_oracle_for_quartic():
    e = entry("quartic")
    f = e.build()
    d = ll.grid_1d(-3.0, 3.0, 41)
    res = ll.conjugate_fast(f, d)
    oracle = brute_conjugate_values(f, d)
    assert np.allclose(res.dual.flat, oracle, rtol=1e-12, atol=1e-12)


def test_entry_lookup_and_registry():
    assert entry("halfsq").dim == 1
    with pytest.raises(KeyError):
        entry("nope")
    ids = [e.id for e in entries()]
    assert len(ids) == len(set(ids))


def test_catalog_set_names_cover_acceptance_sets():
    g = ll.grid_2d(-2.0, 2.0, 41)
    from legendrelab.catalog import SET_NAMES
    for name in SET_NAMES:
        S = ll.make_set(name, g)
        assert S.size >= 1
    assert ll.make_set("singleton", g).size == 1
    assert ll.make_set("pair", g).size == 2


@pytest.mark.parametrize("grid", [ll.grid_1d(-1.0, 1.0, 11),
                                  ll.Grid(((0.0, 1.0),) * 3, (3, 3, 3))])
def test_named_sets_reject_grids_that_are_not_2d(grid):
    from legendrelab.catalog import SET_NAMES
    for name in SET_NAMES:
        with pytest.raises(ValueError, match=f"named set '{name}' is 2D"):
            ll.make_set(name, grid)


def test_circle_cloud_members_share_norm():
    g = ll.grid_2d(-2.0, 2.0, 101)
    S = ll.make_set("circle", g)
    norms = np.linalg.norm(S.member_points(), axis=1)
    assert np.ptp(norms) < 1e-9
    assert S.size == 12
