"""Built-in analytic test functions and constraint sets with known answers.

Evaluators are vectorized over an (N, dim) point array. Closed-form
conjugates and gradients are attached where they exist; expected
classification verdicts are pinned per entry on the recommended grids.

Recommended dual grids are chosen so that analytically relevant slopes
(kinks at +-1, affine slopes) land exactly on dual grid nodes; missing
them hides the tilts at which strong minima degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import PointOutsideDomainError
from .grids import Grid, GridFunction, build_grid_function, grid_1d, grid_2d
from .projections import ConstraintSet

_BOX_TOL = 1e-9  # membership slack: grid coordinates meant to hit +-1 carry ulps

VERDICT_KEYS = (
    "convex_lsc",
    "adequate",
    "strongly_adequate",
    "essentially_firmly_subdifferentiable",
    "totally_convex_on_dom_subdiff",
    "totally_convex_on_dom",
    "essentially_strongly_convex",
    "essentially_strictly_convex",
)


def _verdicts(**kw: bool) -> dict[str, bool]:
    missing = set(VERDICT_KEYS) - set(kw)
    if missing:
        raise ValueError(f"missing verdict keys: {missing}")
    return {k: kw[k] for k in VERDICT_KEYS}


def _all_true() -> dict[str, bool]:
    return {k: True for k in VERDICT_KEYS}


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    primal_grid: Grid
    dual_grid: Grid
    conjugate_analytic: Callable[[np.ndarray], np.ndarray] | None = None
    gradient_analytic: Callable[[np.ndarray], np.ndarray] | None = None
    expected_verdicts: dict[str, bool] | None = None
    convex: bool = True

    def build(self) -> GridFunction:
        return build_grid_function(self.primal_grid, self.evaluator,
                                   name=self.id, vectorized=True)


def _col(p: np.ndarray, i: int) -> np.ndarray:
    return p[:, i]


# ---------------------------------------------------------------------------
# 1D evaluators

def _halfsq(p):
    x = _col(p, 0)
    return 0.5 * x * x


def _absval(p):
    return np.abs(_col(p, 0))


def _quartic(p):
    # not x ** 4: np.power's AVX512 kernel rounds unlike its baseline one
    x = _col(p, 0)
    x2 = x * x
    return x2 * x2


def _exp(p):
    return np.exp(_col(p, 0))


def _neg_entropy(p):
    x = _col(p, 0)
    out = np.full(x.shape, math.inf)
    inside = (x >= -_BOX_TOL) & (x <= 1.0 + _BOX_TOL)
    xs = np.clip(x[inside], 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(xs > 0.0, xs * np.log(xs), 0.0)
    out[inside] = v
    return out


_AFFINE_SLOPE = 0.75
_AFFINE_SHIFT = 0.25


def _affine(p):
    return _AFFINE_SLOPE * _col(p, 0) + _AFFINE_SHIFT


def _box_indicator(p):
    x = _col(p, 0)
    return np.where(np.abs(x) <= 1.0 + _BOX_TOL, 0.0, math.inf)


def _point_indicator(p):
    x = _col(p, 0)
    return np.where(np.abs(x) <= _BOX_TOL, 0.0, math.inf)


def _neg_halfsq(p):
    x = _col(p, 0)
    return -0.5 * x * x


def _double_well(p):
    x = _col(p, 0)
    return np.minimum(np.abs(x - 1.0), np.abs(x + 1.0))


# 1D analytic conjugates (values at dual points; +inf allowed)

def _halfsq_star(s):
    t = _col(s, 0)
    return 0.5 * t * t


def _abs_star(s):
    t = _col(s, 0)
    return np.where(np.abs(t) <= 1.0 + _BOX_TOL, 0.0, math.inf)


def _quartic_star(s):
    t = np.abs(_col(s, 0))
    return 3.0 * (t / 4.0) ** (4.0 / 3.0)


def _exp_star(s):
    t = _col(s, 0)
    out = np.full(t.shape, math.inf)
    out[t == 0.0] = 0.0
    pos = t > 0.0
    out[pos] = t[pos] * np.log(t[pos]) - t[pos]
    return out


def _neg_entropy_star(s):
    t = _col(s, 0)
    return np.where(t <= 1.0, np.exp(t - 1.0), t)


def _affine_star(s):
    t = _col(s, 0)
    return np.where(np.abs(t - _AFFINE_SLOPE) <= _BOX_TOL, -_AFFINE_SHIFT, math.inf)


def _box_indicator_star(s):
    return np.abs(_col(s, 0))


def _point_indicator_star(s):
    return np.zeros(s.shape[0])


def _double_well_star(s):
    # conjugate of the convex envelope: 0 on [-1,1] then |s| - 1 growth,
    # conjugated back: max(|s| - 1, 0) ... direct sup: max_x s x - min(|x-1|,|x+1|)
    t = _col(s, 0)
    return np.where(np.abs(t) <= 1.0 + _BOX_TOL, np.abs(t), math.inf)


# ---------------------------------------------------------------------------
# 2D evaluators

def _halfsq2(p):
    return 0.5 * (p * p).sum(axis=1)


def _l1norm2(p):
    return np.abs(p).sum(axis=1)


def _neg_halfsq2(p):
    return -0.5 * (p * p).sum(axis=1)


def _box_indicator2(p):
    inside = (np.abs(p) <= 1.0 + _BOX_TOL).all(axis=1)
    return np.where(inside, 0.0, math.inf)


def _product_well(p: np.ndarray, root: Callable) -> np.ndarray:
    x, y = p[:, 0], p[:, 1]
    inside = (np.abs(x) <= 1.0 + _BOX_TOL) & (np.abs(y) <= 1.0 + _BOX_TOL)
    out = np.full(x.shape, math.inf)
    px = np.clip(1.0 - x[inside] ** 2, 0.0, None)
    qy = np.clip(1.0 - y[inside] ** 2, 0.0, None)
    out[inside] = -root(px * qy)
    return out


def fourth_root_well(p: np.ndarray) -> np.ndarray:
    """-( (1-x^2)(1-y^2) )^(1/4) on [-1,1]^2, +inf outside.

    The product is clamped at 0 from above near the box edge: coordinates
    meant to land on +-1 carry rounding, and fourth roots of tiny negative
    products would be nan. The fourth root is two square roots: sqrt is
    correctly rounded on every CPU, while the SIMD kernels of ``** 0.25``
    (np.power) round differently from one another.
    """
    return _product_well(np.atleast_2d(p), lambda v: np.sqrt(np.sqrt(v)))


def sqrt_well(p: np.ndarray) -> np.ndarray:
    """-sqrt((1-x^2)(1-y^2)) on [-1,1]^2, +inf outside."""
    return _product_well(np.atleast_2d(p), np.sqrt)


def fourth_root_well_hessian(point: Sequence[float]) -> np.ndarray:
    """Closed-form Hessian of fourth_root_well on the open box."""
    x, y = float(point[0]), float(point[1])
    if not (abs(x) < 1.0 and abs(y) < 1.0):
        raise PointOutsideDomainError("Hessian defined on the open box only")
    px = 1.0 - x * x
    qy = 1.0 - y * y
    hxx = (x * x + 2.0) / 4.0 * (qy / px ** 7) ** 0.25
    hyy = (y * y + 2.0) / 4.0 * (px / qy ** 7) ** 0.25
    hxy = -(x * y / 4.0) * (px * qy) ** (-0.75)
    return np.array([[hxx, hxy], [hxy, hyy]])


def fourth_root_well_hessian_det(point: Sequence[float]) -> float:
    """Closed-form determinant (x^2 + y^2 + 2) / (8 [(1-x^2)(1-y^2)]^(3/2))."""
    x, y = float(point[0]), float(point[1])
    if not (abs(x) < 1.0 and abs(y) < 1.0):
        raise PointOutsideDomainError("determinant defined on the open box only")
    px = 1.0 - x * x
    qy = 1.0 - y * y
    return (x * x + y * y + 2.0) / (8.0 * (px * qy) ** 1.5)


def finite_difference_hessian(fn: Callable[[np.ndarray], np.ndarray],
                              point: Sequence[float]) -> np.ndarray:
    """Richardson-extrapolated central-difference Hessian at an off-grid point.

    Plain central differences at a step of 1e-3 leave O(step^2 f'''') residue,
    which the fourth-root well amplifies past 1e-5 near the corners of its
    domain; the two-step extrapolation removes it.
    """
    def plain(e: float) -> np.ndarray:
        x, y = float(point[0]), float(point[1])
        f = lambda a, b: float(fn(np.array([[a, b]]))[0])
        fxx = (f(x + e, y) - 2 * f(x, y) + f(x - e, y)) / e ** 2
        fyy = (f(x, y + e) - 2 * f(x, y) + f(x, y - e)) / e ** 2
        fxy = (f(x + e, y + e) - f(x + e, y - e)
               - f(x - e, y + e) + f(x - e, y - e)) / (4 * e ** 2)
        return np.array([[fxx, fxy], [fxy, fyy]])

    return (4.0 * plain(1e-3 / 2) - plain(1e-3)) / 3.0


def fourth_root_well_gradient(p: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(p)
    x, y = p[:, 0], p[:, 1]
    px = 1.0 - x * x
    qy = 1.0 - y * y
    gx = 0.5 * x * px ** (-0.75) * qy ** 0.25
    gy = 0.5 * y * qy ** (-0.75) * px ** 0.25
    return np.stack([gx, gy], axis=1)


def _halfsq2_star(s):
    return 0.5 * (s * s).sum(axis=1)


def _l1norm2_star(s):
    inside = (np.abs(s) <= 1.0 + _BOX_TOL).all(axis=1)
    return np.where(inside, 0.0, math.inf)


def _box_indicator2_star(s):
    return np.abs(s).sum(axis=1)


# ---------------------------------------------------------------------------
# registry

_G1 = grid_1d(-2.0, 2.0, 201)           # h = 0.02
_D1 = grid_1d(-3.0, 3.0, 241)           # h = 0.025, contains +-1 and 0.75
_G2 = grid_2d(-2.0, 2.0, 81)            # h = 0.05
_D2 = grid_2d(-3.0, 3.0, 121)           # h = 0.05, contains the +-1 kink slopes
_GW = grid_2d(-1.5, 1.5, 121)           # h = 0.025, tight box for the wells
_DW = grid_2d(-3.0, 3.0, 121)

_ALL_FALSE_BUT_CONVEX = _verdicts(
    convex_lsc=True, adequate=False, strongly_adequate=False,
    essentially_firmly_subdifferentiable=False,
    totally_convex_on_dom_subdiff=False, totally_convex_on_dom=False,
    essentially_strongly_convex=False, essentially_strictly_convex=False)

_ENTRIES = [
    CatalogEntry("halfsq", 1, _halfsq, _G1, _D1, _halfsq_star,
                 lambda p: p.copy(), _all_true()),
    CatalogEntry("abs", 1, _absval, _G1, _D1, _abs_star, None,
                 _ALL_FALSE_BUT_CONVEX),
    CatalogEntry("quartic", 1, _quartic, _G1, _D1, _quartic_star,
                 lambda p: 4.0 * p ** 3, _all_true()),
    CatalogEntry("exp", 1, _exp, _G1, _D1, _exp_star,
                 lambda p: np.exp(p), _all_true()),
    CatalogEntry("neg_entropy", 1, _neg_entropy, _G1, _D1, _neg_entropy_star,
                 None, _all_true()),
    CatalogEntry("affine", 1, _affine, _G1, _D1, _affine_star, None,
                 _ALL_FALSE_BUT_CONVEX),
    CatalogEntry("box_indicator", 1, _box_indicator, _G1, _D1,
                 _box_indicator_star, None, _ALL_FALSE_BUT_CONVEX),
    CatalogEntry("point_indicator", 1, _point_indicator, _G1, _D1,
                 _point_indicator_star, None, _all_true()),
    CatalogEntry("neg_halfsq", 1, _neg_halfsq, _G1, _D1, None, None,
                 _verdicts(convex_lsc=False, adequate=False,
                           strongly_adequate=False,
                           essentially_firmly_subdifferentiable=True,
                           totally_convex_on_dom_subdiff=True,
                           totally_convex_on_dom=False,
                           essentially_strongly_convex=True,
                           essentially_strictly_convex=True),
                 convex=False),
    CatalogEntry("double_well", 1, _double_well, _G1, _D1, _double_well_star,
                 None,
                 _verdicts(convex_lsc=False, adequate=False,
                           strongly_adequate=False,
                           essentially_firmly_subdifferentiable=False,
                           totally_convex_on_dom_subdiff=False,
                           totally_convex_on_dom=False,
                           essentially_strongly_convex=False,
                           essentially_strictly_convex=False),
                 convex=False),
    CatalogEntry("halfsq2", 2, _halfsq2, _G2, _D2, _halfsq2_star,
                 lambda p: p.copy(), _all_true()),
    CatalogEntry("l1norm2", 2, _l1norm2, _G2, _D2, _l1norm2_star, None,
                 _ALL_FALSE_BUT_CONVEX),
    CatalogEntry("fourth_root_well", 2, fourth_root_well, _GW, _DW, None,
                 fourth_root_well_gradient,
                 _verdicts(convex_lsc=True, adequate=True,
                           strongly_adequate=True,
                           essentially_firmly_subdifferentiable=True,
                           totally_convex_on_dom_subdiff=True,
                           totally_convex_on_dom=False,
                           essentially_strongly_convex=True,
                           essentially_strictly_convex=True)),
    CatalogEntry("sqrt_well", 2, sqrt_well, _GW, _DW, None, None,
                 _verdicts(convex_lsc=True, adequate=True,
                           strongly_adequate=True,
                           essentially_firmly_subdifferentiable=True,
                           totally_convex_on_dom_subdiff=False,
                           totally_convex_on_dom=False,
                           essentially_strongly_convex=True,
                           essentially_strictly_convex=True)),
    CatalogEntry("neg_halfsq2", 2, _neg_halfsq2, _G2, _D2, None, None,
                 _verdicts(convex_lsc=False, adequate=False,
                           strongly_adequate=False,
                           essentially_firmly_subdifferentiable=True,
                           totally_convex_on_dom_subdiff=True,
                           totally_convex_on_dom=False,
                           essentially_strongly_convex=True,
                           essentially_strictly_convex=True),
                 convex=False),
    CatalogEntry("box_indicator2", 2, _box_indicator2, _G2, _D2,
                 _box_indicator2_star, None, _ALL_FALSE_BUT_CONVEX),
]

_REGISTRY = {e.id: e for e in _ENTRIES}


def entries() -> list[CatalogEntry]:
    return list(_ENTRIES)


def entry(entry_id: str) -> CatalogEntry:
    try:
        return _REGISTRY[entry_id]
    except KeyError:
        raise KeyError(f"unknown catalog entry {entry_id!r}; "
                       f"known: {sorted(_REGISTRY)}") from None


# ---------------------------------------------------------------------------
# named constraint sets (2D masks and point clouds)

SET_NAMES = ("singleton", "pair", "segment", "circle", "square", "box",
             "disk", "half_plane", "hexagon", "annulus", "crescent",
             "two_point")

CONVEX_SET_NAMES = ("box", "disk", "half_plane", "hexagon")
NONCONVEX_SET_NAMES = ("annulus", "crescent", "two_point")


def make_set(name: str, grid: Grid) -> ConstraintSet:
    """Named 2D set snapped to ``grid``.

    ``circle`` is a 12-point cloud on exact lattice Pythagorean triples so
    every member has identical norm (the tie at the center tilt is exact).
    """
    if name not in SET_NAMES:
        raise KeyError(f"unknown set {name!r}; known: {SET_NAMES}")
    if grid.dim != 2:
        raise ValueError(f"named set {name!r} is 2D, the grid has dim {grid.dim}")
    pts = grid.points
    x, y = pts[:, 0], pts[:, 1]
    h = grid.max_spacing
    if name == "singleton":
        return ConstraintSet.from_points(grid, [(0.5, -0.5)], name)
    if name in ("pair", "two_point"):
        return ConstraintSet.from_points(grid, [(-1.0, 0.0), (1.0, 0.0)], name)
    if name == "segment":
        mask = (np.abs(y) <= h / 4) & (np.abs(x) <= 0.8 + h / 4)
        return ConstraintSet(grid, mask, name)
    if name == "circle":
        r = 15 * h
        triples = [(15, 0), (12, 9), (9, 12), (0, 15)]
        cloud = []
        for a, b in triples:
            for sa in (1, -1):
                for sb in (1, -1):
                    cloud.append((sa * a * h, sb * b * h))
        cloud = sorted(set(cloud))
        assert all(abs(math.hypot(px, py) - r) < 1e-12 for px, py in cloud)
        return ConstraintSet.from_points(grid, cloud, name)
    if name in ("square", "box"):
        mask = (np.abs(x) <= 0.75 + h / 4) & (np.abs(y) <= 0.75 + h / 4)
        return ConstraintSet(grid, mask, name)
    if name == "disk":
        mask = x * x + y * y <= 0.75 ** 2
        return ConstraintSet(grid, mask, name)
    if name == "half_plane":
        mask = x + y <= 0.3
        return ConstraintSet(grid, mask, name)
    if name == "hexagon":
        c = 0.8
        mask = ((np.abs(x) <= c) & (np.abs(y) <= 0.87 * c)
                & (np.abs(x) + np.abs(y) * 0.6 <= 1.1 * c))
        return ConstraintSet(grid, mask, name)
    if name == "annulus":
        r2 = x * x + y * y
        mask = (r2 >= 0.5 ** 2) & (r2 <= 1.0)
        return ConstraintSet(grid, mask, name)
    # the one name left is "crescent"
    outer = x * x + y * y <= 1.2 ** 2
    bite = (x - 0.5) ** 2 + y * y < 0.8 ** 2
    return ConstraintSet(grid, outer & ~bite, name)
