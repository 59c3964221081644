"""Seeded random grid functions for oracle comparisons and property sweeps."""

from __future__ import annotations

import math

import numpy as np

from .grids import Grid, GridFunction


def random_grid_function(rng: np.random.Generator, grid: Grid,
                         inf_frac: float = 0.10, name: str = "random"
                         ) -> GridFunction:
    """Rough mixed-sign values with a fraction of +inf holes (never all)."""
    n = grid.size
    vals = np.cumsum(rng.normal(size=n)) * math.sqrt(grid.max_spacing)
    vals += rng.normal(scale=0.5, size=n)
    if inf_frac > 0:
        k = min(int(round(inf_frac * n)), n - 1)
        holes = rng.choice(n, size=k, replace=False)
        vals[holes] = math.inf
    return GridFunction(grid, vals.reshape(grid.shape), name=name)


def random_convex_1d(rng: np.random.Generator, grid: Grid,
                     strongly: bool = False, boxed: bool = False,
                     name: str = "random_convex") -> GridFunction:
    """Piecewise-linear convex from sorted slopes, optionally plus a
    quadratic term and/or an indicator truncation."""
    n = grid.counts[0]
    h = grid.spacing[0]
    slopes = np.sort(rng.uniform(-4.0, 4.0, size=n - 1))
    vals = np.concatenate([[0.0], np.cumsum(slopes) * h])
    vals += rng.uniform(-1.0, 1.0)
    x = grid.axes[0]
    if strongly:
        mu = rng.uniform(0.2, 2.0)
        vals = vals + 0.5 * mu * x * x
    if boxed:
        lo, hi = np.sort(rng.uniform(grid.bounds[0][0], grid.bounds[0][1], size=2))
        if hi - lo < 4 * h:
            hi = min(lo + 4 * h, grid.bounds[0][1])
        vals = np.where((x >= lo) & (x <= hi), vals, math.inf)
    return GridFunction(grid, vals, name=name)
