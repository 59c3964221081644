import os
from pathlib import Path

import numpy as np
import pytest

import legendrelab as ll
from legendrelab.catalog import entries
from legendrelab.moduli import Modulus

PACKAGE_ROOT = str(Path(ll.__file__).resolve().parent.parent)


def cli_env() -> dict:
    """Environment for ``python -m legendrelab`` subprocesses: the imported
    package's root leads PYTHONPATH, so they run from a plain checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def grid_fine_1d():
    return ll.grid_1d(-2.0, 2.0, 201)


@pytest.fixture
def dual_fine_1d():
    return ll.grid_1d(-3.0, 3.0, 241)


@pytest.fixture
def grid_2d_small():
    return ll.grid_2d(-2.0, 2.0, 41)


@pytest.fixture
def halfsq_1d(grid_fine_1d):
    return ll.build_grid_function(grid_fine_1d, lambda p: 0.5 * p[:, 0] ** 2,
                                  name="halfsq", vectorized=True)


@pytest.fixture
def absval_1d(grid_fine_1d):
    return ll.build_grid_function(grid_fine_1d, lambda p: np.abs(p[:, 0]),
                                  name="abs", vectorized=True)


def random_convex_2d(rng, grid, strongly=False, n_planes=8,
                     name="random_convex2"):
    """Pointwise maximum of random affine functions, optionally plus a
    quadratic bowl."""
    pts = grid.points
    slopes = rng.uniform(-2.0, 2.0, size=(n_planes, grid.dim))
    offsets = rng.uniform(-1.0, 1.0, size=n_planes)
    vals = (pts @ slopes.T + offsets[None, :]).max(axis=1)
    if strongly:
        mu = rng.uniform(0.2, 2.0)
        vals = vals + 0.5 * mu * (pts * pts).sum(axis=1)
    return ll.GridFunction(grid, vals.reshape(grid.shape), name=name)


def brute_conjugate_values(f, dual_grid):
    """Independent conjugation oracle: plain loop over dual points."""
    out = np.empty(dual_grid.size)
    for j in range(dual_grid.size):
        out[j] = np.max(f.grid.points @ dual_grid.point(j) - f.flat)
    return out


def convex_entries():
    """The catalog entries marked convex."""
    return [e for e in entries() if e.convex]


def finite_mask(m: Modulus) -> np.ndarray:
    """Radii of a modulus curve whose shell has a member and a finite value."""
    return (~m.empty) & np.isfinite(m.values)


def restricted(m: Modulus, min_radius: float) -> Modulus:
    """The curve ``m`` kept at radii of at least ``min_radius``."""
    keep = m.radii >= min_radius
    return Modulus(m.kind, m.center, m.radii[keep], m.values[keep],
                   m.empty[keep], m.witnesses[keep], m.norm, m.tilt, m.spacing)
