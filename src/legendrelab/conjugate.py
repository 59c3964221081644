"""Discrete Legendre-Fenchel conjugation on a dual grid.

Two routes compute ``f*(s) = max_x (<x, s> - f(x))`` over the primal grid:

* ``conjugate_brute`` evaluates the maximum directly (the reference oracle);
* ``conjugate_fast`` runs a separable max-plus transform: one broadcast
  maximum per axis, O(n*m) for n primal and m dual points on that axis,
  composing two passes in 2D with a sign flip in between. Values agree
  with brute force to floating-point reassociation; the argmax takes the
  first maximizing index along each axis, as brute force does.

A dual point is *trusted* when some maximizer lies strictly inside the
primal grid; untrusted values are boundary-clamped truncation artifacts and
are excluded from downstream diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import Grid, GridFunction
from .tolerances import DEFAULT_TOLS, Tolerances

_BRUTE_CHUNK = 256
_MAXPLUS_BLOCK = 1 << 16   # scratch elements per max-plus block


@dataclass(frozen=True, eq=False)
class ConjugateResult:
    """Conjugate values on the dual grid plus maximizer bookkeeping."""

    dual: GridFunction
    trusted: np.ndarray   # bool per dual flat index
    argmax: np.ndarray    # primal flat index per dual flat index
    primal_grid: Grid
    method: str = "fast"

    @property
    def dual_grid(self) -> Grid:
        return self.dual.grid

    def trusted_interior(self) -> np.ndarray:
        """Trusted dual points whose dual-grid neighbors are all trusted."""
        g = self.dual_grid
        shaped = self.trusted.reshape(g.shape)
        out = shaped & g.interior_flat.reshape(g.shape)
        for ax in range(g.dim):
            lo = np.ones(g.shape, dtype=bool)
            hi = np.ones(g.shape, dtype=bool)
            sl_lo = [slice(None)] * g.dim
            sl_hi = [slice(None)] * g.dim
            sl_lo[ax] = slice(1, None)
            sl_hi[ax] = slice(None, -1)
            lo[tuple(sl_lo)] = np.take(shaped, range(0, g.shape[ax] - 1), axis=ax)
            hi[tuple(sl_hi)] = np.take(shaped, range(1, g.shape[ax]), axis=ax)
            out &= lo & hi
        return out.ravel()


def conjugate_value(f: GridFunction, s: Sequence[float]) -> tuple[float, int]:
    """Conjugate at a single dual point: (value, primal argmax flat index)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    vals = f.grid.points @ s - f.flat
    arg = int(np.argmax(vals))
    return float(vals[arg]), arg


def conjugate_brute(f: GridFunction, dual_grid: Grid) -> ConjugateResult:
    """Direct maximum over all primal points, chunked over dual points."""
    pts = f.grid.points
    fv = f.flat
    interior = f.grid.interior_flat
    duals = dual_grid.points
    m = dual_grid.size
    out = np.empty(m)
    arg = np.empty(m, dtype=np.int64)
    trusted = np.empty(m, dtype=bool)
    for lo in range(0, m, _BRUTE_CHUNK):
        hi = min(lo + _BRUTE_CHUNK, m)
        vals = duals[lo:hi] @ pts.T - fv[None, :]
        best = vals.max(axis=1)
        out[lo:hi] = best
        arg[lo:hi] = vals.argmax(axis=1)
        ties = vals >= best[:, None]
        trusted[lo:hi] = (ties & interior[None, :]).any(axis=1)
    dual_fn = GridFunction(dual_grid, out.reshape(dual_grid.shape),
                           name=f.name + "*")
    return ConjugateResult(dual_fn, trusted, arg, f.grid, method="brute")


def _maxplus(xs: np.ndarray, F: np.ndarray, ss: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise max-plus product ``max_k (ss[j] * xs[k] - F[r, k])``.

    Returns (values, first-index argmax into xs), both shaped (rows, len(ss)).
    Dual points are processed in blocks of about ``_MAXPLUS_BLOCK`` scratch
    elements. An empty primal slice gives values -inf and argmax -1.
    """
    rows = F.shape[0]
    if F.size == 0:
        return (np.full((rows, ss.size), -np.inf),
                np.full((rows, ss.size), -1, dtype=np.int64))
    step = max(1, _MAXPLUS_BLOCK // F.size)
    arg = np.concatenate(
        [(np.multiply.outer(ss[lo:lo + step], xs) - F[:, None, :]).argmax(axis=2)
         for lo in range(0, ss.size, step)], axis=1)
    return ss * xs[arg] - np.take_along_axis(F, arg, axis=1), arg


def conjugate_fast(f: GridFunction, dual_grid: Grid) -> ConjugateResult:
    """Separable max-plus transform; matches conjugate_brute to ~1e-12 relative.

    2D runs one pass per axis with a sign flip in between. Trust is decided
    by re-running the passes on interior primal points only: a dual point is
    trusted exactly when the interior maximum reaches the full maximum.
    """
    if f.grid.dim == 1:
        xs = f.grid.axes[0]
        ss = dual_grid.axes[0]
        fv = f.flat[None, :]
        vals, arg = _maxplus(xs, fv, ss)
        iv, _ = _maxplus(xs[1:-1], fv[:, 1:-1], ss)
        trusted = iv >= vals
        vals, arg, trusted = vals[0], arg[0], trusted[0]
    elif f.grid.dim == 2:
        x1, x2 = f.grid.axes
        s1, s2 = dual_grid.axes
        fv = f.values
        g, a2 = _maxplus(x2, fv, s2)                  # (n1, m2)
        v, a1 = _maxplus(x1, -g.T, s1)                # (m2, m1)
        g_int, _ = _maxplus(x2[1:-1], fv[1:-1, 1:-1], s2)
        iv, _ = _maxplus(x1[1:-1], -g_int.T, s1)
        trusted = (iv >= v).T.ravel()
        cols = np.arange(s2.size)[:, None]
        arg = (a1 * f.grid.counts[1] + a2[a1, cols]).T.ravel()
        vals = v.T.ravel()
    else:
        raise NotImplementedError("conjugate_fast supports dim 1 and 2")
    dual_fn = GridFunction(dual_grid, vals.reshape(dual_grid.shape),
                           name=f.name + "*")
    return ConjugateResult(dual_fn, trusted, arg, f.grid, method="fast")


def conjugate(f: GridFunction, dual_grid: Grid, method: str = "fast") -> ConjugateResult:
    if method == "fast":
        return conjugate_fast(f, dual_grid)
    if method == "brute":
        return conjugate_brute(f, dual_grid)
    raise ValueError(f"unknown conjugation method {method!r}")


@dataclass(frozen=True, eq=False)
class BiconjugateResult:
    """f** on the primal grid with the convexity-consistency verdict."""

    function: GridFunction
    trusted: np.ndarray
    consistent: bool          # f** == f on trusted domain points, up to tol
    tol_bicon: float
    max_gap: float            # max |f** - f| over trusted domain points
    star: ConjugateResult     # the first conjugate f* on the dual grid


def bicon_tolerance(f: GridFunction, tols: Tolerances = DEFAULT_TOLS) -> float:
    """First-order conjugation error bound: 4 * h_max * Lipschitz estimate."""
    scale = float(np.abs(f.flat[f.domain_flat]).max(initial=0.0))
    floor = tols.eps_fp * (1.0 + scale)
    return max(tols.bicon_c * f.grid.max_spacing * f.lipschitz_hat(), floor)


def biconjugate(f: GridFunction, dual_grid: Grid,
                tols: Tolerances = DEFAULT_TOLS,
                method: str = "fast") -> BiconjugateResult:
    """Double conjugation f**; flags whether f was already convex lsc."""
    star = conjugate(f, dual_grid, method=method)
    second = conjugate(star.dual, f.grid, method=method)
    tol = bicon_tolerance(f, tols)
    compare = second.trusted & f.domain_flat
    if compare.any():
        max_gap = float(np.abs(second.dual.flat[compare] - f.flat[compare]).max())
    else:
        max_gap = 0.0
    fn = GridFunction(f.grid, second.dual.values, name=f.name + "**")
    return BiconjugateResult(fn, second.trusted, bool(max_gap <= tol), tol,
                             max_gap, star)
