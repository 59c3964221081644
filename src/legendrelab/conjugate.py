"""Discrete Legendre-Fenchel conjugation on a dual grid.

Two routes compute ``f*(s) = max_x (<x, s> - f(x))`` over the primal grid:

* ``conjugate_brute`` evaluates the maximum directly (the reference oracle);
* ``conjugate_fast`` runs a separable max-plus transform, one pass per
  axis, composing two passes in 2D with a sign flip in between. Values
  agree with brute force to floating-point reassociation; the argmax takes
  the first maximizing index along each axis, as brute force does.

A small pass takes one broadcast maximum, O(n*m) for n primal and m dual
points on its axis. A large one finds the first maximizers that way only at
every 8th dual point and the last; each dual in between searches just the
primal window between its two coarse neighbours' first maximizers (the
first maximizer never decreases as s grows: the totally monotone matrices
of Aggarwal, Klawe, Moran, Shor and Wilber, 1987). A separation lemma makes
that exact in floating point: with e the rounding bound of one multiply and
one subtract, if the smallest primal step times the smallest dual step
exceeds 8e, every primal point outside a dual's window is strictly below a
window endpoint, so the window's first maximizer, value and trust bits are
those of the dense pass. The condition is checked on every pass, and a pass
failing it runs dense.

A dual point is *trusted* when some maximizer lies strictly inside the
primal grid; untrusted values are boundary-clamped truncation artifacts and
are excluded from downstream diagnostics. Trust reads interior maxima, so
the pass over x (x2 in 2D) runs on the interior primal points and then
joins the two edge points, one comparison each, bit for bit the whole-axis
pass. In 2D an interior first maximizer proves trust and one at the last
x1 index refutes it, so only the remaining *open* duals take an
interior-x1 pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import Grid, GridFunction
from .tolerances import DEFAULT_TOLS

_BRUTE_CHUNK = 256
# Temporary elements per max-plus block. At 128 KiB of float64 the block
# temporaries are recycled by malloc: steady-state 1D calls on a 201-point
# primal take no page faults, against about 300 at 1 << 16.
_MAXPLUS_BLOCK = 1 << 14
# The windowed max-plus search finds first maximizers densely at every
# _MAXPLUS_STRIDE-th dual point; passes of fewer than _MAXPLUS_WINDOWED_MIN
# rows * primal * dual elements stay on the dense loop.
_MAXPLUS_STRIDE = 8
_MAXPLUS_WINDOWED_MIN = 1 << 18
_U = 2.0 ** -53             # unit roundoff of float64
_ETA = 2.0 ** -1074         # bounds a product's absolute underflow error


@dataclass(frozen=True, eq=False)
class ConjugateResult:
    """Conjugate values on the dual grid plus maximizer bookkeeping."""

    dual: GridFunction
    trusted: np.ndarray   # bool per dual flat index
    argmax: np.ndarray    # primal flat index per dual flat index
    primal_grid: Grid

    @property
    def dual_grid(self) -> Grid:
        return self.dual.grid

    def trusted_interior(self) -> np.ndarray:
        """Trusted dual points whose dual-grid neighbors are all trusted."""
        g = self.dual_grid
        flat = np.arange(g.size)
        out = self.trusted & g.interior_flat
        for ax in range(g.dim):
            for k in (-1, 1):       # an edge point (neighbor -1) is already out
                out &= self.trusted[g.shift(flat, ax, k)]
        return out


def conjugate_value(f: GridFunction, s: Sequence[float]) -> tuple[float, int]:
    """Conjugate at a single dual point: (value, primal argmax flat index)."""
    vals = f.grid.pair(np.atleast_1d(s)) - f.flat
    arg = int(np.argmax(vals))
    return float(vals[arg]), arg


def conjugate_brute(f: GridFunction, dual_grid: Grid) -> ConjugateResult:
    """Direct maximum over all primal points, chunked over dual points."""
    fv = f.flat
    interior = f.grid.interior_flat
    duals = dual_grid.points
    m = dual_grid.size
    out = np.empty(m)
    arg = np.empty(m, dtype=np.int64)
    trusted = np.empty(m, dtype=bool)
    for lo in range(0, m, _BRUTE_CHUNK):
        hi = min(lo + _BRUTE_CHUNK, m)
        vals = f.grid.pair(duals[lo:hi]) - fv[None, :]
        best = vals.max(axis=1)
        out[lo:hi] = best
        arg[lo:hi] = vals.argmax(axis=1)
        ties = vals >= best[:, None]
        trusted[lo:hi] = (ties & interior[None, :]).any(axis=1)
    dual_fn = GridFunction(dual_grid, out.reshape(dual_grid.shape),
                           name=f.name + "*")
    return ConjugateResult(dual_fn, trusted, arg, f.grid)


def _dense_argmax(xs: np.ndarray, F: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """First-index argmax of ``ss[j] * xs[k] - F[r, k]`` over every k, in
    blocks of about ``_MAXPLUS_BLOCK`` scratch elements (at least one dual
    point per block); shaped (rows, len(ss))."""
    step = max(1, _MAXPLUS_BLOCK // F.size)
    return np.concatenate(
        [(np.multiply.outer(ss[lo:lo + step], xs) - F[:, None, :]).argmax(axis=2)
         for lo in range(0, ss.size, step)], axis=1)


def _separated(xs: np.ndarray, F: np.ndarray, ss: np.ndarray) -> bool:
    """Whether min dx * min ds > 8e, the separation lemma's condition (see
    ``_maxplus``), reckoned in Python floats. False for unsorted or repeated
    points, a -inf or nan in F, and whenever e overflows."""
    lo, hi = F.min(), F.max()
    if not lo > -np.inf:
        return False
    if hi == np.inf:
        hi = F.max(initial=lo, where=F < np.inf)
    f_max = max(abs(float(lo)), abs(float(hi)))
    with np.errstate(over="ignore", invalid="ignore"):
        ds = float(np.diff(ss).min(initial=np.inf))
        dx = float(np.diff(xs).min(initial=np.inf))
    s_max = float(np.abs(ss).max())
    x_max = float(np.abs(xs).max())
    e = _U * (2.0 * s_max * x_max + f_max) * (1.0 + 4.0 * _U) + _ETA
    return ds * dx > 8.0 * e


def _windowed_argmax(xs: np.ndarray, F: np.ndarray, ss: np.ndarray
                     ) -> np.ndarray:
    """``_dense_argmax`` at every ``_MAXPLUS_STRIDE``-th dual and the last;
    the duals between two of these coarse neighbours search only the primal
    window between the neighbours' first maximizers. Each window is read
    once for the duals it serves, padded to a power-of-two width w (shifted
    left where it would pass the last primal point); windows are grouped by
    w and run in blocks of about ``_MAXPLUS_BLOCK`` elements."""
    rows, n = F.shape
    m = ss.size
    coarse = np.append(np.arange(0, m - 1, _MAXPLUS_STRIDE), m - 1)
    known = _dense_argmax(xs, F, ss[coarse])
    fine = coarse[:-1, None] + np.arange(1, _MAXPLUS_STRIDE)  # per segment
    kept = fine < coarse[1:, None]       # the last segment may be shorter
    s_fine = ss[np.minimum(fine, m - 1)]
    seg = np.tile(np.arange(coarse.size - 1), rows)
    left = known[:, :-1].ravel()
    width = known[:, 1:].ravel() - left + 1
    base = np.repeat(np.arange(rows) * n, coarse.size - 1)
    Fflat = F.ravel()
    out = np.repeat(left[:, None], _MAXPLUS_STRIDE - 1, axis=1)
    exps = np.frexp(width - 1)[1]        # 2**exp >= width
    for e in np.unique(exps[width > 1]):
        sel = np.flatnonzero(exps == e)
        w = min(1 << int(e), n)
        start = np.minimum(left[sel], n - w)
        step = max(1, _MAXPLUS_BLOCK // (w * (_MAXPLUS_STRIDE - 1)))
        for lo in range(0, sel.size, step):
            blk = sel[lo:lo + step]
            st = start[lo:lo + step]
            idx = st[:, None] + np.arange(w)
            vals = (s_fine[seg[blk], :, None] * xs.take(idx)[:, None, :]
                    - Fflat.take(base[blk, None] + idx)[:, None, :])
            out[blk] = st[:, None] + vals.argmax(axis=2)
    arg = np.empty((rows, m), dtype=np.int64)
    arg[:, coarse] = known
    arg[:, fine[kept]] = out.reshape(rows, -1)[:, kept.ravel()]
    return arg


def _maxplus(xs: np.ndarray, F: np.ndarray, ss: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise max-plus product ``max_k (ss[j] * xs[k] - F[r, k])``.

    Returns (values, first-index argmax into xs), both shaped (rows, len(ss));
    the values are recomputed at the argmax. An empty primal slice gives
    values -inf and argmax -1. Passes of fewer than ``_MAXPLUS_WINDOWED_MIN``
    scratch elements, or failing the lemma below, run ``_dense_argmax``;
    the rest run ``_windowed_argmax``, which gives the same bits.

    Separation lemma. Let xs and ss be strictly increasing, v(s, k) =
    fl(fl(s * x_k) - F_k), u the unit roundoff and e = u (2 max|s| max|x| +
    max finite |F|)(1 + 4u), plus the multiply's underflow; every finite
    v(s, k) is within e of s x_k - F_k. Let a and b be the first maximizers
    at duals s_a < s < s_b. For k < a, v(s_a, k) < v(s_a, a), so the exact
    gap at s_a exceeds -2e and at s it exceeds -2e + (s - s_a)(x_a - x_k)
    >= -2e + min ds min dx; for k > b, v(s_b, k) <= v(s_b, b) likewise
    gives an exact gap at s above -2e + min ds min dx. When min dx min ds
    > 4e both exceed 2e, so v(s, k) < v(s, a) or < v(s, b) in floating
    point: a +inf F_k is -inf, below a finite endpoint, and a row of +inf
    has a = b = 0. The first maximizer at s lies in [a, b] and equals the
    first maximizer of that window, and of any window holding it; the
    values are recomputed there, so they match too. ``_separated`` checks
    8e, the factor 2 covering the roundings of the check itself.
    """
    rows = F.shape[0]
    if F.size == 0:
        return (np.full((rows, ss.size), -np.inf),
                np.full((rows, ss.size), -1, dtype=np.int64))
    if F.size * ss.size >= _MAXPLUS_WINDOWED_MIN and _separated(xs, F, ss):
        arg = _windowed_argmax(xs, F, ss)
    else:
        arg = _dense_argmax(xs, F, ss)
    return ss * xs[arg] - np.take_along_axis(F, arg, axis=1), arg


def _maxplus_joined(xs: np.ndarray, F: np.ndarray, ss: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_maxplus`` over all of xs, bit for bit, from the interior points
    xs[1:-1] and the two edge points. The first maximizer is 0 where v(x0)
    >= max(interior, v(x_last)), else the interior one where interior >=
    v(x_last), else the last; the value is taken there, zero signs too.
    Returns the whole-axis (values, first argmax) and the interior values."""
    iv, ia = _maxplus(xs[1:-1], np.ascontiguousarray(F[:, 1:-1]), ss)
    edge = ss * xs[-1] - F[:, -1:]
    win = edge > iv
    vals = np.where(win, edge, iv)
    arg = np.where(win, xs.size - 1, ia + 1)
    edge = ss * xs[0] - F[:, :1]
    win = edge >= vals
    np.copyto(vals, edge, where=win)
    arg[win] = 0
    return vals, arg, iv


def conjugate_fast(f: GridFunction, dual_grid: Grid) -> ConjugateResult:
    """Separable max-plus transform; matches conjugate_brute to ~1e-12 relative.

    2D runs one pass per axis with a sign flip in between. A dual point is
    trusted exactly when the interior maximum reaches the full maximum. The
    pass over x (x2 in 2D) is ``_maxplus_joined``, which also returns the
    interior maxima, so in 1D trust is one comparison per dual. In 2D a first
    maximizer interior on both axes proves trust, and one at the last x1
    index refutes it: no earlier index ties it, and interior maxima never
    exceed full ones. Every other dual is *open*; only the ``s2`` columns
    holding one take the interior-x1 pass, over the first pass's interior-x2
    maxima, which writes trust for the open duals alone.
    """
    n = f.grid.counts
    if f.grid.dim == 1:
        vals, arg, iv = _maxplus_joined(f.grid.axes[0], f.flat[None, :],
                                        dual_grid.axes[0])
        vals, arg, trusted = vals[0], arg[0], iv[0] >= vals[0]
    elif f.grid.dim == 2:
        x1, x2 = f.grid.axes
        s1, s2 = dual_grid.axes
        g, a2p, g_int = _maxplus_joined(x2, f.values, s2)   # (n1, m2)
        v, a1 = _maxplus(x1, -g.T, s1)                      # (m2, m1)
        a2 = a2p[a1, np.arange(s2.size)[:, None]]           # (m2, m1)
        trusted = (a1 > 0) & (a1 < n[0] - 1) & (a2 > 0) & (a2 < n[1] - 1)
        open_ = ~trusted & (a1 < n[0] - 1)
        cols = np.flatnonzero(open_.any(axis=1))
        if cols.size:
            iv, _ = _maxplus(x1[1:-1], -g_int[1:-1, cols].T, s1)
            trusted[cols] |= open_[cols] & (iv >= v[cols])
        trusted = trusted.T.ravel()
        arg = (a1 * n[1] + a2).T.ravel()
        vals = v.T.ravel()
    else:
        raise NotImplementedError("conjugate_fast supports dim 1 and 2")
    dual_fn = GridFunction(dual_grid, vals.reshape(dual_grid.shape),
                           name=f.name + "*")
    return ConjugateResult(dual_fn, trusted, arg, f.grid)


@dataclass(frozen=True, eq=False)
class BiconjugateResult:
    """f** on the primal grid with the convexity-consistency verdict."""

    function: GridFunction
    trusted: np.ndarray
    consistent: bool          # f** == f on trusted domain points, up to tol
    tol_bicon: float
    max_gap: float            # max |f** - f| over trusted domain points
    star: ConjugateResult     # the first conjugate f* on the dual grid


def biconjugate(f: GridFunction, dual_grid: Grid) -> BiconjugateResult:
    """Double conjugation f**; flags whether f was already convex lsc."""
    star = conjugate_fast(f, dual_grid)
    second = conjugate_fast(star.dual, f.grid)
    scale = float(np.abs(f.flat[f.domain_flat]).max(initial=0.0))
    tol = DEFAULT_TOLS.bicon(f.grid.max_spacing, f.lipschitz_hat(), scale)
    compare = second.trusted & f.domain_flat
    if compare.any():
        max_gap = float(np.abs(second.dual.flat[compare] - f.flat[compare]).max())
    else:
        max_gap = 0.0
    fn = GridFunction(f.grid, second.dual.values, name=f.name + "**")
    return BiconjugateResult(fn, second.trusted, bool(max_gap <= tol), tol,
                             max_gap, star)
