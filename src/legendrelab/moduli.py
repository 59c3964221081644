"""Shell-infimum moduli: firm subdifferentiability, total convexity,
well-posedness of tilted minimization, and their convex-envelope
certificates.

Each modulus samples, per shell radius t, the infimum of a gap over the
discrete shell about a base point. A function of t belongs to the forcing
class when its lower convex envelope through the origin stays above the
positivity floor ``delta0(t)`` at every sampled radius; the certificate
decides this from the samples and the least chord slope through the
origin, without building the envelope.

One row core serves every kind: it takes R rows (base points for total
convexity, (x, s) pairs for firm, tilts for well-posedness), computes
their gaps, ranks the ladders of all rows with one gather of the band
stencil and one row-wise stable argsort, takes every shell minimum with
one ``reduceat`` and decides every certificate in one vectorized pass.
The one-curve functions are one-row calls of it; ``firm_moduli``,
``total_convexity_moduli`` and ``wellposedness_moduli`` take many rows
(``classify``'s samples) in blocks of ``_ROW_BLOCK`` grid points: a loop
reads rows as they are computed; its ``break`` ends the computation at
that block. The witness searches of ``projections`` read the tilts of
each probe stage the same way, as member-set rows in larger blocks of
their own. Every pairing is one ``Grid.pair``, which rounds an entry
alike whatever the batch, and each distance one ``norm.length(points -
point)``, so a row's values are the bits a call of its own gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (InfeasibleProblemError, InsufficientDataError,
                     NotASubgradientError, PointOutsideDomainError)
from .grids import (Grid, GridFunction, NormChoice, ShellLadders, _origins,
                    _ray_stencil, _windows, shell_ladder)
from .subdiff import tau_sub
from .tolerances import DEFAULT_TOLS


@dataclass(frozen=True, eq=False)
class Modulus:
    """Sampled radius -> shell-infimum curve about a base point."""

    kind: str                      # "firm" | "total" | "wellposed"
    center: int                    # primal flat index
    radii: np.ndarray              # strictly increasing, > 0
    values: np.ndarray             # gap infima; +inf where no usable member
    empty: np.ndarray              # bool per radius: shell has no members
    witnesses: np.ndarray          # flat index achieving the infimum, -1 if none
    norm: NormChoice
    tilt: tuple[float, ...] | None = None
    spacing: float = 0.0           # grid step of the samples; 0 if unknown

    def finite_mask(self) -> np.ndarray:
        return (~self.empty) & np.isfinite(self.values)

    def restricted(self, min_radius: float) -> "Modulus":
        keep = self.radii >= min_radius
        return Modulus(self.kind, self.center, self.radii[keep],
                       self.values[keep], self.empty[keep],
                       self.witnesses[keep], self.norm, self.tilt,
                       self.spacing)


@dataclass(frozen=True)
class Gamma0Certificate:
    """Positivity verdict of the lower convex envelope through (0, 0),
    with a sampled radius at which the envelope fails (None if positive)."""

    positive: bool
    failure_radius: float | None
    n_finite: int
    eps: float


def _tie_cluster(f: GridFunction, values: np.ndarray, tilts: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of an (R, m) table of tilted values (row r tilted by
    ``tilts[r]``): its minimum (+inf if m = 0), the level within the tie
    slack of that minimum, and, over the whole table flattened, the
    entries at or below their row's level (ascending, so row after row)."""
    mval = values.min(axis=1, initial=math.inf)
    level = mval + DEFAULT_TOLS.tie_slack(mval, np.abs(tilts).sum(axis=1),
                                          f.grid.bounds)
    return mval, level, (values <= level[:, None]).ravel().nonzero()[0]


def _edge_descent(grid: Grid, values: np.ndarray, cluster: np.ndarray,
                  level: float) -> bool:
    """Whether some cluster member on the grid edge has its inward
    neighbor above ``level`` (the objective descends off the grid)."""
    for ax in range(grid.dim):
        down, up = grid.shift(cluster, ax, -1), grid.shift(cluster, ax, 1)
        inward = np.maximum(down, up)[np.minimum(down, up) < 0]
        if (values[inward] > level).any():
            return True
    return False


# Rows per block of the row core: as many as fit in this many grid points,
# so a 201-point 1D grid takes 81 rows a block and a 121^2 grid one.
_ROW_BLOCK = 1 << 14


def _by_blocks(grid: Grid, n_rows: int,
               evaluate: Callable[[slice], tuple[list, list]],
               block: int) -> Iterator[tuple]:
    """The (curve, verdict) rows ``evaluate`` returns for consecutive slices
    of ``n_rows`` rows, ``block`` grid points' worth of rows a slice. A
    slice is computed when its first row is read, so a loop that breaks
    ends the computation at the end of that slice."""
    size = max(1, block // grid.size)
    for lo in range(0, n_rows, size):
        yield from zip(*evaluate(slice(lo, lo + size)))


_PAD = np.array([math.inf])


def _shell_minima(vals: np.ndarray, ladder: ShellLadders
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per segment of the ladders (every row's first segment included): the
    least gap over its members, whether it has none, and the first member
    attaining a finite least gap (-1 if none), as one grouped pass over the
    members; ``vals[i]`` is the gap of the table entry ``ladder.members[i]``."""
    starts = ladder.starts[:-1]
    sizes = ladder.starts[1:] - starts
    empty = sizes == 0
    if empty.all():
        return (np.full(starts.size, math.inf), empty,
                np.full(starts.size, -1, dtype=np.int64))
    # reduceat needs every start to name an element, so the members get
    # one neutral pad for empty shells at the end of the ladder
    seg_min = np.minimum.reduceat(np.concatenate((vals, _PAD)), starts)
    hits = (vals == seg_min.repeat(sizes)).nonzero()[0]
    # the first hit at or past each start: inside the shell unless it is empty
    first = hits[np.minimum(hits.searchsorted(starts), hits.size - 1)]
    values = np.where(empty, math.inf, vals[first])
    witnesses = np.where(np.isfinite(values), ladder.members[first], np.int64(-1))
    return values, empty, witnesses


def _explicit_ladders(grid: Grid, centers: np.ndarray, norm: NormChoice,
                      radii: Sequence[float],
                      within: np.ndarray | None = None) -> ShellLadders:
    """Closed shells ``|d - t| <= h/2, d > 0`` at the given radii about each
    center, with h the largest axis spacing, in the layout of
    ``ShellLadders`` (the first segment of a row is empty). The radii must
    be finite, positive and strictly increasing (ValueError otherwise): a
    curve's first sample is its smallest radius. An empty shell is a
    reported state, not an error."""
    ts = np.array(radii, dtype=float)
    if not (((0.0 < ts) & (ts < math.inf)).all() and (np.diff(ts) > 0).all()):
        raise ValueError("radii must be finite, positive and strictly "
                         f"increasing, got {ts.tolist()}")
    points = grid.points if within is None else grid.points[within]
    # one distance per (center, point), each row norm.length(points - center)
    d = norm.length(points - grid.points[centers][:, None, :])[:, None, :]
    rows, k, col = ((np.abs(d - ts[:, None]) <= grid.max_spacing / 2.0)
                    & (d > 0)).nonzero()
    starts = np.zeros((ts.size + 1) * centers.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows * (ts.size + 1) + k + 1,
                          minlength=starts.size - 1), out=starts[1:])
    return ShellLadders(ts, col + points.shape[0] * rows, starts,
                        np.full(centers.size, ts.size))


def _certify_rows(radii: np.ndarray, values: np.ndarray, empty: np.ndarray,
                  min_radius: float) -> list[tuple[int, bool, float]]:
    """``certify_gamma0`` of every row of (R, W) samples at ``radii``, over
    the finite ones at radii of at least ``min_radius``: per row the sample
    count, the verdict and the failure radius (meaningless where positive
    or without samples)."""
    sel = ~empty & np.isfinite(values) & (radii >= min_radius)
    if not sel.any():
        return [(0, False, math.nan)] * len(values)
    low = sel & ~(values > DEFAULT_TOLS.delta0(radii))
    first = sel.argmax(axis=1)
    # see certify_gamma0: with no sample at or below the floor (so also the
    # first, at t0), the least chord from the origin at t0 decides; the
    # sample at t0 stays out of the chords
    ratio = np.where(sel, values / radii, math.inf)
    ratio[np.arange(len(values)), first] = math.inf
    t0 = radii[first]
    out = []
    for n, fails, t, chord, fail in zip(
            sel.sum(axis=1).tolist(), low.any(axis=1).tolist(), t0.tolist(),
            (t0 * ratio.min(axis=1)).tolist(), radii[low.argmax(axis=1)].tolist()):
        positive = not fails and chord > DEFAULT_TOLS.delta0(t)
        out.append((n, positive, fail if fails else t))
    return out


def _verdicts(radii: np.ndarray, values: np.ndarray, empty: np.ndarray,
              spacing: float) -> list[tuple[bool, Gamma0Certificate | None, str]]:
    """``certification_verdict`` of every row of (R, W) samples at
    ``radii`` taken at grid step ``spacing`` (0 if unknown)."""
    cut = DEFAULT_TOLS.cert_min_radius(spacing) if spacing > 0 else -math.inf
    return [(True, None, "vacuous: no domain point in any usable shell")
            if n == 0 else
            (pos, Gamma0Certificate(pos, None if pos else fail, n,
                                    DEFAULT_TOLS.eps_fp), "")
            for n, pos, fail in _certify_rows(radii, values, empty, cut)]


def _curve_rows(kind: str, grid: Grid, centers: np.ndarray, norm: NormChoice,
                radii: Sequence[float] | None, within: np.ndarray | None,
                table: np.ndarray, level: np.ndarray | None,
                tilts: list[tuple[float, ...]] | None = None
                ) -> tuple[list[Modulus], list[tuple]]:
    """Ladders, shell minima and certificates of every row at once. Row r
    takes the gaps ``table[r] - level[r]`` (``table[r]`` without a level)
    over the shells about ``centers[r]``; the columns of ``table`` are
    ``within`` (every grid point if None). Returns each row's curve and its
    ``certification_verdict``."""
    lad = (shell_ladder(grid, centers, norm, within) if radii is None else
           _explicit_ladders(grid, centers, norm, radii, within))
    if level is not None:
        table = table - level[:, None]
    values, empty, wit = _shell_minima(table.ravel()[lad.members], lad)
    # the witnesses are table entries: back to grid points
    col = wit % table.shape[1]
    wit = np.where(wit >= 0, col if within is None else within[col], wit)
    # drop each row's first segment, the points closer than any radius
    values = values.reshape(centers.size, -1)[:, 1:]
    empty = empty.reshape(centers.size, -1)[:, 1:]
    wit = wit.reshape(centers.size, -1)[:, 1:]
    h = grid.max_spacing
    tilts = tilts or [None] * centers.size
    mods = [Modulus(kind, c, lad.radii[:k], values[r, :k], empty[r, :k],
                    wit[r, :k], norm, tilts[r], h)
            for r, (c, k) in enumerate(zip(centers.tolist(), lad.shells.tolist()))]
    return mods, _verdicts(lad.radii, values, empty, h)


def _tilts(tilts: Sequence[Sequence[float]]) -> np.ndarray:
    """The tilts as the rows of an (R, dim) float array."""
    return np.array(tilts, dtype=float).reshape(len(tilts), -1)


def _firm_rows(f: GridFunction, points: Sequence[int],
               tilts: Sequence[Sequence[float]], norm: NormChoice,
               radii: Sequence[float] | None = None
               ) -> tuple[list[Modulus], list[tuple]]:
    """Firm curves and verdicts of (x, s) pairs (see ``firm_modulus``); the
    first pair in input order that is not a subgradient pair raises."""
    grid = f.grid
    xs = np.array([int(x) for x in points], dtype=np.int64)
    ss = _tilts(tilts)
    fx = f.flat[xs]
    tilted = f.tilted(ss)
    # f*(s) is minus the tilted minimum
    gap = fx - tilted.min(axis=1) - grid.pair(ss, xs)
    for x, v, gp, t in zip(xs.tolist(), fx, gap, tau_sub(f, xs, ss, norm)):
        if not np.isfinite(v):
            raise PointOutsideDomainError(f"f is +inf at flat index {x}")
        if gp > t:
            raise NotASubgradientError(
                f"gap {gp:.3g} exceeds threshold {t:.3g} at flat index {x}")
    return _curve_rows("firm", grid, xs, norm, radii, None, tilted,
                       tilted[np.arange(xs.size), xs], list(map(tuple, ss.tolist())))


def _total_rows(f: GridFunction, points: Sequence[int], norm: NormChoice,
                radii: Sequence[float] | None = None
                ) -> tuple[list[Modulus], list[tuple]]:
    """Total-convexity curves and verdicts about base points (see
    ``total_convexity_modulus``); the first one outside dom f raises."""
    grid = f.grid
    n, dim = grid.size, grid.dim
    xs = np.array([int(x) for x in points], dtype=np.int64)
    fv = f.flat
    fx = fv[xs]
    for x, v in zip(xs.tolist(), fx):
        if not np.isfinite(v):
            raise PointOutsideDomainError(f"f is +inf at flat index {x}")
    k_dd = DEFAULT_TOLS.k_dd
    st = _ray_stencil(grid, norm, k_dd)
    origin = _origins(grid, xs)
    rows = np.arange(xs.size)
    g = st.g[origin].reshape(-1, n)
    step_len = st.step_len[origin].reshape(-1, n)

    # ray quotients over the first k_dd multiples of the primitive step, read
    # from f laid on the lattice about each base point: off the grid and off
    # the lattice (the pad slot) read +inf, so neither is admissible nor a
    # finite quotient
    lattice = np.full((xs.size, st.slots), math.inf)
    lat = lattice[:, :-1].reshape(-1, *(2 * c - 1 for c in grid.counts))
    _windows(lat, grid, writeable=True)[(rows, *origin)] = f.values
    hops = st.hops[(slice(None), *origin)].reshape(k_dd, -1, n)
    hops += (st.slots * rows[:, None]).astype(hops.dtype)
    vals = lattice.ravel()[hops]
    ks = np.arange(1, k_dd + 1)[:, None, None]
    adm = np.isfinite(vals)
    quot = (vals - fx[:, None]) / (ks * step_len)

    # reduce over k with k leading a 2D array: numpy is slow on (k, R, n)
    closer_ray = (adm & (ks < np.minimum(g, k_dd + 1))).reshape(k_dd, -1).any(axis=0)
    ray_ok = (g >= 2) & closer_ray.reshape(-1, n)
    fprime_ray = quot.reshape(k_dd, -1).min(axis=0).reshape(-1, n)
    with np.errstate(invalid="ignore"):     # inf - inf where a step is not admissible
        fprime_ray = np.where(adm[0] & adm[1],
                              np.minimum(fprime_ray, 2.0 * quot[0] - quot[1]),
                              fprime_ray)

    # per-axis signed quotients q[axis][sign] and admissible-step counts
    # (sign 0 -> +, 1 -> -): the ray of the neighbour base + sign e_axis is
    # the axis itself (inf and no admissible step where that neighbour is
    # off the grid; its lookup reads the row's entry 0 and is masked)
    nbrs = np.moveaxis(np.array([[grid.shift(xs, ax, k) for k in (1, -1)]
                                 for ax in range(dim)]), -1, 0)
    on_grid = nbrs >= 0
    at = np.maximum(nbrs, 0) + n * rows[:, None, None]
    axis_q = np.where(on_grid, fprime_ray.ravel()[at], math.inf)
    axis_cnt = np.where(on_grid, adm.reshape(k_dd, -1)[:, at].sum(axis=0), 0)

    # axis decomposition: the offset's component along each axis picks that
    # axis's quotient by sign, so every term is a per-axis vector broadcast
    # over the grid. numpy sums a short last axis from +0.0 in axis order,
    # so adding the terms that way gives the bits of the per-offset sum.
    decomp, n_axes, single_cnt, all_ok = 0.0, 0, 0, True
    for ax in range(dim):
        shape = [xs.size] + [1] * dim
        shape[ax + 1] = grid.counts[ax]
        rel = np.arange(1 - grid.counts[ax], 1) + origin[ax][:, None]
        neg, needed = rel < 0, rel != 0
        q, cnt, opposite = (np.where(neg, t[:, ax, 1 - j:2 - j], t[:, ax, j:j + 1])
                            for t, j in ((axis_q, 0), (axis_cnt, 0), (axis_cnt, 1)))
        q_safe = np.where(needed & np.isfinite(q), q, 0.0)
        decomp = decomp + (np.abs(rel) * grid.spacing[ax] * q_safe).reshape(shape)
        n_axes = n_axes + needed.reshape(shape)
        single_cnt = single_cnt + np.where(needed, cnt, 0).reshape(shape)
        all_ok = all_ok & (~needed | ((cnt >= 2) & (opposite >= 1))).reshape(shape)
    dec_ok = np.where(n_axes == 1, single_cnt >= 2, all_ok) & (n_axes >= 1)

    dist = norm.length(grid.points - grid.points[xs][:, None, :])
    dist_safe = np.where(g == 0, 1.0, dist)
    bound_ray = np.where(ray_ok, dist_safe * fprime_ray, math.inf)
    bound_dec = np.where(dec_ok.reshape(-1, n), decomp.reshape(-1, n), math.inf)
    slope_term = np.minimum(bound_ray, bound_dec)
    usable = (ray_ok | dec_ok.reshape(-1, n)) & (g > 0) & np.isfinite(fv)
    with np.errstate(invalid="ignore"):     # inf - inf off the usable points
        gaps = np.where(usable, fv - fx[:, None] - slope_term, math.inf)
    return _curve_rows("total", grid, xs, norm, radii, None, gaps, None)


def firm_modulus(f: GridFunction, x_flat: int, s: Sequence[float],
                 radii: Sequence[float] | None = None,
                 norm: NormChoice = NormChoice.L2) -> Modulus:
    """Shell infima of f(u) - f(x) - <u - x, s> for a subgradient s at x.

    Raises NotASubgradientError when the Fenchel-Young gap of (x, s)
    exceeds the grid-scale threshold.
    """
    return _firm_rows(f, [x_flat], [s], norm, radii)[0][0]


def total_convexity_modulus(f: GridFunction, x_flat: int,
                            radii: Sequence[float] | None = None,
                            norm: NormChoice = NormChoice.L2) -> Modulus:
    """Shell infima of f(u) - f(x) - f'(x, u - x).

    The one-sided derivative toward a member u is estimated as the tightest
    of two chord bounds: the minimum difference quotient along the member's
    primitive ray (used only when the ray holds grid points strictly closer
    than u), and the axis decomposition sum_i |d_i| f'(x, sign(d_i) e_i),
    exact for differentiable points. Each quotient family is sharpened by
    the two-step extrapolation 2 q_1 - q_2, which removes the first-order
    chord bias (exact on quadratics, a no-op on the flat and piecewise
    linear structures whose genuine zeros the modulus must keep). Members
    whose only available sample is u itself would report a gap of exactly
    zero no matter what f is, so they are skipped like empty shells;
    multi-axis decompositions are trusted only where every needed axis has
    two admissible steps and a sample on the opposite side, since one-sided
    single-step quotients overshoot near steep domain edges.
    """
    return _total_rows(f, [x_flat], norm, radii)[0][0]


def firm_moduli(f: GridFunction, points: Sequence[int],
                tilts: Sequence[Sequence[float]],
                norm: NormChoice = NormChoice.L2
                ) -> Iterator[tuple[Modulus, tuple]]:
    """``firm_modulus`` and its ``certification_verdict`` at every pair
    (``points[r]``, ``tilts[r]``), computed in row blocks as they are read;
    reading a block that holds a pair that is not a subgradient pair
    raises."""
    return _by_blocks(f.grid, len(points),
                      lambda b: _firm_rows(f, points[b], tilts[b], norm),
                      _ROW_BLOCK)


def total_convexity_moduli(f: GridFunction, points: Sequence[int],
                           norm: NormChoice = NormChoice.L2
                           ) -> Iterator[tuple[Modulus, tuple]]:
    """``total_convexity_modulus`` and its ``certification_verdict`` about
    each of ``points`` in order, computed in row blocks as they are read."""
    return _by_blocks(f.grid, len(points),
                      lambda b: _total_rows(f, points[b], norm), _ROW_BLOCK)


def certify_gamma0(m: Modulus) -> Gamma0Certificate:
    """Whether the lower convex envelope of the finite samples, anchored at
    (0, 0), clears ``delta0(t)`` at every sampled radius.

    The failure radius is the first sample at or below ``delta0``, or, when
    every sample clears it, the smallest sampled radius; the envelope is at
    or below the floor there in both cases.
    """
    # The envelope lies below every sample, so each sample must clear the
    # floor. Its first piece is the chord from the origin of least slope
    # min(v/t), and every later piece is a chord between two samples. The
    # floor is affine, so on a chord the envelope clears it at every radius
    # once it clears it at both ends: at the samples, and, on the first
    # piece, at the smallest sampled radius t0 (the origin sits below it).
    # The sample at t0 enters as it is, not as t0 * (v0 / t0), so rounding
    # cannot move it across the floor. A single sample has no chord tail:
    # it decides alone, positive iff v0 > delta0(t0).
    (n, pos, fail), = _certify_rows(m.radii, m.values[None], m.empty[None],
                                    -math.inf)
    if n == 0:
        raise InsufficientDataError("need at least 1 finite sample, have 0")
    return Gamma0Certificate(pos, None if pos else fail, n, DEFAULT_TOLS.eps_fp)


def certification_verdict(m: Modulus
                          ) -> tuple[bool, Gamma0Certificate | None, str]:
    """Positivity verdict with the grid-scale edge cases resolved.

    Shells below ``cert_min_radius`` of the curve's grid step are ignored
    (sub-resolution; a curve with no recorded step keeps every shell).
    When no usable shell carries a finite sample the domain is confined
    inside the smallest shell, which forces convergence trivially, so the
    verdict is vacuously positive.
    """
    return _verdicts(m.radii, m.values[None], m.empty[None], m.spacing)[0]


@dataclass(frozen=True, eq=False)
class WellposednessReport:
    """Minimizer bookkeeping and the strong-minimum verdict for one tilt.

    ``boundary_descent`` is set only without a feasible set: a grid set is
    the whole feasible set, so its edge truncates nothing.
    """

    tilt: tuple[float, ...]
    minimizer: int
    min_value: float
    multiplicity: int
    cluster_diameter: float
    unique_at_resolution: bool
    boundary_descent: bool     # minimum only on the grid edge, descending outward
    certificate_positive: bool
    certificate: Gamma0Certificate | None
    note: str

    @property
    def strong(self) -> bool:
        return (self.unique_at_resolution and self.certificate_positive
                and not self.boundary_descent)


def _wellposed_rows(f: GridFunction, tilts: Sequence[Sequence[float]],
                    norm: NormChoice, radii: Sequence[float] | None = None,
                    members: np.ndarray | None = None
                    ) -> tuple[list[Modulus], list[WellposednessReport]]:
    """Well-posedness curves and reports of tilts (see
    ``wellposedness_modulus``); an infeasible tilt raises."""
    grid = f.grid
    ss = _tilts(tilts)
    # a feasible set tilts its members only, R x |S| pairings
    tilted = (f.tilted(ss) if members is None else
              f.flat[members] - grid.pair(ss[:, None], members))
    mval, level, ties = _tie_cluster(f, tilted, ss)
    mval = mval.tolist()
    if math.inf in mval:
        raise InfeasibleProblemError("tilted problem has no feasible domain point")
    row_of, cl = np.divmod(ties, tilted.shape[1])
    if members is not None:
        cl = members[cl]
    size = np.bincount(row_of, minlength=len(ss))
    first = size.cumsum() - size
    x_hat = cl[first]
    coords = grid.points[cl]
    diameter = norm.length(np.maximum.reduceat(coords, first)
                           - np.minimum.reduceat(coords, first)).tolist()
    cell = DEFAULT_TOLS.cell_limit(grid, norm)
    # a feasible set is the whole problem, so only an unconstrained minimum
    # can be a truncation artifact of the grid edge
    edge_only = ([False] * len(ss) if members is not None else
                 (~np.logical_or.reduceat(grid.interior_flat[cl], first)).tolist())
    mods, verdicts = _curve_rows("wellposed", grid, x_hat, norm, radii, members,
                                 tilted, tilted.ravel()[ties[first]],
                                 list(map(tuple, ss.tolist())))
    reports = []
    for r, (pos, cert, note) in enumerate(verdicts):
        lo, k = int(first[r]), int(size[r])
        descent = edge_only[r] and _edge_descent(
            grid, tilted[r], cl[lo:lo + k], float(level[r]))
        reports.append(WellposednessReport(
            mods[r].tilt, mods[r].center, mval[r], k, diameter[r],
            diameter[r] <= cell, descent, pos, cert, note))
    return mods, reports


def wellposedness_modulus(f: GridFunction, s: Sequence[float],
                          radii: Sequence[float] | None = None,
                          norm: NormChoice = NormChoice.L2,
                          members: np.ndarray | None = None
                          ) -> tuple[Modulus, WellposednessReport]:
    """Conditioning curve of min f - <., s> and its strong-minimum verdict.

    A minimizer is unique at grid resolution when the tie cluster fits in
    one grid cell; a cluster wider than that always leaves a zero sample in
    some certified shell, so the verdict legs stay coherent. ``members``
    (ascending flat indices of a feasible set) restricts the problem to them.
    """
    mods, reports = _wellposed_rows(f, [s], norm, radii, members)
    return mods[0], reports[0]


def wellposedness_moduli(f: GridFunction, tilts: Sequence[Sequence[float]],
                         norm: NormChoice = NormChoice.L2
                         ) -> Iterator[tuple[Modulus, WellposednessReport]]:
    """``wellposedness_modulus`` of each of ``tilts`` in order, computed in
    row blocks as they are read."""
    return _by_blocks(f.grid, len(tilts),
                      lambda b: _wellposed_rows(f, tilts[b], norm), _ROW_BLOCK)


@dataclass(frozen=True)
class CoercivityReport:
    verdict: bool
    minimizer: int
    reason: str


def coercivity_check(f: GridFunction, norm: NormChoice = NormChoice.L2
                     ) -> CoercivityReport:
    """Growth test: shell minima about the minimum must rise on the outer half.

    A minimum sitting on the grid edge with outward descent is a truncation
    artifact of a non-coercive function and fails immediately.
    """
    grid = f.grid
    mval, level, cluster = _tie_cluster(f, f.flat[None], np.zeros((1, grid.dim)))
    x_hat = int(cluster[0])
    if _edge_descent(grid, f.flat, cluster, level[0]):
        return CoercivityReport(False, x_hat,
                                "minimum on grid edge with outward descent")

    (m,), _ = _curve_rows("wellposed", grid, cluster[:1], norm, None, None,
                          f.flat[None], mval)
    radii, values, empty = m.radii, m.values, m.empty
    outer = (~empty) & (radii > DEFAULT_TOLS.outer_radius(radii[-1]))
    if not outer.any():
        return CoercivityReport(False, x_hat, "no usable outer shells")
    vals = values[outer]
    ts = radii[outer]
    floor = DEFAULT_TOLS.delta0(ts)
    if not (vals > floor).all():
        t_bad = float(ts[~(vals > floor)][0])
        return CoercivityReport(False, x_hat,
                                f"outer shell minimum not above the floor at t={t_bad:g}")
    fin = np.isfinite(vals)
    vf = vals[fin]
    if vf.size >= 2:
        slack = DEFAULT_TOLS.delta0(float(np.abs(vf).max()))
        if not (np.diff(vf) >= -slack).all():
            return CoercivityReport(False, x_hat,
                                    "outer shell minima are not monotone")
    return CoercivityReport(True, x_hat, "")
