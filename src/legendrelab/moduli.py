"""Shell-infimum moduli: firm subdifferentiability, total convexity,
well-posedness of tilted minimization, and their convex-envelope
certificates.

Each modulus samples, per shell radius t, the infimum of a gap over the
discrete shell about a base point. A function of t belongs to the forcing
class when its lower convex envelope through the origin stays above the
positivity floor ``delta0(t)`` at every sampled radius; the certificate
decides this from the samples and the least chord slope through the
origin, without building the envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (InfeasibleProblemError, InsufficientDataError,
                     NotASubgradientError, PointOutsideDomainError)
from .grids import (Grid, GridFunction, NormChoice, ShellLadder, _ray_stencil,
                    shell, shell_ladder)
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


def _tie_cluster(f: GridFunction, values: np.ndarray, s: np.ndarray
                 ) -> tuple[float, float, np.ndarray]:
    """Minimum of a tilted objective, its tie slack, and the flat indices
    within that slack of the minimum (ascending)."""
    mval = float(values.min())
    eps = DEFAULT_TOLS.tie_slack(mval, float(np.abs(s).sum()), f.grid.bounds)
    return mval, eps, np.flatnonzero(values <= mval + eps)


def _edge_descent(grid: Grid, values: np.ndarray, cluster: np.ndarray,
                  level: float) -> bool:
    """Whether some cluster member on the grid edge has its inward
    neighbor above ``level`` (the objective descends off the grid)."""
    for c in cluster:
        multi = grid.unravel_index(int(c))
        for ax in range(grid.dim):
            if multi[ax] in (0, grid.counts[ax] - 1):
                inward = list(multi)
                inward[ax] += 1 if multi[ax] == 0 else -1
                if values[grid.ravel_index(inward)] > level:
                    return True
    return False


def _shell_minima(vals: np.ndarray, ladder: ShellLadder
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per shell: the least gap over its members, whether it has none, and
    the first member attaining a finite least gap (-1 if none), as one
    grouped pass over the ladder's members; ``vals[i]`` is the gap of
    ``ladder.members[i]``."""
    mem = ladder.members
    starts = ladder.starts[:-1]
    empty = starts == ladder.starts[1:]
    values = np.full(len(ladder), math.inf)
    witnesses = np.full(len(ladder), -1, dtype=np.int64)
    if empty.all():
        return ladder.radii, values, empty, witnesses
    filled = np.flatnonzero(~empty)
    # reduceat needs every start to name an element, so the members get
    # one neutral pad for empty shells at the end of the ladder
    seg_min = np.minimum.reduceat(np.append(vals, math.inf), starts)
    hits = np.flatnonzero(vals == np.repeat(seg_min, np.diff(ladder.starts)))
    first = hits[np.searchsorted(hits, starts[filled])]
    values[filled] = vals[first]
    found = np.isfinite(vals[first])
    witnesses[filled[found]] = mem[first[found]]
    return ladder.radii, values, empty, witnesses


def _ladder(grid: Grid, center: int, norm: NormChoice,
            radii: Sequence[float] | None,
            within: np.ndarray | None = None) -> ShellLadder:
    if radii is None:
        return shell_ladder(grid, center, norm=norm, within=within)
    shells = [shell(grid, center, float(t), norm=norm).members for t in radii]
    if within is not None:
        shells = [np.intersect1d(m, within, assume_unique=True) for m in shells]
    return ShellLadder(grid, int(center), norm,
                       np.array([float(t) for t in radii]),
                       np.concatenate([np.empty(0, np.int64), *shells]),
                       np.cumsum([0, *(m.size for m in shells)]))


def firm_modulus(f: GridFunction, x_flat: int, s: Sequence[float],
                 radii: Sequence[float] | None = None,
                 norm: NormChoice = NormChoice.L2) -> Modulus:
    """Shell infima of f(u) - f(x) - <u - x, s> for a subgradient s at x.

    Raises NotASubgradientError when the Fenchel-Young gap of (x, s)
    exceeds the grid-scale threshold.
    """
    fx = f.value_at(x_flat)
    if not np.isfinite(fx):
        raise PointOutsideDomainError(f"f is +inf at flat index {x_flat}")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    tilted = f.tilted(s)
    # f*(s) is minus the tilted minimum
    gap = fx - float(tilted.min()) - float(f.grid.point(x_flat) @ s)
    tau = tau_sub(f, x_flat, s, norm)
    if gap > tau:
        raise NotASubgradientError(
            f"gap {gap:.3g} exceeds threshold {tau:.3g} at flat index {x_flat}")
    ladder = _ladder(f.grid, x_flat, norm, radii)
    radii_a, values, empty, wit = _shell_minima(
        tilted[ladder.members] - tilted[x_flat], ladder)
    return Modulus("firm", int(x_flat), radii_a, values, empty, wit, norm,
                   tilt=tuple(float(c) for c in s), spacing=f.grid.max_spacing)


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
    fx = f.value_at(x_flat)
    if not np.isfinite(fx):
        raise PointOutsideDomainError(f"f is +inf at flat index {x_flat}")
    grid = f.grid
    shape = np.asarray(grid.shape, dtype=np.int64)
    dim = grid.dim
    n = grid.size
    base = np.asarray(grid.unravel_index(x_flat), dtype=np.int64)
    spacing = np.asarray(grid.spacing)
    fv = f.flat
    k_dd = DEFAULT_TOLS.k_dd
    lat_off, lat_g, lat_len, lat_hops = _ray_stencil(grid, norm, k_dd)
    win = tuple(slice(c - 1 - b, 2 * c - 1 - b) for c, b in zip(grid.counts, base))
    offsets = lat_off[win].reshape(n, dim)
    g, step_len = lat_g[win].ravel(), lat_len[win].ravel()

    # ray quotients over the first k_dd multiples of the primitive step, read
    # from f laid on the lattice about x: off the grid and off the lattice
    # (the pad slot) read +inf, so neither is admissible nor a finite quotient
    lattice = np.full(lat_hops[0].size + 1, math.inf)
    lattice[:-1].reshape(lat_g.shape)[win] = f.values
    vals = lattice[lat_hops[(slice(None), *win)]].reshape(k_dd, n)
    ks = np.arange(1, k_dd + 1)
    adm = np.isfinite(vals)
    quot = (vals - fx) / (ks[:, None] * step_len)

    closer_ray = (adm & (ks[:, None] < np.minimum(g, k_dd + 1)[None, :])).any(axis=0)
    ray_ok = (g >= 2) & closer_ray
    fprime_ray = quot.min(axis=0)
    both = adm[0] & adm[1]
    fprime_ray[both] = np.minimum(fprime_ray[both],
                                  2.0 * quot[0][both] - quot[1][both])

    # per-axis signed quotients q[ax][sign] and admissible-step counts: the
    # ray of the neighbour base + sign e_ax is the axis itself (inf and no
    # admissible step where that neighbour is off the grid)
    steps = np.eye(dim, dtype=np.int64)
    nbrs = base + np.stack([steps, -steps], axis=1)      # (axis, sign, dim)
    on_grid = ((nbrs >= 0) & (nbrs < shape)).all(axis=2)
    at = np.ravel_multi_index(tuple(nbrs.reshape(-1, dim).T), grid.shape,
                              mode="clip").reshape(dim, 2)
    axis_q = np.where(on_grid, fprime_ray[at], math.inf)
    axis_cnt = np.where(on_grid, adm[:, at].sum(axis=0), 0)

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

    ladder = _ladder(grid, x_flat, norm, radii)
    radii_a, values, empty, wit = _shell_minima(gaps[ladder.members], ladder)
    return Modulus("total", int(x_flat), radii_a, values, empty, wit, norm,
                   spacing=grid.max_spacing)


def certify_gamma0(m: Modulus) -> Gamma0Certificate:
    """Whether the lower convex envelope of the finite samples, anchored at
    (0, 0), clears ``delta0(t)`` at every sampled radius.

    The failure radius is the first sample at or below ``delta0``, or, when
    every sample clears it, the smallest sampled radius; the envelope is at
    or below the floor there in both cases.
    """
    sel = m.finite_mask()
    ts = m.radii[sel]
    vs = m.values[sel]
    if ts.size == 0:
        raise InsufficientDataError("need at least 1 finite sample, have 0")
    # The envelope lies below every sample, so each sample must clear the
    # floor. Its first piece is the chord from the origin of least slope
    # min(v/t), and every later piece is a chord between two samples. The
    # floor is affine, so on a chord the envelope clears it at every radius
    # once it clears it at both ends: at the samples, and, on the first
    # piece, at the smallest sampled radius t0 (the origin sits below it).
    # The sample at t0 enters as it is, not as t0 * (v0 / t0), so rounding
    # cannot move it across the floor. A single sample has no chord tail:
    # it decides alone, positive iff v0 > delta0(t0).
    low = np.flatnonzero(~(vs > DEFAULT_TOLS.delta0(ts)))
    if low.size:
        return Gamma0Certificate(False, float(ts[low[0]]), int(ts.size),
                                 DEFAULT_TOLS.eps_fp)
    t0 = float(ts[0])
    chord = t0 * float((vs[1:] / ts[1:]).min(initial=math.inf))
    first = min(float(vs[0]), chord)
    positive = bool(first > DEFAULT_TOLS.delta0(t0))
    return Gamma0Certificate(positive, None if positive else t0,
                             int(ts.size), DEFAULT_TOLS.eps_fp)


def certification_verdict(m: Modulus
                          ) -> tuple[bool, Gamma0Certificate | None, str]:
    """Positivity verdict with the grid-scale edge cases resolved.

    Shells below ``cert_min_radius`` of the curve's grid step are ignored
    (sub-resolution; a curve with no recorded step keeps every shell).
    When no usable shell carries a finite sample the domain is confined
    inside the smallest shell, which forces convergence trivially, so the
    verdict is vacuously positive.
    """
    mm = (m.restricted(DEFAULT_TOLS.cert_min_radius(m.spacing))
          if m.spacing > 0 else m)
    n_finite = int(mm.finite_mask().sum())
    if n_finite == 0:
        return True, None, "vacuous: no domain point in any usable shell"
    cert = certify_gamma0(mm)
    return cert.positive, cert, ""


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
    s = np.atleast_1d(np.asarray(s, dtype=float))
    grid = f.grid
    # tilt the whole grid, then index: a gathered matvec rounds differently
    tilted = f.tilted(s)
    cand = tilted if members is None else tilted[members]
    if not np.isfinite(cand).any():
        raise InfeasibleProblemError("tilted problem has no feasible domain point")
    mval, eps, cluster = _tie_cluster(f, cand, s)
    cluster = cluster if members is None else members[cluster]
    x_hat = int(cluster[0])

    coords = grid.points[cluster]
    diag = coords.max(axis=0) - coords.min(axis=0)
    diameter = float(norm.length(diag))
    unique = diameter <= DEFAULT_TOLS.cell_limit(grid, norm)

    # a feasible set is the whole problem, so only an unconstrained minimum
    # can be a truncation artifact of the grid edge
    boundary_descent = (members is None
                        and not grid.interior_flat[cluster].any()
                        and _edge_descent(grid, tilted, cluster, mval + eps))
    ladder = _ladder(grid, x_hat, norm, radii, within=members)
    radii_a, values, empty, wit = _shell_minima(
        tilted[ladder.members] - tilted[x_hat], ladder)
    mod = Modulus("wellposed", x_hat, radii_a, values, empty, wit, norm,
                  tilt=tuple(float(c) for c in s), spacing=grid.max_spacing)
    pos, cert, note = certification_verdict(mod)
    report = WellposednessReport(tuple(float(c) for c in s), x_hat, mval,
                                 int(cluster.size), diameter, unique,
                                 boundary_descent, pos, cert, note)
    return mod, report


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
    tilted = f.flat
    mval, eps, cluster = _tie_cluster(f, tilted, np.zeros(grid.dim))
    x_hat = int(cluster[0])
    if _edge_descent(grid, tilted, cluster, mval + eps):
        return CoercivityReport(False, x_hat,
                                "minimum on grid edge with outward descent")

    ladder = shell_ladder(grid, x_hat, norm=norm)
    radii, values, empty, _ = _shell_minima(tilted[ladder.members] - mval,
                                            ladder)
    outer = (~empty) & (radii > radii[-1] / 2.0)
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
