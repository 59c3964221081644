"""Shell-infimum moduli: firm subdifferentiability, total convexity,
well-posedness of tilted minimization, and their convex-envelope
certificates.

Each modulus samples, per shell radius t, the infimum of a gap over the
discrete shell about a base point. A function of t belongs to the forcing
class when its lower convex envelope through the origin stays above the
positivity floor ``delta0(t)`` at every sampled radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conjugate import conjugate_value
from .errors import (InfeasibleProblemError, InsufficientDataError,
                     NotASubgradientError, PointOutsideDomainError)
from .grids import Grid, GridFunction, NormChoice, Shell, shell_ladder
from .subdiff import tau_sub
from .tolerances import DEFAULT_TOLS, Tolerances


@dataclass(frozen=True, eq=False)
class Modulus:
    """Sampled radius -> shell-infimum curve about a base point."""

    kind: str                      # "firm" | "total" | "wellposed" | "uniform_firm"
    center: int                    # primal flat index
    radii: np.ndarray              # strictly increasing, > 0
    values: np.ndarray             # gap infima; +inf where no usable member
    empty: np.ndarray              # bool per radius: shell has no members
    witnesses: np.ndarray          # flat index achieving the infimum, -1 if none
    norm: NormChoice
    tilt: tuple[float, ...] | None = None

    def finite_mask(self) -> np.ndarray:
        return (~self.empty) & np.isfinite(self.values)

    def restricted(self, min_radius: float) -> "Modulus":
        keep = self.radii >= min_radius
        return Modulus(self.kind, self.center, self.radii[keep],
                       self.values[keep], self.empty[keep],
                       self.witnesses[keep], self.norm, self.tilt)


@dataclass(frozen=True)
class Gamma0Certificate:
    """Lower convex envelope through (0, 0) and its positivity verdict."""

    positive: bool
    failure_radius: float | None
    knots: tuple[tuple[float, float], ...]
    n_finite: int
    eps: float

    def to_dict(self) -> dict:
        return {"kind": "gamma0_certificate", "positive": self.positive,
                "failure_radius": self.failure_radius,
                "knots": [[t, v] for t, v in self.knots],
                "n_finite": self.n_finite, "eps": self.eps}


def _tie_eps(f: GridFunction, s: np.ndarray, ref: float,
             tols: Tolerances) -> float:
    coord = max(abs(lo) + abs(hi) for lo, hi in f.grid.bounds)
    return tols.eps_fp * (1.0 + abs(ref) + float(np.abs(s).sum()) * coord)


def _lower_hull(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Indices of the strict lower convex hull of points sorted by x."""
    stack: list[int] = []
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


def _shell_minima(gaps: np.ndarray, shells: Sequence[Shell],
                  feasible: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    radii = np.array([sh.radius for sh in shells])
    values = np.full(len(shells), math.inf)
    empty = np.zeros(len(shells), dtype=bool)
    witnesses = np.full(len(shells), -1, dtype=np.int64)
    for i, sh in enumerate(shells):
        mem = sh.members
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
    return radii, values, empty, witnesses


def _ladder(grid: Grid, center: int, norm: NormChoice,
            radii: Sequence[float] | None) -> list[Shell]:
    if radii is None:
        return shell_ladder(grid, center, norm=norm)
    from .grids import shell as _shell
    return [_shell(grid, center, float(t), norm=norm) for t in radii]


def firm_modulus(f: GridFunction, x_flat: int, s: Sequence[float],
                 radii: Sequence[float] | None = None,
                 norm: NormChoice = NormChoice.L2,
                 tols: Tolerances = DEFAULT_TOLS,
                 feasible: np.ndarray | None = None) -> Modulus:
    """Shell infima of f(u) - f(x) - <u - x, s> for a subgradient s at x.

    Raises NotASubgradientError when the Fenchel-Young gap of (x, s)
    exceeds the grid-scale threshold.
    """
    fx = f.value_at(x_flat)
    if not np.isfinite(fx):
        raise PointOutsideDomainError(f"f is +inf at flat index {x_flat}")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    fstar, _ = conjugate_value(f, s)
    gap = fx + fstar - float(f.grid.point(x_flat) @ s)
    tau = tau_sub(f, x_flat, s, norm, tols)
    if gap > tau:
        raise NotASubgradientError(
            f"gap {gap:.3g} exceeds threshold {tau:.3g} at flat index {x_flat}")
    tilted = f.tilted(s)
    gaps = tilted - tilted[x_flat]
    shells = _ladder(f.grid, x_flat, norm, radii)
    radii_a, values, empty, wit = _shell_minima(gaps, shells, feasible)
    return Modulus("firm", int(x_flat), radii_a, values, empty, wit, norm,
                   tilt=tuple(float(c) for c in s))


def uniform_firm_modulus(f: GridFunction, x_flat: int,
                         tilts: Sequence[Sequence[float]],
                         radii: Sequence[float] | None = None,
                         norm: NormChoice = NormChoice.L2,
                         tols: Tolerances = DEFAULT_TOLS) -> Modulus:
    """Pointwise minimum of firm moduli over a family of subgradients.

    Proxy for the single-psi (uniform) variant of firm subdifferentiability;
    there is no canonical uniform modulus, so this is reported as the
    strongest curve valid for every sampled tilt.
    """
    mods = [firm_modulus(f, x_flat, s, radii=radii, norm=norm, tols=tols)
            for s in tilts]
    if not mods:
        raise ValueError("need at least one tilt")
    values = np.min(np.vstack([m.values for m in mods]), axis=0)
    base = mods[0]
    return Modulus("uniform_firm", base.center, base.radii, values,
                   base.empty, np.full(base.radii.shape, -1, dtype=np.int64),
                   norm, tilt=None)


def total_convexity_modulus(f: GridFunction, x_flat: int,
                            radii: Sequence[float] | None = None,
                            norm: NormChoice = NormChoice.L2,
                            tols: Tolerances = DEFAULT_TOLS) -> Modulus:
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
    k_dd = tols.k_dd

    def flat_of(pos: np.ndarray) -> np.ndarray:
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

    shells = _ladder(grid, x_flat, norm, radii)
    radii_a, values, empty, wit = _shell_minima(gaps, shells)
    return Modulus("total", int(x_flat), radii_a, values, empty, wit, norm)


def certify_gamma0(m: Modulus, tols: Tolerances = DEFAULT_TOLS) -> Gamma0Certificate:
    """Lower convex envelope of the finite samples, anchored at (0, 0).

    Positive when the envelope clears ``delta0(t)`` at every sampled
    radius; the failure radius is the first envelope knot at which the
    margin is lost (falling back to the first failing sample).
    """
    sel = m.finite_mask()
    ts = m.radii[sel]
    vs = m.values[sel]
    if ts.size < 2:
        raise InsufficientDataError(
            f"need at least 2 finite samples, have {ts.size}")
    px = np.concatenate([[0.0], ts])
    py = np.concatenate([[0.0], vs])
    hull = _lower_hull(px, py)
    kx = px[hull]
    ky = py[hull]
    env = np.interp(ts, kx, ky)
    floor = tols.delta0(ts)
    ok = env > floor
    positive = bool(ok.all())
    failure = None
    if not positive:
        for t, v in zip(kx[1:], ky[1:]):
            if v <= tols.delta0(t):
                failure = float(t)
                break
        if failure is None:
            failure = float(ts[~ok][0])
    knots = tuple((float(a), float(b)) for a, b in zip(kx, ky))
    return Gamma0Certificate(positive, failure, knots, int(ts.size), tols.eps_fp)


def certification_verdict(m: Modulus, tols: Tolerances = DEFAULT_TOLS,
                          min_radius: float = 0.0
                          ) -> tuple[bool, Gamma0Certificate | None, str]:
    """Positivity verdict with the grid-scale edge cases resolved.

    Shells below ``min_radius`` are ignored (sub-resolution). When no
    usable shell carries a finite sample the domain is confined inside the
    smallest shell, which forces convergence trivially, so the verdict is
    vacuously positive.
    """
    mm = m.restricted(min_radius) if min_radius > 0 else m
    n_finite = int(mm.finite_mask().sum())
    if n_finite == 0:
        return True, None, "vacuous: no domain point in any usable shell"
    if n_finite == 1:
        return False, None, "insufficient finite samples (1)"
    cert = certify_gamma0(mm, tols)
    return cert.positive, cert, ""


@dataclass(frozen=True, eq=False)
class WellposednessReport:
    """Minimizer bookkeeping and the strong-minimum verdict for one tilt."""

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
                          tols: Tolerances = DEFAULT_TOLS,
                          feasible: np.ndarray | None = None
                          ) -> tuple[Modulus, WellposednessReport]:
    """Conditioning curve of min f - <., s> and its strong-minimum verdict.

    A minimizer is unique at grid resolution when the tie cluster fits in
    one grid cell; a cluster wider than that always leaves a zero sample in
    some certified shell, so the verdict legs stay coherent.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    grid = f.grid
    tilted = f.tilted(s)
    cand = tilted
    if feasible is not None:
        cand = np.where(feasible, tilted, math.inf)
    finite = np.isfinite(cand)
    if not finite.any():
        raise InfeasibleProblemError("tilted problem has no feasible domain point")
    mval = float(cand.min())
    eps = _tie_eps(f, s, mval, tols)
    cluster = np.flatnonzero(cand <= mval + eps)
    x_hat = int(cluster[0])

    coords = grid.points[cluster]
    diag = coords.max(axis=0) - coords.min(axis=0)
    diameter = float(norm.length(diag))
    cell = grid.cell_diagonal(norm) * tols.cell_diag_factor
    unique = diameter <= cell

    on_edge = ~grid.interior_flat[cluster]
    boundary_descent = False
    if on_edge.all():
        for c in cluster:
            multi = grid.unravel_index(int(c))
            for ax in range(grid.dim):
                if multi[ax] in (0, grid.counts[ax] - 1):
                    inward = list(multi)
                    inward[ax] += 1 if multi[ax] == 0 else -1
                    nb = grid.ravel_index(inward)
                    if cand[nb] > mval + eps:
                        boundary_descent = True
    gaps = cand - cand[x_hat]
    shells = _ladder(grid, x_hat, norm, radii)
    radii_a, values, empty, wit = _shell_minima(gaps, shells, feasible)
    mod = Modulus("wellposed", x_hat, radii_a, values, empty, wit, norm,
                  tilt=tuple(float(c) for c in s))
    pos, cert, note = certification_verdict(
        mod, tols, min_radius=tols.cert_min_radius(grid.max_spacing))
    report = WellposednessReport(tuple(float(c) for c in s), x_hat, mval,
                                 int(cluster.size), diameter, unique,
                                 boundary_descent, pos, cert, note)
    return mod, report


@dataclass(frozen=True)
class CoercivityReport:
    verdict: bool
    minimizer: int
    reason: str


def coercivity_check(f: GridFunction, norm: NormChoice = NormChoice.L2,
                     tols: Tolerances = DEFAULT_TOLS) -> CoercivityReport:
    """Growth test: shell minima about the minimum must rise on the outer half.

    A minimum sitting on the grid edge with outward descent is a truncation
    artifact of a non-coercive function and fails immediately.
    """
    zero = np.zeros(f.grid.dim)
    tilted = f.flat
    mval = float(tilted.min())
    eps = _tie_eps(f, zero, mval, tols)
    cluster = np.flatnonzero(tilted <= mval + eps)
    x_hat = int(cluster[0])

    grid = f.grid
    for c in cluster:
        multi = grid.unravel_index(int(c))
        for ax in range(grid.dim):
            if multi[ax] in (0, grid.counts[ax] - 1):
                inward = list(multi)
                inward[ax] += 1 if multi[ax] == 0 else -1
                if tilted[grid.ravel_index(inward)] > mval + eps:
                    return CoercivityReport(False, x_hat,
                                            "minimum on grid edge with outward descent")

    shells = shell_ladder(grid, x_hat, norm=norm)
    radii, values, empty, _ = _shell_minima(tilted - mval, shells)
    outer = (~empty) & (radii > radii[-1] / 2.0)
    if not outer.any():
        return CoercivityReport(False, x_hat, "no usable outer shells")
    vals = values[outer]
    ts = radii[outer]
    floor = tols.delta0(ts)
    if not (vals > floor).all():
        t_bad = float(ts[~(vals > floor)][0])
        return CoercivityReport(False, x_hat,
                                f"outer shell minimum not above the floor at t={t_bad:g}")
    fin = np.isfinite(vals)
    vf = vals[fin]
    if vf.size >= 2:
        slack = tols.eps_fp * (1.0 + float(np.abs(vf).max()))
        if not (np.diff(vf) >= -slack).all():
            return CoercivityReport(False, x_hat,
                                    "outer shell minima are not monotone")
    return CoercivityReport(True, x_hat, "")
