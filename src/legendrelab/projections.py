"""Relative projection problems min f(x) - <x, s> over a closed grid set.

Includes the strong-Tchebychev probe test, the farthest-point experiment
(f = -||.||^2/2), and the convexity detector (f = ||.||^2/2). Universal
"for every tilt" claims are always reported as "no failure over N probes";
witness searches escalate from low-discrepancy probes to exact tie tilts
built from pairs of set members, then to bisection along median rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import qmc

from .errors import BudgetExhaustedError, InfeasibleProblemError
from .grids import Grid, GridFunction, NormChoice, build_grid_function
from .moduli import Modulus, WellposednessReport, wellposedness_modulus
from .tolerances import DEFAULT_TOLS, Tolerances


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Nonempty set of grid points, stored as a boolean mask."""

    grid: Grid
    mask: np.ndarray
    name: str = ""

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool).reshape(self.grid.size).copy()
        if not m.any():
            raise ValueError("constraint set must be nonempty")
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    @property
    def members(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    def member_points(self) -> np.ndarray:
        return self.grid.points[self.members]

    def translated(self, steps: Sequence[int], name: str | None = None) -> "ConstraintSet":
        """Shift every member by an integer index offset (members leaving the grid drop)."""
        steps = np.asarray(steps, dtype=np.int64)
        multi = np.stack(np.unravel_index(self.members, self.grid.shape), axis=1) + steps
        shape = np.asarray(self.grid.shape)
        ok = (multi >= 0).all(axis=1) & (multi < shape).all(axis=1)
        flat = np.ravel_multi_index(tuple(multi[ok].T), self.grid.shape)
        mask = np.zeros(self.grid.size, dtype=bool)
        mask[flat] = True
        return ConstraintSet(self.grid, mask, name or self.name + "+shift")

    @staticmethod
    def from_points(grid: Grid, points: Sequence[Sequence[float]],
                    name: str = "") -> "ConstraintSet":
        mask = np.zeros(grid.size, dtype=bool)
        for p in points:
            mask[grid.index_of_nearest(np.atleast_1d(p))] = True
        return ConstraintSet(grid, mask, name)


@dataclass(frozen=True, eq=False)
class ProjectionCertificate:
    """Solution of one relative projection problem with its conditioning."""

    function: str
    constraint: str
    tilt: tuple[float, ...]
    minimizer: int
    minimizer_point: tuple[float, ...]
    value: float
    strong: bool
    report: WellposednessReport
    modulus: Modulus


def solve_relative_projection(f: GridFunction, S: ConstraintSet,
                              s: Sequence[float],
                              norm: NormChoice = NormChoice.L2,
                              tols: Tolerances = DEFAULT_TOLS) -> ProjectionCertificate:
    """Exact minimization of f - <., s> over the finite set S."""
    if not (S.mask & f.domain_flat).any():
        raise InfeasibleProblemError("S does not meet dom f")
    mod, rep = wellposedness_modulus(f, s, norm=norm, tols=tols, feasible=S.mask)
    pt = f.grid.point(rep.minimizer)
    return ProjectionCertificate(f.name, S.name,
                                 tuple(float(c) for c in np.atleast_1d(s)),
                                 rep.minimizer, tuple(float(c) for c in pt),
                                 rep.min_value, rep.strong, rep, mod)


def midpoint_convexity(S: ConstraintSet, domain: np.ndarray | None = None,
                       max_violations: int = 200
                       ) -> tuple[bool, list[tuple[int, int]]]:
    """Discrete midpoint convexity of the member set.

    For each member pair, some grid point obtained by per-axis floor/ceil
    rounding of the half-sum of indices must belong to the set (rounding to
    a single nearest point would reject convex continuum sets whose edges
    alias across cells).
    """
    mask = S.mask if domain is None else (S.mask & domain)
    mem = np.flatnonzero(mask)
    if mem.size <= 1:
        return True, []
    grid = S.grid
    shape = np.asarray(grid.shape, dtype=np.int64)
    strides = np.ones(grid.dim, dtype=np.int64)
    for ax in range(grid.dim - 2, -1, -1):
        strides[ax] = strides[ax + 1] * shape[ax + 1]
    multi = np.stack(np.unravel_index(mem, grid.shape), axis=1)
    violations: list[tuple[int, int]] = []
    ok_all = True
    chunk = max(1, int(2_000_000 // max(mem.size, 1)))
    for lo in range(0, mem.size, chunk):
        hi = min(lo + chunk, mem.size)
        sums = multi[lo:hi, None, :] + multi[None, :, :]
        floor = sums // 2
        ceil = (sums + 1) // 2
        hit = np.zeros(sums.shape[:2], dtype=bool)
        for bits in range(1 << grid.dim):
            cand = np.where([(bits >> ax) & 1 for ax in range(grid.dim)],
                            ceil, floor)
            hit |= mask[cand @ strides]
        bad_i, bad_j = np.nonzero(~hit)
        keep = (bad_i + lo) < bad_j
        for a, b in zip(bad_i[keep], bad_j[keep]):
            ok_all = False
            if len(violations) < max_violations:
                violations.append((int(mem[a + lo]), int(mem[b])))
    return ok_all, violations


def _halton_probes(box_lo: np.ndarray, box_hi: np.ndarray, n: int,
                   seed: int) -> np.ndarray:
    sampler = qmc.Halton(d=box_lo.size, scramble=True, seed=seed)
    u = sampler.random(n)
    return box_lo[None, :] + u * (box_hi - box_lo)[None, :]


def _tie_tilt(u: np.ndarray, v: np.ndarray, fu: float, fv: float) -> np.ndarray:
    """Tilt making u and v share the tilted value exactly (l2 construction).

    The minimum-norm solution of <u - v, s> = f(u) - f(v), shifted inside
    the solution line toward the pair midpoint; for f = ||.||^2/2 this is
    exactly the midpoint of u and v.
    """
    d = u - v
    dd = float(d @ d)
    mid = (u + v) / 2.0
    base = ((fu - fv) / dd) * d
    perp = mid - (float(mid @ d) / dd) * d
    return base + perp


def _far_pairs(S: ConstraintSet, limit: int = 24) -> list[tuple[int, int]]:
    """Member pairs of near-maximal separation, from a capped subsample."""
    mem = S.members
    if mem.size > 400:
        sel = np.unique(np.linspace(0, mem.size - 1, 400).astype(int))
        mem = mem[sel]
    pts = S.grid.points[mem]
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    flat_order = np.argsort(d2, axis=None, kind="stable")[::-1]
    out = []
    seen = set()
    for f_idx in flat_order:
        i, j = np.unravel_index(f_idx, d2.shape)
        if i >= j or d2[i, j] <= 0:
            continue
        key = (int(mem[i]), int(mem[j]))
        if key not in seen:
            seen.add(key)
            out.append(key)
        if len(out) >= limit:
            break
    return out


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExhaustedError(f"probe budget {self.limit} exhausted")


def _probe(f: GridFunction, S: ConstraintSet, s: np.ndarray, budget: _Budget,
           norm: NormChoice, tols: Tolerances) -> ProjectionCertificate:
    budget.spend()
    return solve_relative_projection(f, S, s, norm=norm, tols=tols)


def _bisect_for_tie(f: GridFunction, S: ConstraintSet, s0: np.ndarray,
                    budget: _Budget, norm: NormChoice, tols: Tolerances,
                    iters: int = 60) -> ProjectionCertificate | None:
    """Walk the tilt away from its minimizer until the argmin jumps, then
    bisect toward the crossing; at the crossing two branches tie."""
    cert0 = _probe(f, S, s0, budget, norm, tols)
    if _is_witness(cert0):
        return cert0
    x0 = np.asarray(cert0.minimizer_point)
    direction = s0 - x0
    nrm = float(np.linalg.norm(direction))
    if nrm == 0:
        direction = np.ones_like(s0)
        nrm = float(np.linalg.norm(direction))
    direction /= nrm
    extent = max(hi - lo for lo, hi in f.grid.bounds)
    lam_lo, cert_lo = 0.0, cert0
    lam_hi = None
    for k in range(1, 17):
        lam = extent * k / 4.0
        cert = _probe(f, S, x0 + lam * direction, budget, norm, tols)
        if _is_witness(cert):
            return cert
        if cert.minimizer != cert_lo.minimizer:
            lam_hi = lam
            break
        lam_lo = lam
    if lam_hi is None:
        return None
    for _ in range(iters):
        lam = (lam_lo + lam_hi) / 2.0
        cert = _probe(f, S, x0 + lam * direction, budget, norm, tols)
        if _is_witness(cert):
            return cert
        if cert.minimizer == cert_lo.minimizer:
            lam_lo = lam
        else:
            lam_hi = lam
    return None


def _witness_candidates(f: GridFunction, S: ConstraintSet,
                        pairs: list[tuple[int, int]]) -> list[np.ndarray]:
    out = []
    for a, b in pairs:
        u = f.grid.point(a)
        v = f.grid.point(b)
        fu, fv = f.value_at(a), f.value_at(b)
        if np.isfinite(fu) and np.isfinite(fv):
            out.append(_tie_tilt(u, v, fu, fv))
    return out


def _violation_pairs_by_depth(S: ConstraintSet, f: GridFunction,
                              limit: int = 40) -> list[tuple[int, int]]:
    """Midpoint-convexity violations, deepest midpoints first."""
    _, violations = midpoint_convexity(S, domain=f.domain_flat)
    if not violations:
        return []
    pts = S.grid.points
    spts = S.member_points()
    depths = []
    for a, b in violations:
        mid = (pts[a] + pts[b]) / 2.0
        d = float(np.sqrt(((spts - mid[None, :]) ** 2).sum(axis=1)).min())
        depths.append(d)
    order = np.argsort(np.asarray(depths), kind="stable")[::-1]
    return [violations[i] for i in order[:limit]]


@dataclass(frozen=True, eq=False)
class TchebychevReport:
    passed: bool                      # no failure found over the probes run
    n_probes: int
    witness_tilt: tuple[float, ...] | None
    witness: ProjectionCertificate | None
    midpoint_convex: bool             # of S ∩ dom f
    budget_exhausted: bool = False

    @property
    def verdict(self) -> str:
        if self.passed:
            return f"no failure found over {self.n_probes} probes"
        return f"failure at tilt {self.witness_tilt}"


def probe_box(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Default tilt sampling box: the primal bounds shrunk by a 10% margin
    per side (tilts near or past the box push minimizers onto the grid
    edge, where certificates are truncation artifacts)."""
    lo = np.array([b[0] for b in f.grid.bounds])
    hi = np.array([b[1] for b in f.grid.bounds])
    pad = 0.1 * (hi - lo)
    return lo + pad, hi - pad


def _is_witness(cert: ProjectionCertificate) -> bool:
    """A probe disproves strong posedness only away from the grid edge;
    a boundary-flagged minimizer is a truncation artifact, not a tie."""
    return not cert.strong and not cert.report.boundary_descent


def tchebychev_test(f: GridFunction, S: ConstraintSet,
                    n_probes: int = 200, seed: int = 42,
                    norm: NormChoice = NormChoice.L2,
                    tols: Tolerances = DEFAULT_TOLS,
                    escalate: bool = True) -> TchebychevReport:
    """Probe for a tilt whose relative projection on S is not strong.

    Runs low-discrepancy probes plus exact tie tilts built from member
    pairs that violate midpoint convexity (where ties are geometrically
    forced); reports the first failure, never the universal claim.

    On a bounded grid every tilted objective is automatically coercive
    (cofinite), so passing probes over a convex S cannot separate the
    coercivity hypothesis of the converse statement from the rest; the
    grid simply never exhibits the non-cofinite failure mode.
    """
    if not (S.mask & f.domain_flat).any():
        raise InfeasibleProblemError("S does not meet dom f")
    mp_ok, _ = midpoint_convexity(S, domain=f.domain_flat)
    budget = _Budget(max(10 * n_probes, 2000))
    lo, hi = probe_box(f)
    probes = list(_halton_probes(lo, hi, n_probes, seed))
    if escalate:
        probes += _witness_candidates(f, S, _violation_pairs_by_depth(S, f))
    ran = 0
    for s in probes:
        cert = _probe(f, S, np.asarray(s, dtype=float), budget, norm, tols)
        ran += 1
        if _is_witness(cert):
            return TchebychevReport(False, ran, cert.tilt, cert, mp_ok)
    return TchebychevReport(True, ran, None, None, mp_ok)


@dataclass(frozen=True, eq=False)
class FarthestVerdict:
    kind: str                          # "SINGLETON-CONSISTENT" | "WITNESS"
    witness_tilt: tuple[float, ...] | None
    witness: ProjectionCertificate | None
    probes_used: int


def _neg_half_sq(grid: Grid) -> GridFunction:
    return build_grid_function(grid, lambda p: -0.5 * (p * p).sum(axis=-1),
                               name="-0.5|x|^2", vectorized=True)


def _half_sq(grid: Grid) -> GridFunction:
    return build_grid_function(grid, lambda p: 0.5 * (p * p).sum(axis=-1),
                               name="0.5|x|^2", vectorized=True)


def farthest_point_experiment(S: ConstraintSet, n_probes: int = 200,
                              seed: int = 42,
                              norm: NormChoice = NormChoice.L2,
                              tols: Tolerances = DEFAULT_TOLS) -> FarthestVerdict:
    """Strong-maximum probe of ||.||^2/2 + tilt over S.

    Singletons must survive every probe; any larger set must yield a tie
    witness (farthest points from the midpoint of a far pair tie exactly).
    Raises BudgetExhaustedError when a multi-point set defeats the search.
    """
    f = _neg_half_sq(S.grid)
    budget = _Budget(max(10 * n_probes, 2000))
    lo, hi = probe_box(f)
    if S.size == 1:
        for s in _halton_probes(lo, hi, n_probes, seed):
            cert = _probe(f, S, s, budget, norm, tols)
            if _is_witness(cert):
                return FarthestVerdict("WITNESS", cert.tilt, cert, budget.used)
        return FarthestVerdict("SINGLETON-CONSISTENT", None, None, budget.used)

    for s in _witness_candidates(f, S, _far_pairs(S)):
        cert = _probe(f, S, s, budget, norm, tols)
        if _is_witness(cert):
            return FarthestVerdict("WITNESS", cert.tilt, cert, budget.used)
    for s in _halton_probes(lo, hi, n_probes, seed):
        cert = _probe(f, S, s, budget, norm, tols)
        if _is_witness(cert):
            return FarthestVerdict("WITNESS", cert.tilt, cert, budget.used)
    rng = np.random.default_rng(seed)
    for a, b in _far_pairs(S, limit=8):
        base = _tie_tilt(f.grid.point(a), f.grid.point(b),
                         f.value_at(a), f.value_at(b))
        for _ in range(8):
            jitter = rng.normal(scale=S.grid.max_spacing, size=base.shape)
            cert = _probe(f, S, base + jitter, budget, norm, tols)
            if _is_witness(cert):
                return FarthestVerdict("WITNESS", cert.tilt, cert, budget.used)
        found = _bisect_for_tie(f, S, base, budget, norm, tols)
        if found is not None:
            return FarthestVerdict("WITNESS", found.tilt, found, budget.used)
    raise BudgetExhaustedError(
        f"no farthest-point witness for {S.name!r} within {budget.limit} probes")


@dataclass(frozen=True, eq=False)
class DetectorVerdict:
    kind: str                          # "CONVEX-CONSISTENT" | "NONCONVEX" | "UNRESOLVED"
    witness_tilt: tuple[float, ...] | None
    witness: ProjectionCertificate | None
    midpoint_convex: bool
    probes_used: int

    @property
    def agreement(self) -> bool:
        """Probe verdict matches direct grid-midpoint convexity."""
        if self.kind == "CONVEX-CONSISTENT":
            return self.midpoint_convex
        if self.kind == "NONCONVEX":
            return not self.midpoint_convex
        return False


def convexity_detector(S: ConstraintSet, n_probes: int = 200, seed: int = 42,
                       norm: NormChoice = NormChoice.L2,
                       tols: Tolerances = DEFAULT_TOLS) -> DetectorVerdict:
    """Variational convexity test: every nearest-point problem on a convex
    set is strongly posed; a nonconvex set betrays itself by a tie."""
    f = _half_sq(S.grid)
    mp_ok, _ = midpoint_convexity(S)
    budget = _Budget(max(10 * n_probes, 2000))
    lo, hi = probe_box(f)
    for s in _halton_probes(lo, hi, n_probes, seed):
        cert = _probe(f, S, s, budget, norm, tols)
        if _is_witness(cert):
            return DetectorVerdict("NONCONVEX", cert.tilt, cert, mp_ok, budget.used)
    for s in _witness_candidates(f, S, _violation_pairs_by_depth(S, f)):
        cert = _probe(f, S, s, budget, norm, tols)
        if _is_witness(cert):
            return DetectorVerdict("NONCONVEX", cert.tilt, cert, mp_ok, budget.used)
    if mp_ok:
        return DetectorVerdict("CONVEX-CONSISTENT", None, None, mp_ok, budget.used)
    rng = np.random.default_rng(seed)
    for a, b in _violation_pairs_by_depth(S, f, limit=8):
        base = _tie_tilt(f.grid.point(a), f.grid.point(b),
                         f.value_at(a), f.value_at(b))
        for _ in range(8):
            cert = _probe(f, S, base + rng.normal(scale=S.grid.max_spacing,
                                                  size=base.shape),
                          budget, norm, tols)
            if _is_witness(cert):
                return DetectorVerdict("NONCONVEX", cert.tilt, cert, mp_ok, budget.used)
        found = _bisect_for_tie(f, S, base, budget, norm, tols)
        if found is not None:
            return DetectorVerdict("NONCONVEX", found.tilt, found, mp_ok, budget.used)
    return DetectorVerdict("UNRESOLVED", None, None, mp_ok, budget.used)
