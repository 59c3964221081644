"""Relative projection problems min f(x) - <x, s> over a closed grid set.

Includes the strong-Tchebychev probe test, the farthest-point experiment
(f = -||.||^2/2), and the convexity detector (f = ||.||^2/2). Universal
"for every tilt" claims are always reported as "no failure over N probes".
All three run one staged witness search over one probe budget: Halton
probes, exact tie tilts from member pairs (from one midpoint-convexity pass,
or far pairs), then jittered tie tilts and bisection toward the tie.

Midpoint convexity screens before it tests pairs: the floor/ceil midpoints
of a member pair depend only on its index sum, so one FFT self-convolution
of the mask gives every reachable sum and each is checked once. Member
pairs are enumerated, in (i, j) order, only when some sum fails, to list
the violating pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import fft as sfft
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


MAX_VIOLATIONS = 200
_PAIR_BLOCK = 1 << 18      # member pairs per block when violations are listed


def midpoint_convexity(S: ConstraintSet, domain: np.ndarray | None = None
                       ) -> tuple[bool, list[tuple[int, int]]]:
    """Discrete midpoint convexity of the member set.

    For each member pair, some grid point obtained by per-axis floor/ceil
    rounding of the half-sum of indices must belong to the set (rounding to
    a single nearest point would reject convex continuum sets whose edges
    alias across cells). The midpoints depend on a pair only through its
    index sum, so every reachable sum (one FFT self-convolution of the mask)
    is checked once; pairs are enumerated only when some sum fails, and at
    most ``MAX_VIOLATIONS`` violating pairs are returned, in (i, j) order.
    """
    mask = S.mask if domain is None else (S.mask & domain)
    mem = np.flatnonzero(mask)
    if mem.size <= 1:
        return True, []
    shape = S.grid.shape
    box = mask.reshape(shape)
    lattice = tuple(2 * n - 1 for n in shape)
    fast = [sfft.next_fast_len(n, real=True) for n in lattice]
    spec = sfft.rfftn(box.astype(float), fast)
    pair_counts = sfft.irfftn(spec * spec, fast)[tuple(map(slice, lattice))]
    # The counts are integers and the FFT's rounding error is of order
    # |S| * log(lattice size) ulps, far below the half a count that
    # separates a reachable sum from an unreachable one.
    reached = pair_counts > 0.5
    hit = np.zeros(lattice, dtype=bool)
    for bits in range(1 << len(shape)):
        hit |= box[np.ix_(*[(np.arange(n) + ((bits >> ax) & 1)) // 2
                            for ax, n in enumerate(lattice)])]
    failed = (reached & ~hit).ravel()
    if not failed.any():
        return True, []

    # Members as flat lattice indices: a pair's index sum is then the sum
    # of its two keys.
    keys = np.ravel_multi_index(np.unravel_index(mem, shape), lattice)
    violations: list[tuple[int, int]] = []
    chunk = max(1, _PAIR_BLOCK // mem.size)
    for lo in range(0, mem.size, chunk):
        hi = min(lo + chunk, mem.size)
        bad_i, bad_j = np.nonzero(failed[keys[lo:hi, None] + keys[None, :]])
        keep = (bad_i + lo) < bad_j
        violations.extend(zip(mem[bad_i[keep] + lo].tolist(),
                              mem[bad_j[keep]].tolist()))
        if len(violations) >= MAX_VIOLATIONS:
            break
    return False, violations[:MAX_VIOLATIONS]


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
    if not cert0.strong:
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
        if not cert.strong:
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
        if not cert.strong:
            return cert
        if cert.minimizer == cert_lo.minimizer:
            lam_lo = lam
        else:
            lam_hi = lam
    return None


def _search(f: GridFunction, S: ConstraintSet, budget: _Budget,
            norm: NormChoice, tols: Tolerances,
            *stages: Iterable[np.ndarray]) -> ProjectionCertificate | None:
    """Probe the tilts of each stage in order; the first witness, or None."""
    for stage in stages:
        for s in stage:
            cert = _probe(f, S, s, budget, norm, tols)
            if not cert.strong:
                return cert
    return None


def _refine(f: GridFunction, S: ConstraintSet, pairs: list[tuple[int, int]],
            seed: int, budget: _Budget, norm: NormChoice,
            tols: Tolerances) -> ProjectionCertificate | None:
    """Last stage: per member pair, 8 tie tilts plus Gaussian noise of one
    grid step (one generator across all pairs), then bisection from the
    exact tie tilt."""
    rng = np.random.default_rng(seed)
    for a, b in pairs:
        base = _tie_tilt(f.grid.point(a), f.grid.point(b),
                         f.value_at(a), f.value_at(b))
        jittered = (base + rng.normal(scale=S.grid.max_spacing, size=base.shape)
                    for _ in range(8))
        found = (_search(f, S, budget, norm, tols, jittered)
                 or _bisect_for_tie(f, S, base, budget, norm, tols))
        if found is not None:
            return found
    return None


def _witness_candidates(f: GridFunction,
                        pairs: list[tuple[int, int]]) -> list[np.ndarray]:
    out = []
    for a, b in pairs:
        u = f.grid.point(a)
        v = f.grid.point(b)
        fu, fv = f.value_at(a), f.value_at(b)
        if np.isfinite(fu) and np.isfinite(fv):
            out.append(_tie_tilt(u, v, fu, fv))
    return out


def _violation_pairs_by_depth(S: ConstraintSet,
                              violations: list[tuple[int, int]],
                              limit: int = 40) -> list[tuple[int, int]]:
    """Midpoint-convexity violations, deepest midpoints first."""
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

    @property
    def verdict(self) -> str:
        if self.passed:
            return f"no failure found over {self.n_probes} probes"
        return f"failure at tilt {self.witness_tilt}"


def probe_box(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Default tilt sampling box: the primal bounds shrunk by a 10% margin
    per side."""
    lo = np.array([b[0] for b in f.grid.bounds])
    hi = np.array([b[1] for b in f.grid.bounds])
    pad = 0.1 * (hi - lo)
    return lo + pad, hi - pad


def tchebychev_test(f: GridFunction, S: ConstraintSet,
                    n_probes: int = 200, seed: int = 42,
                    norm: NormChoice = NormChoice.L2,
                    tols: Tolerances = DEFAULT_TOLS) -> TchebychevReport:
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
    mp_ok, violations = midpoint_convexity(S, domain=f.domain_flat)
    budget = _Budget(max(10 * n_probes, 2000))
    pairs = _violation_pairs_by_depth(S, violations)
    cert = _search(f, S, budget, norm, tols,
                   _halton_probes(*probe_box(f), n_probes, seed),
                   _witness_candidates(f, pairs))
    if cert is None:
        return TchebychevReport(True, budget.used, None, None, mp_ok)
    return TchebychevReport(False, budget.used, cert.tilt, cert, mp_ok)


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
    halton = _halton_probes(*probe_box(f), n_probes, seed)
    if S.size == 1:
        cert = _search(f, S, budget, norm, tols, halton)
        if cert is None:
            return FarthestVerdict("SINGLETON-CONSISTENT", None, None, budget.used)
    else:
        pairs = _far_pairs(S)
        cert = (_search(f, S, budget, norm, tols,
                        _witness_candidates(f, pairs), halton)
                or _refine(f, S, pairs[:8], seed, budget, norm, tols))
        if cert is None:
            raise BudgetExhaustedError(
                f"no farthest-point witness for {S.name!r} after "
                f"{budget.used} of {budget.limit} probes")
    return FarthestVerdict("WITNESS", cert.tilt, cert, budget.used)


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
    mp_ok, violations = midpoint_convexity(S)
    budget = _Budget(max(10 * n_probes, 2000))
    pairs = _violation_pairs_by_depth(S, violations)
    cert = _search(f, S, budget, norm, tols,
                   _halton_probes(*probe_box(f), n_probes, seed),
                   _witness_candidates(f, pairs))
    if cert is None and not mp_ok:
        cert = _refine(f, S, pairs[:8], seed, budget, norm, tols)
    if cert is not None:
        return DetectorVerdict("NONCONVEX", cert.tilt, cert, mp_ok, budget.used)
    return DetectorVerdict("CONVEX-CONSISTENT" if mp_ok else "UNRESOLVED",
                           None, None, mp_ok, budget.used)
