"""Relative projection problems min f(x) - <x, s> over a closed grid set.

Includes the strong-Tchebychev probe test, the farthest-point experiment
(f = -||.||^2/2), and the convexity detector (f = ||.||^2/2). Universal
"for every tilt" claims are always reported as "no failure over N probes".
A projection tilts the grid once, then reads the shells of the members of
S only: past the tilt it costs O(|S|) plus one entry per shell. All three wrap
one witness-search engine: Halton probes and exact tie tilts from member
pairs (midpoint-convexity violations or far pairs) in the caller's order,
then jittered tie tilts and bisection toward the tie, from a budget of
exactly what those stages can spend. Every probe is a row of one stream:
tilts go through the row core of ``moduli`` as the rows of member-set
blocks, computed as they are read, and the budget is spent once per row
read. A stage reads up to its first tilt that is not strongly posed, the
walk up to its first minimizer jump, and each bisection step is a stream
of one row; each row is the report a one-row
``solve_relative_projection`` gives, so the witness and the count are
those of probing one tilt at a time.

Midpoint convexity screens before it tests pairs: the floor/ceil midpoints
of a member pair depend only on its index sum, so one FFT self-convolution
of the mask gives every reachable sum and each is checked once. Member
pairs are enumerated, in (i, j) order, only when some sum fails, to list
the violating pairs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExhaustedError, InfeasibleProblemError
from .grids import (Grid, GridFunction, NormChoice, _evenly, _fold_last_axis,
                    build_grid_function)
from .moduli import (Modulus, WellposednessReport, _by_blocks,
                     _wellposed_rows, wellposedness_modulus)


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

    @cached_property
    def members(self) -> np.ndarray:
        mem = np.flatnonzero(self.mask)
        mem.flags.writeable = False
        return mem

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    def member_points(self) -> np.ndarray:
        return self.grid.points[self.members]

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
                              s: Sequence[float]) -> ProjectionCertificate:
    """Exact minimization of f - <., s> over the finite set S."""
    if not f.domain_flat[S.members].any():
        raise InfeasibleProblemError("S does not meet dom f")
    return _certificate(f, S, *wellposedness_modulus(f, s, members=S.members))


def _certificate(f: GridFunction, S: ConstraintSet, mod: Modulus,
                 rep: WellposednessReport) -> ProjectionCertificate:
    pt = f.grid.point(rep.minimizer)
    return ProjectionCertificate(f.name, S.name, rep.tilt, rep.minimizer,
                                 tuple(float(c) for c in pt), rep.min_value,
                                 rep.strong, rep, mod)


MAX_VIOLATIONS = 200
_PAIR_BLOCK = 1 << 18      # member pairs per block when violations are listed
_DEPTH_BLOCK = 1 << 15     # (violation, member) distances per block


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
    # Power-of-two lengths: numpy's FFT is slow on lengths with large prime
    # factors, such as 2 * 101 - 1 = 201.
    padded = [1 << (n - 1).bit_length() for n in lattice]
    axes = tuple(range(len(shape)))
    spec = np.fft.rfftn(box.astype(float), padded, axes=axes)
    pair_counts = np.fft.irfftn(spec * spec, padded,
                                axes=axes)[tuple(map(slice, lattice))]
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
        keep = ((bad_i + lo) < bad_j).nonzero()[0]
        keep = keep[:MAX_VIOLATIONS - len(violations)]
        violations.extend(zip(mem[bad_i[keep] + lo].tolist(),
                              mem[bad_j[keep]].tolist()))
        if len(violations) == MAX_VIOLATIONS:
            break
    return False, violations


def _halton_probes(box_lo: np.ndarray, box_hi: np.ndarray, n: int,
                   seed: int) -> np.ndarray:
    """n Owen-scrambled Halton points (Owen, arXiv:1706.02808) in the box,
    bitwise equal to ``scipy.stats.qmc.Halton(d, scramble=True,
    seed=seed).random(n)``: one digit permutation per base-b digit that a
    double resolves (b**-k > 2**-54), the digits summed lowest first."""
    rng = np.random.default_rng(seed)
    primes = itertools.islice((p for p in itertools.count(2)
                               if all(p % q for q in range(2, p))), box_lo.size)
    u = np.zeros((n, box_lo.size))
    for axis, b in enumerate(primes):
        perms = np.tile(np.arange(b), (math.ceil(54 / math.log2(b)) - 1, 1))
        for perm in perms:
            rng.shuffle(perm)
        q, scale = np.arange(n), 1.0 / b
        for perm in perms:
            u[:, axis] += perm[q % b] * scale
            q, scale = q // b, scale / b
    return box_lo[None, :] + u * (box_hi - box_lo)[None, :]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a_0 b_0 + a_1 b_1 + ... in axis order in Python floats, never BLAS,
    whose kernel may fuse or reorder them."""
    return functools.reduce(operator.add, map(operator.mul, a.tolist(), b.tolist()))


def _tie_tilt(u: np.ndarray, v: np.ndarray, fu: float, fv: float) -> np.ndarray:
    """Tilt making u and v share the tilted value exactly (l2 construction).

    The minimum-norm solution of <u - v, s> = f(u) - f(v), shifted inside
    the solution line toward the pair midpoint; for f = ||.||^2/2 this is
    exactly the midpoint of u and v.
    """
    d = u - v
    dd = _dot(d, d)
    mid = (u + v) / 2.0
    base = ((fu - fv) / dd) * d
    perp = mid - (_dot(mid, d) / dd) * d
    return base + perp


def _far_pairs(S: ConstraintSet, limit: int = 24) -> list[tuple[int, int]]:
    """Member pairs of near-maximal separation, from a capped subsample:
    farthest first, equal separations in descending (i, j) order."""
    mem = _evenly(S.members, 400)
    pts = S.grid.points[mem]
    i, j = np.triu_indices(mem.size, k=1)
    d2 = _fold_last_axis(np.add, (pts[i] - pts[j]) ** 2)
    top = np.argsort(d2, kind="stable")[::-1][:limit]
    return list(zip(mem[i[top]].tolist(), mem[j[top]].tolist()))


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExhaustedError(f"probe budget {self.limit} exhausted")


# Grid points per block of probed tilts (12 rows on 101^2, whatever the
# set): a row tilts only the members of S, so the (rows, |S|) tables stay
# within it. Blocks of 12-25 rows ran prop6 and cor4 faster than one row
# or 51 rows a block; classify keeps the smaller ``moduli._ROW_BLOCK``.
_PROBE_BLOCK = 1 << 17


def _probes(f: GridFunction, S: ConstraintSet, tilts: Sequence[np.ndarray],
            budget: _Budget) -> Iterator[tuple[Modulus, WellposednessReport]]:
    """The (curve, report) rows of the projections of ``tilts`` on S, from
    member-set row blocks computed as they are read; one probe is spent per
    row read."""
    for row in _by_blocks(_wellposed_rows, f, tilts, norm=NormChoice.L2,
                          members=S.members, block=_PROBE_BLOCK):
        budget.spend()
        yield row


def _first_failure(f: GridFunction, S: ConstraintSet,
                   tilts: Sequence[np.ndarray], budget: _Budget
                   ) -> ProjectionCertificate | None:
    """The projection on S of the first of ``tilts`` that is not strong
    (None if all are)."""
    return next((_certificate(f, S, mod, rep)
                 for mod, rep in _probes(f, S, tilts, budget)
                 if not rep.strong), None)


_WALK_STEPS = 16       # quarter-extent steps of the walk before bisection
_BISECTIONS = 60
_REFINED_PAIRS = 8     # leading pairs the refine stage works on
_JITTERS = 8           # jittered tie tilts per refined pair
_REFINE_PROBES = _JITTERS + 1 + _WALK_STEPS + _BISECTIONS


def _bisect_for_tie(f: GridFunction, S: ConstraintSet, s0: np.ndarray,
                    budget: _Budget) -> ProjectionCertificate | None:
    """Walk the tilt away from its minimizer until the argmin jumps, then
    bisect toward the crossing; at the crossing two branches tie. The
    walk's tilts depend only on the first probe, so they are one stream."""
    mod, rep0 = next(_probes(f, S, [s0], budget))
    if not rep0.strong:
        return _certificate(f, S, mod, rep0)
    x0 = f.grid.point(rep0.minimizer)
    direction = s0 - x0 if (s0 != x0).any() else np.ones_like(s0)
    direction = direction / math.sqrt(_dot(direction, direction))
    walk = f.grid.corner_extent * np.arange(1, _WALK_STEPS + 1) / 4.0
    lam_lo, lam_hi = 0.0, None
    for lam, (mod, rep) in zip(walk, _probes(
            f, S, x0 + walk[:, None] * direction, budget)):
        if not rep.strong:
            return _certificate(f, S, mod, rep)
        if rep.minimizer != rep0.minimizer:
            lam_hi = lam
            break
        lam_lo = lam
    if lam_hi is None:
        return None
    for _ in range(_BISECTIONS):
        lam = (lam_lo + lam_hi) / 2.0
        mod, rep = next(_probes(f, S, [x0 + lam * direction], budget))
        if not rep.strong:
            return _certificate(f, S, mod, rep)
        if rep.minimizer == rep0.minimizer:
            lam_lo = lam
        else:
            lam_hi = lam
    return None


def _witness_candidates(f: GridFunction,
                        pairs: list[tuple[int, int]]) -> list[np.ndarray]:
    """Exact tie tilts of the pairs whose two values are finite."""
    return [_tie_tilt(f.grid.point(a), f.grid.point(b), f.value_at(a), f.value_at(b))
            for a, b in pairs if np.isfinite(f.flat[[a, b]]).all()]


def _witness_search(f: GridFunction, S: ConstraintSet,
                    stages: list[Sequence[np.ndarray]],
                    refine_pairs: list[tuple[int, int]], seed: int
                    ) -> tuple[ProjectionCertificate | None, _Budget]:
    """The first probe whose projection on S is not strong (or None), and
    the budget, sized to exactly what the stages below can spend.

    Probes the tilts of each stage in order, then refines the leading
    pairs: per pair, tie tilts plus Gaussian noise of one grid step (one
    generator across all pairs), then bisection from the exact tie tilt
    (None when it finds no tie).
    """
    bases = _witness_candidates(f, refine_pairs[:_REFINED_PAIRS])
    budget = _Budget(sum(map(len, stages)) + _REFINE_PROBES * len(bases))

    def tries():
        for stage in stages:
            yield _first_failure(f, S, stage, budget)
        rng = np.random.default_rng(seed)
        for base in bases:
            jitters = rng.normal(scale=S.grid.max_spacing,
                                 size=(_JITTERS, base.size))
            yield _first_failure(f, S, base + jitters, budget)
            yield _bisect_for_tie(f, S, base, budget)

    return next((c for c in tries() if c is not None), None), budget


def _violation_pairs_by_depth(S: ConstraintSet,
                              violations: list[tuple[int, int]],
                              limit: int = 40) -> list[tuple[int, int]]:
    """Midpoint-convexity violations, deepest midpoints first: by the
    distance from each pair's midpoint to the nearest member."""
    if not violations:
        return []
    pts = S.grid.points
    spts = S.member_points()
    a, b = np.array(violations).T
    mids = (pts[a] + pts[b]) / 2.0
    chunk = max(1, _DEPTH_BLOCK // len(spts))
    d2 = []
    for lo in range(0, len(mids), chunk):
        # (pairs, members) squared distances, summed over the axes in order
        # as numpy sums a short last axis (m - p squares to the bits of
        # p - m); sqrt is monotone, so it can follow the min
        block = mids[lo:lo + chunk]
        sq = np.zeros((len(block), len(spts)))
        for ax in range(pts.shape[1]):
            diff = block[:, ax, None] - spts[:, ax]
            diff *= diff
            sq += diff
        d2.append(sq.min(axis=1))
    order = np.argsort(np.sqrt(np.concatenate(d2)), kind="stable")[::-1]
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
                    n_probes: int = 200, seed: int = 42) -> TchebychevReport:
    """Probe for a tilt whose relative projection on S is not strong.

    Runs low-discrepancy probes plus exact tie tilts built from member
    pairs that violate midpoint convexity (where ties are geometrically
    forced); reports the first failure, never the universal claim.

    On a bounded grid every tilted objective is automatically coercive
    (cofinite), so passing probes over a convex S cannot separate the
    coercivity hypothesis of the converse statement from the rest; the
    grid simply never exhibits the non-cofinite failure mode.
    """
    if not f.domain_flat[S.members].any():
        raise InfeasibleProblemError("S does not meet dom f")
    mp_ok, violations = midpoint_convexity(S, domain=f.domain_flat)
    pairs = _violation_pairs_by_depth(S, violations)
    cert, budget = _witness_search(
        f, S, [_halton_probes(*probe_box(f), n_probes, seed),
               _witness_candidates(f, pairs)], [], seed)
    if cert is None:
        return TchebychevReport(True, budget.used, None, None, mp_ok)
    return TchebychevReport(False, budget.used, cert.tilt, cert, mp_ok)


@dataclass(frozen=True, eq=False)
class FarthestVerdict:
    kind: str                          # "SINGLETON-CONSISTENT" | "WITNESS"
    witness_tilt: tuple[float, ...] | None
    witness: ProjectionCertificate | None
    probes_used: int


def _half_sq(grid: Grid, sign: float) -> GridFunction:
    """sign * ||x||^2 / 2: +1 for the detector, -1 for the farthest search."""
    return build_grid_function(grid, lambda p: sign * 0.5 * (p * p).sum(axis=-1),
                               name=f"{sign * 0.5:g}|x|^2", vectorized=True)


def farthest_point_experiment(S: ConstraintSet, n_probes: int = 200,
                              seed: int = 42) -> FarthestVerdict:
    """Strong-maximum probe of ||.||^2/2 + tilt over S.

    Singletons must survive every probe; any larger set must yield a tie
    witness (farthest points from the midpoint of a far pair tie exactly).
    Raises BudgetExhaustedError when a multi-point set defeats the search.
    """
    f = _half_sq(S.grid, -1.0)
    pairs = _far_pairs(S)
    cert, budget = _witness_search(
        f, S, [_witness_candidates(f, pairs),
               _halton_probes(*probe_box(f), n_probes, seed)],
        pairs, seed)
    if cert is not None:
        return FarthestVerdict("WITNESS", cert.tilt, cert, budget.used)
    if S.size == 1:
        return FarthestVerdict("SINGLETON-CONSISTENT", None, None, budget.used)
    raise BudgetExhaustedError(
        f"no farthest-point witness for {S.name!r} after "
        f"{budget.used} of {budget.limit} probes")


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


def convexity_detector(S: ConstraintSet, n_probes: int = 200,
                       seed: int = 42) -> DetectorVerdict:
    """Variational convexity test: every nearest-point problem on a convex
    set is strongly posed; a nonconvex set betrays itself by a tie."""
    f = _half_sq(S.grid, 1.0)
    mp_ok, violations = midpoint_convexity(S)
    pairs = _violation_pairs_by_depth(S, violations)
    cert, budget = _witness_search(
        f, S, [_halton_probes(*probe_box(f), n_probes, seed),
               _witness_candidates(f, pairs)], pairs, seed)
    if cert is not None:
        return DetectorVerdict("NONCONVEX", cert.tilt, cert, mp_ok, budget.used)
    return DetectorVerdict("CONVEX-CONSISTENT" if mp_ok else "UNRESOLVED",
                           None, None, mp_ok, budget.used)
