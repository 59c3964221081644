"""Subgradient estimation via Fenchel-Young gaps and one-sided derivatives.

A dual point s belongs to the estimated subdifferential at x when the gap
``f(x) + f*(s) - <x, s>`` is within a grid-scale threshold of zero; the
threshold grows linearly in the spacing, the dual norm of s and the local
slope, which is the first-order discretization error of a true subgradient.

The domain-chain check screens before its full pass: a dual point s whose
own conjugate maximizer x is a usable point of f** with a gap within its
threshold is in dom of d(f*) at once. Only the remaining dual rows run
the exact pass of s against every primal point; both pair through
``Grid.pair``, so the screen is that pass's column at the maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conjugate import BiconjugateResult, ConjugateResult, biconjugate
from .errors import NoAdmissibleStepError, PointOutsideDomainError
from .grids import Grid, GridFunction, NormChoice
from .tolerances import DEFAULT_TOLS


def tau_sub(f: GridFunction, x_flat: int | np.ndarray,
            s: Sequence[float] | np.ndarray,
            norm: NormChoice = NormChoice.L2) -> float | np.ndarray:
    """Gap threshold for accepting s as a subgradient at x. Elementwise
    over an array of points with one tilt per point (the rows of ``s``)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return DEFAULT_TOLS.gap_threshold(f.grid.max_spacing, norm.dual.length(s),
                                      f.local_slopes[x_flat])


@dataclass(frozen=True, eq=False)
class SubgradientSet:
    """Trusted dual points passing the gap test at a base point."""

    base: int                 # primal flat index
    dual_grid: Grid
    members: np.ndarray       # dual flat indices, sorted by gap ascending
    gaps: np.ndarray          # matching gap values

    @property
    def empty(self) -> bool:
        return self.members.size == 0

    def points(self) -> np.ndarray:
        return self.dual_grid.points[self.members]


def subgradients(f: GridFunction, f_star: ConjugateResult, x_flat: int,
                 norm: NormChoice = NormChoice.L2) -> SubgradientSet:
    """Estimated subdifferential of f at a grid point.

    Only trusted dual points are considered; untrusted conjugate values are
    truncation artifacts. An empty set is a legal outcome.
    """
    fx = f.value_at(x_flat)
    if not np.isfinite(fx):
        raise PointOutsideDomainError(f"f is +inf at flat index {x_flat}")
    dg = f_star.dual_grid
    x = f.grid.point(x_flat)
    gaps = fx + f_star.dual.flat - dg.pair(x)
    s_norms = norm.dual.length(dg.points)
    taus = DEFAULT_TOLS.gap_threshold(f.grid.max_spacing, s_norms,
                                      f.local_slope(x_flat))
    sel = f_star.trusted & (gaps <= taus)
    idx = np.flatnonzero(sel)
    order = np.argsort(gaps[idx], kind="stable")
    members = idx[order]
    return SubgradientSet(int(x_flat), dg, members, gaps[members])


@dataclass(frozen=True)
class DirectionalDerivative:
    """One-sided derivative estimate along a grid-rational direction."""

    base: int
    direction: tuple[float, ...]   # unit vector under the chosen norm
    value: float                   # +inf when no step stays in dom f
    steps_used: tuple[int, ...]    # multiples of the reduced step that entered the min


def _reduce_steps(offset: Sequence[int]) -> np.ndarray:
    m = np.asarray([int(k) for k in offset], dtype=np.int64)
    if not m.any():
        raise ValueError("direction must be a nonzero integer step vector")
    g = int(np.gcd.reduce(np.abs(m[m != 0])))
    return m // g


def directional_derivative(f: GridFunction, x_flat: int, offset: Sequence[int],
                           norm: NormChoice = NormChoice.L2
                           ) -> DirectionalDerivative:
    """Difference-quotient estimate of f'(x, d) for a unit direction d.

    ``offset`` is an integer index offset; it is reduced to its primitive
    vector and the quotient is minimized over the first ``k_dd`` admissible
    multiples. Convex functions have nondecreasing quotients, so the
    smallest admissible step dominates the minimum.
    """
    fx = f.value_at(x_flat)
    if not np.isfinite(fx):
        raise PointOutsideDomainError(f"f is +inf at flat index {x_flat}")
    grid = f.grid
    m0 = _reduce_steps(offset)
    base = np.asarray(grid.unravel_index(x_flat), dtype=np.int64)
    delta = m0 * np.asarray(grid.spacing)
    step_len = float(norm.length(delta))
    direction = tuple(float(c) for c in delta / step_len)

    quotients: list[tuple[int, float]] = []
    on_grid = 0
    k = 0
    while len(quotients) < DEFAULT_TOLS.k_dd:
        k += 1
        pos = base + k * m0
        if not ((pos >= 0).all() and (pos < np.asarray(grid.shape)).all()):
            break
        on_grid += 1
        fu = f.value_at(grid.ravel_index(pos))
        if np.isfinite(fu):
            quotients.append((k, (fu - fx) / (k * step_len)))
    if on_grid == 0:
        raise NoAdmissibleStepError("every step along the direction leaves the grid")
    if not quotients:
        return DirectionalDerivative(int(x_flat), direction, math.inf, ())
    value = min(q for _, q in quotients)
    return DirectionalDerivative(int(x_flat), direction, float(value),
                                 tuple(k for k, _ in quotients))


@dataclass(frozen=True, eq=False)
class DomainChainReport:
    """Pointwise check of dom MJ | int(dom f*) against dom of the conjugate's subdifferential."""

    dual_grid: Grid
    dom_mj: np.ndarray        # trusted duals: tilted minimum attained inside the grid
    int_dom_conj: np.ndarray  # trusted duals whose dual neighbors are all trusted
    dom_sub_conj: np.ndarray  # duals with a nonempty estimated subdifferential of f*
    violations: np.ndarray    # dual flat indices breaking the inclusion

    @property
    def inclusion_holds(self) -> bool:
        return self.violations.size == 0


def domain_chain_check(f: GridFunction, dual_grid: Grid,
                       norm: NormChoice = NormChoice.L2) -> DomainChainReport:
    """Estimate the inclusion dom MJ | int(dom f*) inside dom of d(f*).

    dom MJ is the trusted set (a tilt belongs to it exactly when the tilted
    minimum is attained away from the primal boundary); the subdifferential
    of f* is estimated through gaps of the double conjugate.
    """
    return _domain_chain(biconjugate(f, dual_grid), norm)


def _domain_chain(bic: BiconjugateResult, norm: NormChoice) -> DomainChainReport:
    """The check on f* and f** already computed (``bic`` of f)."""
    star = bic.star
    dual_grid = star.dual_grid
    dom_mj = star.trusted.copy()
    int_dom = star.trusted_interior()

    grid = bic.function.grid
    duals = dual_grid.points
    x_norms = norm.length(grid.points)
    fss = bic.function.flat
    h_d = dual_grid.max_spacing
    fs = star.dual.flat
    slopes = star.dual.local_slopes
    usable = bic.trusted & np.isfinite(fss)
    # Screen: the exact pass's column at the conjugate's own maximizer x_k
    k = np.maximum(star.argmax, 0)
    gap_k = fs + fss[k] - grid.pair(duals, k)
    dom_sub = ((star.argmax >= 0) & usable[k]
               & (gap_k <= DEFAULT_TOLS.gap_threshold(h_d, x_norms[k], slopes)))
    rest = np.flatnonzero(~dom_sub)
    chunk = 256
    for lo in range(0, rest.size, chunk):
        rows = rest[lo:lo + chunk]
        gaps = fs[rows, None] + fss[None, :] - grid.pair(duals[rows])
        taus = DEFAULT_TOLS.gap_threshold(h_d, x_norms[None, :],
                                          slopes[rows, None])
        dom_sub[rows] = ((gaps <= taus) & usable[None, :]).any(axis=1)

    lhs = dom_mj | int_dom
    violations = np.flatnonzero(lhs & ~dom_sub)
    return DomainChainReport(dual_grid, dom_mj, int_dom, dom_sub, violations)
