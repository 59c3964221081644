"""Subgradient estimation via Fenchel-Young gaps, and the domain chain.

A dual point s belongs to the estimated subdifferential at x when the gap
``f(x) + f*(s) - <x, s>`` is within a grid-scale threshold of zero; the
threshold grows linearly in the spacing, the dual norm of s and the local
slope, which is the first-order discretization error of a true subgradient.

The domain-chain check reads dom of d(f*) off f* alone. For convex f* the
one-sided dual-grid quotients bracket each axis projection of the
subdifferential, D-(s) <= d_i f*(s) <= D+(s) (Rockafellar, Convex Analysis,
sections 23-24), so s counts when on every axis that bracket meets the
primal interval shrunk by one cell. A trusted dual's own maximizer is an
interior primal point and a subgradient of the max-affine f*, so it lies in
the bracket: dom MJ | int(dom f*) is inside the estimate by construction,
and what can be tested is the estimate itself, against analytic conjugates.
lemma1's leg (b) reads the same bracket (``_one_sided``) beside a cell cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .conjugate import ConjugateResult, conjugate_fast
from .errors import PointOutsideDomainError
from .grids import Grid, GridFunction, NormChoice
from .tolerances import DEFAULT_TOLS


def tau_sub(f: GridFunction, x_flat: int | np.ndarray,
            s: Sequence[float] | np.ndarray | Grid,
            norm: NormChoice = NormChoice.L2) -> float | np.ndarray:
    """Gap threshold for accepting s as a subgradient at x. Elementwise
    over the rows of ``s``, at one point or one point per row; a grid
    ``s`` stands for all its points, whose dual norms it caches."""
    if isinstance(s, Grid):
        s_norm = s.lengths(norm.dual)
    else:
        s_norm = norm.dual.length(np.atleast_1d(np.asarray(s, dtype=float)))
    return DEFAULT_TOLS.gap_threshold(f.grid.max_spacing, s_norm,
                                      f.local_slopes[x_flat])


@dataclass(frozen=True, eq=False)
class SubgradientSet:
    """Trusted dual points passing the gap test at a base point."""

    base: int                 # primal flat index
    dual_grid: Grid
    members: np.ndarray       # dual flat indices, sorted by gap ascending
    gaps: np.ndarray          # matching gap values

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
    sel = f_star.trusted & (gaps <= tau_sub(f, x_flat, dg, norm))
    idx = np.flatnonzero(sel)
    order = np.argsort(gaps[idx], kind="stable")
    members = idx[order]
    return SubgradientSet(int(x_flat), dg, members, gaps[members])


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


def domain_chain_check(f: GridFunction, dual_grid: Grid) -> DomainChainReport:
    """Estimate the inclusion dom MJ | int(dom f*) inside dom of d(f*).

    dom MJ is the trusted set (a tilt belongs to it exactly when the tilted
    minimum is attained away from the primal boundary); the subdifferential
    of f* is read off f* alone (see ``_domain_chain``).
    """
    return _domain_chain(conjugate_fast(f, dual_grid))


def _one_sided(star: ConjugateResult) -> Iterator[tuple]:
    """Per axis ``ax`` and side ``k`` = 1, -1: the duals ``j`` with a neighbor
    nb = j + k h e_ax, f*(nb) - f*(j) (k h D+ or k h D- at j) and its
    ``delta0`` slack at the larger |f*| of the two."""
    fs, flat = star.dual.flat, np.arange(star.dual_grid.size)
    for ax in range(star.dual_grid.dim):
        for k in (1, -1):
            nb = star.dual_grid.shift(flat, ax, k)
            j = flat[nb >= 0]
            here, there = fs[j], fs[nb[j]]
            yield ax, k, j, there - here, DEFAULT_TOLS.delta0(
                np.maximum(np.abs(here), np.abs(there)))


def _domain_chain(star: ConjugateResult) -> DomainChainReport:
    """The check on f* already computed (``star`` of f).

    A dual s is in dom of d(f*) when on every axis the one-sided quotients
    [D-(s), D+(s)] of f* meet the interior primal coordinates [x_1, x_{n-2}];
    a missing neighbor leaves its side open, and an axis of two points has
    no interior coordinate, so then no dual counts. Each difference of
    ``_one_sided`` is held to h times its bound, less its slack.
    """
    dual_grid = star.dual_grid
    dom_sub = np.full(dual_grid.size, min(star.primal_grid.counts) > 2)
    for ax, k, j, diff, slack in _one_sided(star):   # D+ >= x_1, D- <= x_{n-2}
        edge = star.primal_grid.axes[ax][1 if k > 0 else -2]
        dom_sub[j] &= diff >= k * dual_grid.spacing[ax] * edge - slack
    dom_mj = star.trusted.copy()
    int_dom = star.trusted_interior()
    violations = np.flatnonzero((dom_mj | int_dom) & ~dom_sub)
    return DomainChainReport(dual_grid, dom_mj, int_dom, dom_sub, violations)
