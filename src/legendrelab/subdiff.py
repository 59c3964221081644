"""Subgradient estimation via Fenchel-Young gaps and one-sided derivatives.

A dual point s belongs to the estimated subdifferential at x when the gap
``f(x) + f*(s) - <x, s>`` is within a grid-scale threshold of zero; the
threshold grows linearly in the spacing, the dual norm of s and the local
slope, which is the first-order discretization error of a true subgradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conjugate import ConjugateResult, biconjugate
from .errors import NoAdmissibleStepError, PointOutsideDomainError
from .grids import Grid, GridFunction, NormChoice
from .tolerances import DEFAULT_TOLS, Tolerances


def tau_sub(f: GridFunction, x_flat: int, s: Sequence[float],
            norm: NormChoice = NormChoice.L2,
            tols: Tolerances = DEFAULT_TOLS) -> float:
    """Gap threshold for accepting s as a subgradient at x."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    s_norm = float(norm.dual.length(s))
    return tols.tau_c * f.grid.max_spacing * (1.0 + s_norm + f.local_slope(x_flat))


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

    def to_dict(self) -> dict:
        return {"kind": "subgradient_set", "base": self.base,
                "members": {str(int(m)): float(g)
                            for m, g in zip(self.members, self.gaps)}}


def subgradients(f: GridFunction, f_star: ConjugateResult, x_flat: int,
                 norm: NormChoice = NormChoice.L2,
                 tols: Tolerances = DEFAULT_TOLS) -> SubgradientSet:
    """Estimated subdifferential of f at a grid point.

    Only trusted dual points are considered; untrusted conjugate values are
    truncation artifacts. An empty set is a legal outcome.
    """
    fx = f.value_at(x_flat)
    if not np.isfinite(fx):
        raise PointOutsideDomainError(f"f is +inf at flat index {x_flat}")
    dg = f_star.dual_grid
    x = f.grid.point(x_flat)
    gaps = fx + f_star.dual.flat - dg.points @ x
    s_norms = norm.dual.length(dg.points)
    taus = tols.tau_c * f.grid.max_spacing * (1.0 + s_norms + f.local_slope(x_flat))
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


def _reduce_steps(step: Sequence[int]) -> np.ndarray:
    m = np.asarray([int(k) for k in step], dtype=np.int64)
    if not m.any():
        raise ValueError("direction must be a nonzero integer step vector")
    g = int(np.gcd.reduce(np.abs(m[m != 0])))
    return m // g


def directional_derivative(f: GridFunction, x_flat: int, step: Sequence[int],
                           norm: NormChoice = NormChoice.L2,
                           tols: Tolerances = DEFAULT_TOLS) -> DirectionalDerivative:
    """Difference-quotient estimate of f'(x, d) for a unit direction d.

    ``step`` is an integer index offset; it is reduced to its primitive
    vector and the quotient is minimized over the first ``k_dd`` admissible
    multiples. Convex functions have nondecreasing quotients, so the
    smallest admissible step dominates the minimum.
    """
    fx = f.value_at(x_flat)
    if not np.isfinite(fx):
        raise PointOutsideDomainError(f"f is +inf at flat index {x_flat}")
    grid = f.grid
    m0 = _reduce_steps(step)
    base = np.asarray(grid.unravel_index(x_flat), dtype=np.int64)
    delta = m0 * np.asarray(grid.spacing)
    step_len = float(norm.length(delta))
    direction = tuple(float(c) for c in delta / step_len)

    quotients: list[tuple[int, float]] = []
    on_grid = 0
    k = 0
    while len(quotients) < tols.k_dd:
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

    def to_dict(self) -> dict:
        """Records keyed by dual grid index (only indices in some set)."""
        records = {}
        any_set = self.dom_mj | self.int_dom_conj | self.dom_sub_conj
        for j in np.flatnonzero(any_set):
            records[str(int(j))] = {
                "dom_mj": bool(self.dom_mj[j]),
                "int_dom_conjugate": bool(self.int_dom_conj[j]),
                "dom_subdiff_conjugate": bool(self.dom_sub_conj[j]),
            }
        return {"kind": "domain_chain_report",
                "inclusion_holds": self.inclusion_holds,
                "violations": [int(v) for v in self.violations],
                "records": records}


def domain_chain_check(f: GridFunction, dual_grid: Grid,
                       norm: NormChoice = NormChoice.L2,
                       tols: Tolerances = DEFAULT_TOLS) -> DomainChainReport:
    """Estimate the inclusion dom MJ | int(dom f*) inside dom of d(f*).

    dom MJ is the trusted set (a tilt belongs to it exactly when the tilted
    minimum is attained away from the primal boundary); the subdifferential
    of f* is estimated through gaps of the double conjugate.
    """
    bic = biconjugate(f, dual_grid, tols=tols)
    star = bic.star
    dom_mj = star.trusted.copy()
    int_dom = star.trusted_interior()

    pts = f.grid.points
    duals = dual_grid.points
    x_norms = norm.length(pts)
    fss = bic.function.flat
    h_d = dual_grid.max_spacing
    dom_sub = np.zeros(dual_grid.size, dtype=bool)
    chunk = 256
    usable = bic.trusted & np.isfinite(fss)
    for lo in range(0, dual_grid.size, chunk):
        hi = min(lo + chunk, dual_grid.size)
        gaps = (star.dual.flat[lo:hi, None] + fss[None, :]
                - duals[lo:hi] @ pts.T)
        slopes = np.array([star.dual.local_slope(i) for i in range(lo, hi)])
        taus = tols.tau_c * h_d * (1.0 + x_norms[None, :] + slopes[:, None])
        dom_sub[lo:hi] = ((gaps <= taus) & usable[None, :]).any(axis=1)

    lhs = dom_mj | int_dom
    violations = np.flatnonzero(lhs & ~dom_sub)
    return DomainChainReport(dual_grid, dom_mj, int_dom, dom_sub, violations)
