"""Numeric tolerances used across modules.

Every verdict-deciding cut is a method of ``Tolerances`` that holds its
factors in its body; each rule has its single home here. Every module reads
the one instance ``DEFAULT_TOLS`` by that name. Nothing is settable: the
class takes no constructor argument and its instances have no attributes
of their own.
"""

from __future__ import annotations


class Tolerances:
    """Workbench-wide numeric cuts, read from the one instance
    ``DEFAULT_TOLS``.

    Attributes:
        eps_fp: absolute floating-point slack on catalog scales.
        rel_fast: relative tolerance for fast-vs-brute conjugate equality.
    """

    __slots__ = ()
    eps_fp = 1e-9
    rel_fast = 1e-12

    def delta0(self, t: float) -> float:
        """Rounding floor at magnitude ``t``, separating genuine zeros from
        rounding dust; elementwise when ``t`` is an array."""
        return self.eps_fp * (1.0 + t)

    def bicon(self, h: float, lipschitz: float, scale: float) -> float:
        """Largest gap |f** - f| of a convex lsc f on a grid of step ``h``:
        the first-order conjugation error ``4 h lipschitz``, floored by
        ``delta0`` of the largest |f| on the domain, ``scale``."""
        return max(4.0 * h * lipschitz, self.delta0(scale))

    def cell_limit(self, grid, norm) -> float:
        """Widest tie cluster that counts as a single minimizer at grid
        resolution: 1.01 grid cell diagonals in ``norm``."""
        return float(norm.length(grid.spacing)) * 1.01

    def preimage_bound(self, grid) -> float:
        """Widest bounded tilted preimage, and differentiable bracket of f*."""
        return 0.25 * grid.corner_extent

    def jump_limit(self, grid, dual_grid) -> float:
        """Widest move of the tilted minimizer between neighbor duals that
        is no jump: four steps of the coarser of the two grids."""
        return 4.0 * max(grid.max_spacing, dual_grid.max_spacing)

    def outer_radius(self, r_max: float) -> float:
        """Radius beyond which a shell about the minimum is outer, for the
        coercivity growth test: half the largest radius ``r_max``."""
        return r_max / 2.0

    def cert_min_radius(self, h: float) -> float:
        """Smallest shell radius certification uses on a grid of step ``h``
        (0 where no step is known, so every positive radius is kept).

        Certification ignores radii below two steps: a minimizer falling
        between nodes splits its tilted gap across the two nearest nodes,
        producing a spurious zero at radius one step. The cut sits a
        quarter step below, so rounding never drops the first certified
        shell.
        """
        return 2.0 * h - 0.25 * h

    def gap_threshold(self, h: float, dual_norm: float, slope: float) -> float:
        """Largest Fenchel-Young gap a subgradient may show on a grid of
        step ``h``: ``2 h (1 + dual_norm + slope)``.

        Elementwise when ``dual_norm`` or ``slope`` are arrays.
        """
        return 2.0 * h * (1.0 + dual_norm + slope)

    def tie_slack(self, min_value, tilt_l1, bounds) -> float:
        """Slack within which a tilted value ties the tilted minimum
        ``min_value``: ``eps_fp * (1 + |min_value| + tilt_l1 * coord)``, with
        ``tilt_l1`` the l1 norm of the tilt and ``coord`` the largest
        ``|lo| + |hi|`` over the grid ``bounds``.

        Elementwise when ``min_value`` or ``tilt_l1`` are arrays.
        """
        coord = max(abs(lo) + abs(hi) for lo, hi in bounds)
        return self.eps_fp * (1.0 + abs(min_value) + tilt_l1 * coord)


DEFAULT_TOLS = Tolerances()
