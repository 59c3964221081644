"""Numeric tolerances used across modules.

All thresholds live on one frozen instance, ``DEFAULT_TOLS``, which every
module reads by that name; each rule has its single home here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Workbench-wide numeric thresholds, read from the one instance
    ``DEFAULT_TOLS``.

    Attributes:
        eps_fp: absolute floating-point slack on catalog scales.
        rel_fast: relative tolerance for fast-vs-brute conjugate equality.
        tau_c: scale factor in the subgradient gap threshold
            (``gap_threshold``).
        k_dd: multiples of the primitive step taken along each ray by the
            total-convexity ray quotients.
        bicon_c: factor in ``tol_bicon = bicon_c * h_max * lipschitz_hat``.
        cert_start_steps: certification ignores shell radii below this many
            grid steps (a minimizer falling between nodes splits its tilted
            gap across the two nearest nodes, producing a spurious zero at
            radius one step).
        cell_diag_factor: tie clusters no wider than this multiple of the
            grid cell diagonal count as a single minimizer at grid
            resolution.
    """

    eps_fp: float = 1e-9
    rel_fast: float = 1e-12
    tau_c: float = 2.0
    k_dd: int = 4
    bicon_c: float = 4.0
    cert_start_steps: float = 2.0
    cell_diag_factor: float = 1.01

    def delta0(self, t: float) -> float:
        """Rounding floor at magnitude ``t``, separating genuine zeros from
        rounding dust; elementwise when ``t`` is an array."""
        return self.eps_fp * (1.0 + t)

    def cell_limit(self, grid, norm) -> float:
        """Widest tie cluster that counts as a single minimizer at grid
        resolution: ``cell_diag_factor`` grid cell diagonals in ``norm``."""
        return grid.cell_diagonal(norm) * self.cell_diag_factor

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
        """Smallest shell radius certification uses on a grid of step ``h``.

        A quarter step below ``cert_start_steps * h``, so rounding never
        drops the first certified shell.
        """
        return self.cert_start_steps * h - 0.25 * h

    def gap_threshold(self, h: float, dual_norm: float, slope: float) -> float:
        """Largest Fenchel-Young gap a subgradient may show on a grid of
        step ``h``: ``tau_c * h * (1 + dual_norm + slope)``.

        Elementwise when ``dual_norm`` or ``slope`` are arrays.
        """
        return self.tau_c * h * (1.0 + dual_norm + slope)

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
