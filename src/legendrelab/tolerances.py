"""Numeric tolerances used across modules.

All thresholds live in one frozen config so tests and the CLI can pin or
override them in a single place.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Workbench-wide numeric thresholds.

    Attributes:
        eps_fp: absolute floating-point slack on catalog scales.
        rel_fast: relative tolerance for fast-vs-brute conjugate equality.
        tau_c: scale factor in the subgradient gap threshold
            ``tau = tau_c * h * (1 + |s|_dual + local_slope)``.
        k_dd: number of admissible steps probed by directional derivatives.
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
        """Positivity floor separating genuine zeros from rounding dust.

        Elementwise when ``t`` is an array of radii.
        """
        return self.eps_fp * (1.0 + t)

    def cert_min_radius(self, h: float) -> float:
        """Smallest shell radius certification uses on a grid of step ``h``.

        A quarter step below ``cert_start_steps * h``, so rounding never
        drops the first certified shell.
        """
        return self.cert_start_steps * h - 0.25 * h


DEFAULT_TOLS = Tolerances()
