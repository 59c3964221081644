"""legendrelab: a desk-scale convex-duality workbench on box grids.

Discrete Legendre-Fenchel conjugation (brute-force oracle and a separable
max-plus fast transform, O(n*m) per axis), Fenchel-Young subgradient
estimation, shell-infimum moduli of firm subdifferentiability / total
convexity / well-posedness, a convexity-hierarchy classifier, and
relative-projection experiments on grid sets.

``LL_THREADS=<n>`` caps the BLAS and OpenMP thread pools. The cap is set
here, before any submodule imports numpy, because the pools are sized when
numpy loads; it has no effect if numpy was imported first, and it never
overrides a thread variable that is already set. ``LL_THREADS=1`` also
keeps ``verify-paper`` in one process (read when each run starts).
"""

import os as _os

if _os.environ.get("LL_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["LL_THREADS"])

from .catalog import CatalogEntry, entries, entry, make_set
from .classify import (ClassificationReport, SamplePlan, classify,
                       default_sample_plan, lemma1_agreement)
from .conjugate import (BiconjugateResult, ConjugateResult, biconjugate,
                        conjugate_brute, conjugate_fast, conjugate_value)
from .errors import (BudgetExhaustedError, EmptyDomainError,
                     InfeasibleProblemError, IoFailureError, LegendreLabError,
                     NotASubgradientError, PointOutsideDomainError,
                     SchemaViolationError)
from .grids import (Grid, GridFunction, NormChoice, build_grid_function,
                    grid_1d, grid_2d, shell_ladder)
from .moduli import (CoercivityReport, Gamma0Certificate, Modulus,
                     WellposednessReport, certification_verdict,
                     coercivity_check, firm_modulus, total_convexity_modulus,
                     wellposedness_modulus)
from .projections import (ConstraintSet, DetectorVerdict, FarthestVerdict,
                          ProjectionCertificate, TchebychevReport,
                          convexity_detector, farthest_point_experiment,
                          midpoint_convexity, solve_relative_projection,
                          tchebychev_test)
from .subdiff import (DomainChainReport, SubgradientSet, domain_chain_check,
                      subgradients, tau_sub)
from .tolerances import DEFAULT_TOLS, Tolerances

__version__ = "0.1.0"
