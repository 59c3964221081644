"""legendrelab: a desk-scale convex-duality workbench on box grids.

Discrete Legendre-Fenchel conjugation (brute-force oracle and a separable
max-plus fast transform, O(n*m) per axis), Fenchel-Young subgradient
estimation, shell-infimum moduli of firm subdifferentiability / total
convexity / well-posedness, a convexity-hierarchy classifier, and
relative-projection experiments on grid sets.
"""

from .catalog import CatalogEntry, entries, entry, make_set
from .classify import (ClassificationReport, SamplePlan, classify,
                       default_sample_plan, lemma1_agreement)
from .conjugate import (BiconjugateResult, ConjugateResult, biconjugate,
                        conjugate, conjugate_brute, conjugate_fast,
                        conjugate_value)
from .errors import (BudgetExhaustedError, EmptyDomainError,
                     InfeasibleProblemError, InsufficientDataError,
                     IoFailureError, LegendreLabError, NoAdmissibleStepError,
                     NotASubgradientError, PointOutsideDomainError,
                     SchemaViolationError)
from .grids import (Grid, GridFunction, NormChoice, Shell,
                    build_grid_function, grid_1d, grid_2d, shell,
                    shell_ladder)
from .moduli import (CoercivityReport, Gamma0Certificate, Modulus,
                     WellposednessReport, certification_verdict,
                     certify_gamma0, coercivity_check, firm_modulus,
                     total_convexity_modulus, uniform_firm_modulus,
                     wellposedness_modulus)
from .projections import (ConstraintSet, DetectorVerdict, FarthestVerdict,
                          ProjectionCertificate, TchebychevReport,
                          convexity_detector, farthest_point_experiment,
                          midpoint_convexity, solve_relative_projection,
                          tchebychev_test)
from .subdiff import (DirectionalDerivative, DomainChainReport,
                      SubgradientSet, directional_derivative,
                      domain_chain_check, subgradients, tau_sub)
from .tolerances import DEFAULT_TOLS, Tolerances

__version__ = "0.1.0"
