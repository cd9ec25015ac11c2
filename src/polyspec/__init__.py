"""Numerical verification toolkit for universal Dirichlet eigenvalue
inequalities of polyharmonic operators on desk-scale grids."""

# the only version literal; defined before the submodules, which read it
__version__ = "0.1.0"

from .algebra import (
    CheckResult,
    ChiLambdaCouple,
    ExponentPair,
    MonotoneTriple,
    chebyshev_sum_holds,
    chi_lambda_member,
    generalized_chebyshev_holds,
    power_mean_holds,
    quadratic_chebyshev_holds,
)
from .bounds import (
    BoundCheck,
    BoundParams,
    admissible_grid,
    comparison_table,
    ppw_gap_bound,
    quadratic_gap_bound,
    recursive_upper_chain,
    spectral_gap_bound,
    yang_first_inequality,
    yang_second_inequality,
    yang_type_case,
    yang_type_general,
    yang_type_simplified,
)
from .eigensolve import SolverError, Spectrum, smallest_eigenpairs
from .grids import DomainSpec, GridFunction
from .harness import RunConfig, run
from .operators import (
    DiscreteOperator,
    build_laplacian,
    build_polyharmonic,
    central_difference,
    commutator_residual,
    coordinate_multiply,
)
from .oracles import (
    analytic_spectrum,
    box_eigenvalues,
    clamped_rod_constants,
    clamped_rod_eigenvalues,
    interval_eigenvalues,
)
from .report import VerificationReport, load_report
