"""Multilevel quasi-Monte Carlo for elliptic eigenproblems with random coefficients.

The package estimates the expected smallest eigenvalue of

    -div(a(x,y) grad u) + b(x,y) u = lambda c(x) u   on (0,1)^2,  u = 0 on the boundary,

where a and b are affine in uniformly distributed parameters y.  Sample
evaluations combine P1 finite elements, Rayleigh-quotient iteration with
two-grid acceleration, and warm starts from nearby lattice points; the
estimators layer telescopes levels and averages over random shifts.
"""

from .problems import (
    CoefficientSeries,
    SeparableTerms,
    make_problem,
    problem1,
    problem2,
    zeta,
)
from .mesh_fem import (
    CoefficientBoundError,
    TriMesh,
    build_uniform_mesh,
    mass_interior,
    prolongate,
    stiffness_interior,
)
from .sparse_linalg import (
    FactorizedOperator,
    SingularShiftError,
    factorize_shifted,
    m_inner,
    rayleigh_quotient,
)
from .eigensolver import (
    Eigenpair,
    NoConvergenceError,
    SolveStats,
    rq_iteration,
    smallest_eigenpair_cold,
    two_grid_fine_update,
    warm_start_from,
)
from .qmc import (
    GeneratingVector,
    default_generating_vector,
    lattice_point,
    load_generating_vector,
    random_shift,
    shift_and_center,
    shift_average_and_variance,
)
from .estimators import (
    EstimatorOptions,
    LevelParams,
    MaxLevelExceededError,
    MlqmcReport,
    adaptive_mlqmc,
    default_levels,
    level_params,
    mc_estimate,
    mlmc_estimate,
    mlqmc_estimate,
    qmc_single_level,
    sample_level_difference,
)

__version__ = "0.1.0"
