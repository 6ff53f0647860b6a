"""latticeqmc: rank-1 lattice quadrature rules, tent-transformed and
symmetrized variants, worst-case errors in weighted kernel spaces, and
component-by-component construction of generating vectors."""

from .cbc import CbcCriterion, CbcResult, cbc_fast, cbc_plain
from .errors import DomainError, GuardError
from .experiments import (
    ConvergenceRow,
    ExperimentConfig,
    ExperimentResult,
    exact_integral,
    experiment_config,
    fitted_slopes,
    integrand_eval,
    run_experiment,
    slope_fit,
)
from .fourier import (
    appendix_inner_sum,
    c_phi,
    c_sym,
    cosine_coeff_quadrature,
    run_appendix_checks,
    sin_tent_coeff,
    tent_kernel_partial_sum,
)
from .kernels import KernelSpec, kernel, kernel_1d
from .lattice import (
    LatticeRule,
    PointSet,
    distinct_count,
    fibonacci_rule,
    rank1_points,
    symmetrize,
    tent,
    tent_transform,
)
from .numtheory import fibonacci, is_prime, nearest_prime, primitive_root
from .special_functions import (
    bernoulli_poly,
    bernoulli_scaled,
    riemann_zeta,
)
from .weights import WeightScheme
from .worst_case_error import (
    C_PRIME,
    ErrorReport,
    corollary_bound,
    wce_sq_korobov_lattice,
    wce_sq_quadratic_form,
    wce_sym_bound,
    wce_sym_exact,
    wce_tent_bound,
)

__version__ = "0.1.0"
