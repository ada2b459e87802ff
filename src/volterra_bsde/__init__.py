"""BSDEs driven by Gaussian Volterra processes, verified at desk scale.

The pipeline: a Volterra kernel K and volatility sigma define
N_t = int_0^t (K*_t sigma)_s dW_s; the variance curve Var(N_t) is the
clock of a semilinear heat equation whose solution u yields the BSDE pair
Y_t = u(t, N_t), Z_t = -sigma_t u_x(t, N_t).  Each module carries the
verification machinery for its own layer.
"""

from .bsde import (
    BrownianSideRun,
    BsdeSolution,
    ComparisonReport,
    DensityDiagnostic,
    brownian_increments,
    brownian_side_level,
    brownian_side_verify,
    build_yz,
    compare,
    density_diagnostic,
    residual_refinement_study,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    CurveConsistencyError,
    DomainError,
    GrowthViolationError,
    InstabilityError,
    MonotonicityError,
    PreconditionError,
    QuadratureError,
    ResourceBudgetError,
    VolterraError,
)
from .expressions import ExpressionError, compile_expression
from .kernels import (
    InjectivityCert,
    KernelSpec,
    RegularityCert,
    certify_H2,
    fbm,
    injectivity_certificate,
    kernel_dt,
    kernel_eval,
    liouville_fbm,
    multifractional,
    suggested_h2_constants,
)
from .operators import (
    TransferIdentityReport,
    VarianceCurve,
    Volatility,
    covariance_R,
    graded_grid,
    kstar_apply,
    phi_eval,
    phi_tilde_eval,
    transfer_identity_check,
    variance_curve,
    variance_double_route,
    variance_l2_value,
)
from .pde import (
    Driver,
    PdeSolution,
    TerminalCondition,
    default_halfwidth,
    growth_rate,
    heat_convolve,
    solve_linear,
    solve_semilinear_fd,
    solve_semilinear_picard,
)
from .quadrature import SingularQuadRule
from .simulate import (
    C12Function,
    PathEnsemble,
    TimeGrid,
    expectation_heat_identity,
    ito_expectation_check,
    sample_paths,
    validate_covariance,
)

__version__ = "0.1.0"
