"""Radial calculus over the p-adic numbers.

Evaluates the Vladimirov fractional derivative D^alpha and its right
inverse, the fractional integral I^alpha, on radial functions, and
solves the weakly degenerate Cauchy problem
|t|_p^gamma (D^alpha u)(|t|_p) = f(|t|_p, u(|t|_p)), u(0) = u0, by
one forward march of fixed-point solves over the levels, with built-in
residual verification.
"""

from .errors import (
    BudgetError,
    ContractionError,
    DegenerationError,
    DivergenceError,
    DomainError,
    IndeterminateResidualError,
    MagnitudeError,
    MetadataError,
    NonConvergenceError,
)
from .haar import (
    DEFAULT_DEPTH,
    OVERFLOW_GUARD,
    Prime,
    ball_log_integral,
    ball_log_integral_oracle,
    ball_power_integral,
    ball_power_integral_oracle,
    p_pow,
    sphere_shifted_log_integral,
    sphere_shifted_log_integral_oracle,
    sphere_shifted_power_integral,
    sphere_shifted_power_integral_oracle,
)
from .radial import (
    ConditionCheck,
    RadialFunction,
    SummabilityReport,
    TailModel,
    check_summability,
    dump_radial,
    load_radial,
    weighted_sum_left,
)
from .vladimirov import apply_dalpha, apply_dalpha_oracle, d_alpha, dalpha_window
from .fracint import (
    KernelConstants,
    apply_ialpha,
    assemble_fractional_integral,
    bound_constants,
    kernel_constant,
    kernel_constant_oracle,
    power_image_coefficient,
)
from .cauchy import (
    ExtensionDiagnostic,
    GlobalHypothesesReport,
    Nonlinearity,
    ProblemSpec,
    ResidualEstimate,
    SolveReport,
    catalog_nonlinearity,
    check_global_hypotheses,
    choose_local_radius,
    picard_solve,
    residual,
    solve_problem,
)

__version__ = "0.1.0"
