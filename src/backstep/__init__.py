"""Backstepping boundary stabilization toolkit for 1-D parabolic PDEs.

Solves the time-independent Goursat kernel equations by successive
approximation, builds the boundary feedback law, simulates the
closed-loop and target systems, and verifies exponential decay envelopes
in L^p and W^{1,p} norms (p in [1, inf]) with smoothed Lyapunov
functionals.
"""

from .coefficients import (
    CoefficientFamily,
    ProblemSpec,
    ValidationError,
    eval_c,
    eval_lambda,
    eval_mu,
    eval_phi,
    lambda_lower,
    sup_c,
    validate,
)
from .kernel import (
    ConvergenceError,
    GoursatProblem,
    KernelGrid,
    bound_constant_M,
    kernel_constants,
    kernel_derivative_x,
    picard_solve,
    residual,
    series_coefficients,
    series_oracle,
    solve_inverse_kernel,
    tail_bound,
)
from .norms import NormTrace, alf, gronwall_bound, lp_norm, norm_trace, rho, rho_prime, rho_second, w1p_norm
from .simulator import (
    DivergenceError,
    SimConfig,
    Trajectory,
    check_compatibility,
    simulate_closed_loop,
    simulate_target,
    volterra_source,
)
from .transforms import (
    Profile,
    control_input,
    forward_transform,
    initial_target_data,
    inverse_transform,
    make_compatible,
)
from .verify import (
    ConfigError,
    ContinuousDependenceReport,
    DecayReport,
    ScenarioConfig,
    continuous_dependence_experiment,
    fit_decay_rate,
    load_scenario,
    run_scenario,
    stability_constant_C1,
    stability_constant_C2,
    stability_constants_inf,
    verify_theorem_bound,
)

__version__ = "0.1.0"
