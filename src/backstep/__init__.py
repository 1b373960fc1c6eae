"""Backstepping boundary stabilization toolkit for 1-D parabolic PDEs.

Solves the time-independent Goursat kernel equations by successive
approximation, builds the boundary feedback law, simulates the
closed-loop and target systems, and verifies exponential decay envelopes
in L^p and W^{1,p} norms (p in [1, inf]) with smoothed Lyapunov
functionals.
"""

from .coefficients import (
    CoefficientFamily,
    ConfigError,
    ProblemSpec,
    lambda_lower,
)
from .kernel import (
    ConvergenceError,
    GoursatProblem,
    KernelGrid,
    kernel_constants,
    picard_solve,
    residual,
    series_oracle,
)
from .norms import NormTrace, alf, gronwall_bound, norm_trace, rho
from .simulator import (
    DivergenceError,
    SimConfig,
    Trajectory,
    simulate_closed_loop,
    simulate_target,
)
from .transforms import (
    Profile,
    check_compatibility,
    forward_transform,
    initial_target_data,
    inverse_transform,
    make_compatible,
)
from .verify import (
    DecayReport,
    ScenarioConfig,
    continuous_dependence_experiment,
    fit_decay_rate,
    load_scenario,
    run_scenario,
    verify_theorem_bound,
)

__version__ = "0.1.0"
