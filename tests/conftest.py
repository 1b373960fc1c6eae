import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from backstep.coefficients import CoefficientFamily, ProblemSpec
from backstep.kernel import GoursatProblem, picard_solve
from backstep.norms import _norms, alf, rho

settings.register_profile(
    "ci", max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def zero_spec(lambda0=0.0):
    """Null plant: c = 0, f = 0 (kernel identically zero when lambda0 = 0)."""
    return ProblemSpec(CoefficientFamily(), lambda0=lambda0)


def profile_norm(v, p, kind="lp"):
    """The L^p (``kind`` "lp") or W^{1,p} ("w1p") norm of the Profile ``v``, as
    ``norms.norm_trace`` takes it: trapezoid for finite p, max for p = inf, and the
    centered-difference derivative."""
    return float(_norms(v.values, v.h, (p,))[p, kind])


def rho_prime(s, tau):
    """First derivative of ``norms.rho``; s and tau broadcast elementwise."""
    inner = -(s ** 3) / (2 * tau ** 3) + 3 * s / (2 * tau)
    return np.where(np.abs(s) >= tau, np.sign(s), inner)


def rho_second(s, tau):
    """Second derivative of ``norms.rho``; zero outside |s| < tau."""
    inner = 1.5 / tau * (1 - s ** 2 / tau ** 2)
    return np.where(np.abs(s) >= tau, 0.0, inner)


def alf_functional(values, h, p, tau):
    """int_0^1 rho(v, tau)^p dx along the last axis: the first output of ``norms.alf``."""
    return alf(rho(values, tau), 0.0, h, p)[0]


@pytest.fixture(scope="session")
def spec_rx2():
    """The closed-form family: f = 0, c1(x) = 2 x^2, lambda0 = 10."""
    return ProblemSpec(CoefficientFamily(c1_poly=(0.0, 0.0, 2.0)), lambda0=10.0)


@pytest.fixture(scope="session")
def kernels_rx2_101(spec_rx2):
    k = picard_solve(GoursatProblem.direct(spec_rx2), n_xi=101, tol=1e-11, max_iter=80)
    l = picard_solve(GoursatProblem.inverse(spec_rx2), n_xi=101, tol=1e-11, max_iter=80)
    return k, l


@pytest.fixture(scope="session")
def kernels_rx2_201(spec_rx2):
    k = picard_solve(GoursatProblem.direct(spec_rx2), n_xi=201, tol=1e-11, max_iter=80)
    l = picard_solve(GoursatProblem.inverse(spec_rx2), n_xi=201, tol=1e-11, max_iter=80)
    return k, l


@pytest.fixture(scope="session")
def null_kernel():
    """k = 0 grid from the null problem (useful as the identity transform)."""
    return picard_solve(GoursatProblem.direct(zero_spec()), n_xi=65, tol=1e-12, max_iter=5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
