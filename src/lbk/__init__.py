"""Closed-form evaluation of Bessel-times-associated-Legendre integrals.

The library evaluates the angular integral of sin(theta) exp(i R cos(alpha)
cos(theta)) P_n^m(cos(theta)) J_m(R sin(alpha) sin(theta)) in closed form,
2 i^{n-m} P_n^m(cos(alpha)) j_n(R), and ships the machinery to verify it
independently: from-scratch special functions, a panel Gauss-Kronrod
quadrature oracle, recurrence residual checks and seeded random sweeps.
"""

from .kernel import (
    IntegralParams,
    closed_form_dI_dR,
    closed_form_I,
    closed_form_row,
    i00_series_partial,
    i_phase,
    lock_closed_form,
    mult_theorem_partial,
    poisson_closed_form,
)
from .oracle import (
    QuadratureSpec,
    QuadResult,
    integrate_dI_dR,
    integrate_I,
    integrate_lock,
    integrate_poisson_exp,
)
from .specfun import (
    assoc_legendre,
    bessel_j,
    factorial_ratio,
    spherical_bessel_j,
    spherical_bessel_j_prime,
    spherical_bessel_ratio,
)
from .verify import (
    CaseReport,
    SweepConfig,
    SweepReport,
    check_alpha_independence,
    check_derivative,
    check_identity,
    check_mult_theorem,
    check_recurrence_F,
    check_recurrence_I,
    check_specfun_recurrences,
    draw_cases,
    sweep_random,
)

__version__ = "0.1.0"

__all__ = [
    "IntegralParams",
    "QuadratureSpec",
    "QuadResult",
    "SweepConfig",
    "SweepReport",
    "CaseReport",
    "assoc_legendre",
    "bessel_j",
    "spherical_bessel_j",
    "spherical_bessel_j_prime",
    "spherical_bessel_ratio",
    "factorial_ratio",
    "i_phase",
    "closed_form_I",
    "closed_form_row",
    "closed_form_dI_dR",
    "lock_closed_form",
    "poisson_closed_form",
    "mult_theorem_partial",
    "i00_series_partial",
    "integrate_I",
    "integrate_dI_dR",
    "integrate_lock",
    "integrate_poisson_exp",
    "check_identity",
    "sweep_random",
    "draw_cases",
    "check_recurrence_I",
    "check_recurrence_F",
    "check_derivative",
    "check_alpha_independence",
    "check_specfun_recurrences",
    "check_mult_theorem",
]
