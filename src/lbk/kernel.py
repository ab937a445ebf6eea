"""Closed-form and series evaluation of the angular integral family.

The central object is the integral of sin(theta) * exp(i R cos(alpha)
cos(theta)) * P_n^m(cos(theta)) * J_m(R sin(alpha) sin(theta)) over theta in
[0, pi], which collapses to 2 i^{n-m} P_n^m(cos(alpha)) j_n(R).  This module
holds that closed form, its R-derivative, the on-axis (Lock) integral, the
exponential-weight moment closed form, and the argument-rescaling series
partial sums used to connect the n = m = 0 case back to 2 j_0(R).

The closed form separates: its radial factor j_n(R) depends on the degree
alone.  ``closed_form_row`` is an iterator over a list of orders at one
(n, alpha, R): it evaluates cos(alpha) and j_n(R) on its first step and
each order's P_n^m(cos alpha) on that order's step, so an order whose
value overflows raises where it is taken.  ``closed_form_I`` is the first
step of a one-order row, so both give the same bits.  Every closed form
meets its factors as mantissas and binary exponents and rounds once: a
value below the double range comes out subnormal or 0, and only a value
past it raises OverflowError (for the on-axis integral, n = |m| = 170 at
R = 1).

All phases are exact quarter-turn lookups; no trigonometric rounding enters
the unit factor i^k.
"""

import math
from dataclasses import dataclass

from .specfun import (
    FACTORIAL_N_CAP,
    _legendre_scaled,
    _rounded,
    _scaled_factorial_ratio,
    _sph_ratio_scaled,
    assoc_legendre,  # noqa: F401  (bound here for perfbench's tracer)
    spherical_bessel_j,
)

# Partial sums accept at most this many terms and take SERIES_S terms by
# default; coefficients are built by term ratios so no factorial is ever
# formed.
SERIES_S_MAX = 200
SERIES_S = 40

# The documented moment range; 2^{s+1} s! alone overflows just above it.
MOMENT_S_CAP = 150

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

_OVERFLOW = "{} overflows double precision for n={}, m={}, alpha={}, R={}"


@dataclass(frozen=True)
class IntegralParams:
    """Parameters (n, m, alpha, R) of the integral family.

    n is the Legendre degree (0 <= n <= ``FACTORIAL_N_CAP``), m the order
    (|m| <= n), alpha the polar tilt in radians ([0, pi]) and R the finite
    dimensionless radius (>= 0).
    """

    n: int
    m: int
    alpha: float
    R: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"degree must be non-negative (got n={self.n})")
        if self.n > FACTORIAL_N_CAP:
            raise ValueError(
                f"degree above cap {FACTORIAL_N_CAP} (got n={self.n})")
        if abs(self.m) > self.n:
            raise ValueError(
                f"order must satisfy |m| <= n (got n={self.n}, m={self.m})")
        if not 0.0 <= self.alpha <= math.pi:
            raise ValueError(f"alpha must lie in [0, pi] (got {self.alpha})")
        if not 0.0 <= self.R < math.inf:
            raise ValueError(f"R must be finite and non-negative (got {self.R})")


def i_phase(k):
    """i**k for any integer k, by exact mod-4 lookup."""
    return _I_POWERS[k % 4]


def closed_form_row(n, ms, alpha, R):
    """Closed form 2 i^{n-m} P_n^m(cos alpha) j_n(R) for each order m in ms.

    One degree n, tilt alpha and radius R, with the ranges of
    ``IntegralParams``.  A generator over ``ms`` in order: the first step
    checks (n, alpha, R) by those ranges, raising their ValueError, and
    evaluates cos(alpha) and j_n(R) once; P_n^m(cos alpha) is evaluated on
    the step that yields order m, so a row never advanced does no work.
    The step of an order whose value leaves the double range raises
    OverflowError, as ``closed_form_I`` does; every order before it has
    been yielded.
    """
    IntegralParams(n, 0, alpha, R)
    x = math.cos(alpha)
    j, e_j, _ = _sph_ratio_scaled(n, 0, R)
    j, e_j = float(j), int(e_j)
    for m in ms:
        p, e, _ = _legendre_scaled(n, m, x)
        yield _rounded(2.0 * i_phase(n - m) * float(p) * j, int(e) + e_j,
                       _OVERFLOW, "I", n, m, alpha, R)


def closed_form_I(p):
    """Closed form 2 i^{n-m} P_n^m(cos alpha) j_n(R) of the main integral."""
    return next(closed_form_row(p.n, (p.m,), p.alpha, p.R))


def closed_form_dI_dR(p):
    """R-derivative of the closed form: 2 i^{n-m} P_n^m(cos alpha) j_n'(R)."""
    leg, e, _ = _legendre_scaled(p.n, p.m, math.cos(p.alpha))
    d, e_d, _ = _sph_ratio_scaled(p.n, 0, p.R, prime=True)
    return _rounded(2.0 * i_phase(p.n - p.m) * float(leg) * float(d),
                    int(e) + int(e_d), _OVERFLOW, "dI/dR", p.n, p.m, p.alpha,
                    p.R)


def _check_lock_args(n, m, R, sign):
    # Shared with oracle.integrate_lock.
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1 (got {sign})")
    if n < 0 or abs(m) > n:
        raise ValueError(f"require 0 <= |m| <= n (got n={n}, m={m})")
    if not R >= 0.0:
        raise ValueError(f"R must be non-negative (got {R})")


def lock_closed_form(n, m, R, sign):
    """On-axis integral closed form 2 (sign*i)^{n+|m|} (n+|m|)!/(n-|m|)! j_n(R)/R^{|m|}.

    Finite at R = 0 through the j_n/R^p limit.  ``sign`` selects the phase
    of the exponential in the matching integral and must be +1 or -1.
    """
    _check_lock_args(n, m, R, sign)
    am = abs(m)
    ratio, e = _scaled_factorial_ratio(n, am)
    mant, e_j, _ = _sph_ratio_scaled(n, am, R)
    value = _rounded(ratio * float(mant), e + int(e_j) + 1,
                     "on-axis integral overflows double precision for n={}, "
                     "m={}, R={}", n, m, R)
    return i_phase(sign * (n + am)) * value


def _check_moment_args(s, x):
    # Shared with oracle.integrate_poisson_exp.
    if s < 0:
        raise ValueError(f"moment index must be non-negative (got s={s})")
    if not x >= 0.0:
        raise ValueError(f"argument must be non-negative (got {x})")


def poisson_closed_form(s, x):
    """Exponential moment closed form 2^{s+1} s! j_s(x) / x^s.

    Matches the integral of sin(theta) exp(i x cos(theta)) sin^{2s}(theta);
    finite at x = 0 where it equals 2^{s+1} s!/(2s+1)!!.  Capped at
    s <= ``MOMENT_S_CAP``.
    """
    if s > MOMENT_S_CAP:
        raise OverflowError(f"moment index above cap {MOMENT_S_CAP} (got s={s})")
    _check_moment_args(s, x)
    mant, e, _ = _sph_ratio_scaled(s, s, x)
    return _rounded(math.factorial(s) * float(mant), s + 1 + int(e),
                    "moment overflows double precision for s={}, x={}", s, x)


def _check_series_args(R, alpha, S):
    if not R >= 0.0:
        raise ValueError(f"R must be non-negative (got {R})")
    if not 0.0 <= alpha < math.pi / 2.0:
        raise ValueError(
            f"alpha must lie in [0, pi/2); the series coefficient is "
            f"undefined where cos(alpha) = 0 (got {alpha})")
    if not 0 <= S <= SERIES_S_MAX:
        raise ValueError(f"require 0 <= S <= {SERIES_S_MAX} (got S={S})")


def mult_theorem_partial(R, alpha, S=SERIES_S):
    """Partial sum of the argument-rescaling series for j_0(R).

    Sums s = 0..S of (-1)^s / 2^s * sin^{2s}(alpha) / (s! cos^s(alpha)) *
    R^s * j_s(R cos(alpha)).  Converges to j_0(R) wherever the rescaling
    factor 1/cos(alpha) keeps |1 - 1/cos^2(alpha)| < 1 (cos^2(alpha) > 1/2).
    """
    _check_series_args(R, alpha, S)
    ca = math.cos(alpha)
    sa = math.sin(alpha)
    z = R * ca
    coef = 1.0
    total = spherical_bessel_j(0, z)
    for s in range(1, S + 1):
        coef *= -0.5 * sa * sa * R / (s * ca)
        total += coef * spherical_bessel_j(s, z)
    return total


def i00_series_partial(R, alpha, S=SERIES_S):
    """Partial sum of the n = m = 0 integral's series, 2x the j_0 series.

    Term by term this is exactly twice ``mult_theorem_partial``; the series
    is real, so the imaginary part is identically zero.  Converges to
    2 j_0(R) on the same domain.
    """
    return complex(2.0 * mult_theorem_partial(R, alpha, S), 0.0)
