"""The series machinery behind the n = m = 0 base case.

Three ingredients close the base case: the exponential moment integral
int sin(t) exp(ix cos t) sin^{2s}(t) dt = 2^{s+1} s! j_s(x)/x^s (its odd
part vanishes by parity), and the argument-rescaling series that turns
sums of j_s(R cos a) back into j_0(R).  This script shows each converging
numerically.
"""

import math

from lbk import (
    i00_series_partial,
    integrate_poisson_exp,
    mult_theorem_partial,
    poisson_closed_form,
    spherical_bessel_j,
)

print("Exponential moments: quadrature vs closed form (and the parity-null part)")
print(f"{'s':>3} {'x':>6} | {'closed':>13} {'quad diff':>10} {'odd part':>10}")
for s, x in [(0, 0.0), (1, 2.0), (4, 7.5), (10, 25.0), (15, 50.0)]:
    closed = poisson_closed_form(s, x)
    quad = integrate_poisson_exp(s, x).value
    diff = abs(quad - closed)
    odd = abs(quad.imag)
    print(f"{s:>3} {x:>6.1f} | {closed:>13.6e} {diff:>10.2e} {odd:>10.2e}")

print()
R, alpha = 2.0, math.pi / 6
target = spherical_bessel_j(0, R)
print(f"Argument-rescaling series at R = {R}, alpha = pi/6 "
      f"(target j_0({R}) = {target:.16f}):")
print(f"{'S':>3} {'partial sum':>20} {'error':>10}")
for S in (0, 1, 2, 4, 8, 16, 32, 40):
    got = mult_theorem_partial(R, alpha, S)
    print(f"{S:>3} {got:>20.16f} {abs(got - target):>10.2e}")

print()
print("The doubled series reproduces the full n = m = 0 integral, 2 j_0(R):")
for R in (1.0, math.pi, 7.5):
    got = i00_series_partial(R, math.pi / 4, 40)
    want = 2.0 * spherical_bessel_j(0, R)
    print(f"  R = {R:>6.4f}: partial = {got.real:>19.15f}, "
          f"2 j_0 = {want:>19.15f}, diff = {abs(got - want):.2e}")
