"""Layer probes: each evaluator alone, warm, on fixed inputs.

Every specfun evaluator on one scalar and on a 10^4-point array, the scalar
closed form, and one oracle panel pass of the main integrand at the size a
large-R call starts from.  Each figure is the median over repeats of the
mean time per call.
"""

import math
import statistics
import time

import numpy as np

REPEATS = 7
ARRAY_POINTS = 10_000


def _per_call(fn, arg, calls):
    for _ in range(3):
        fn(arg)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def layer_probes(lbk):
    """Yield (metric name, value, unit) for every probe."""
    sf = lbk.specfun
    unit_x = np.linspace(-1.0, 1.0, ARRAY_POINTS)
    bessel_x = np.linspace(0.0, 50.0, ARRAY_POINTS)
    evaluators = {
        "assoc_legendre": (lambda x: sf.assoc_legendre(10, 5, x), 0.3, unit_x),
        "bessel_j": (lambda x: sf.bessel_j(5, x), 20.0, bessel_x),
        "spherical_bessel_j": (lambda x: sf.spherical_bessel_j(10, x), 20.0,
                               bessel_x),
        "spherical_bessel_j_prime": (
            lambda x: sf.spherical_bessel_j_prime(10, x), 20.0, bessel_x),
        "spherical_bessel_ratio": (
            lambda x: sf.spherical_bessel_ratio(10, 3, x), 20.0, bessel_x),
    }
    for name, (fn, scalar, array) in evaluators.items():
        yield f"specfun.{name}.scalar_us", 1e6 * _per_call(fn, scalar, 200), "us"
        yield f"specfun.{name}.array1e4_ms", 1e3 * _per_call(fn, array, 5), "ms"

    p = lbk.IntegralParams(10, 5, 1.0, 20.0)
    yield ("kernel.closed_form_I.scalar_us",
           1e6 * _per_call(lbk.closed_form_I, p, 200), "us")

    # The integrand lbk.integrate_I builds for (n, m, alpha, R) =
    # (5, 2, 1.0, 1000), on its seed rule of ceil(R/pi) + n panels.
    n, m, alpha, R = 5, 2, 1.0, 1000.0
    rc, rs = R * math.cos(alpha), R * math.sin(alpha)

    def integrand(u, su):
        return (np.exp(1j * rc * u) * sf.assoc_legendre(n, m, u)
                * sf.bessel_j(m, rs * su))

    panels = math.ceil(R / math.pi) + n
    yield ("oracle.panel_pass_ms",
           1e3 * _per_call(lambda k: lbk.oracle.gauss_panels(integrand, k, 32),
                           panels, 3), "ms")
