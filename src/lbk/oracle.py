"""Independent quadrature oracle for the angular integrals.

Every integral here carries the measure sin(theta) d(theta) on [0, pi], so
the engine works in u = cos(theta): the Jacobian absorbs the sin(theta)
factor and the domain becomes [-1, 1].  In u the integrands are entire
(the half-integer powers of 1 - u^2 contributed by P_n^m and J_m pair up),
so composite Gauss-Legendre panels converge spectrally, and the rule is
exact for polynomials in cos(theta) up to degree 2*nodes_per_panel - 1 on
any panel layout.  The panel edges are uniform in theta, u_k = -cos(k pi/P):
in theta every factor's phase advances at a rate of at most R, so each
panel carries a bounded phase, and the panels near u = +-1, where
J_m(R sin(alpha) sin(theta)) oscillates fastest in u, are the narrowest.

The error estimate is |result(k panels) - result(2k panels)|, iterated by
doubling; non-convergence is reported through ``QuadResult.converged``,
never raised.  No pass evaluates more than ``MAX_NODES`` nodes: a seed
whose first doubling would pass that cap is rejected with ValueError, and
doubling stops short of it as non-convergence.  Panel sums use a fixed
summation order (one dot product over the concatenated panel nodes), so
results do not depend on scheduling.

Oscillatory cancellation: at large degree and order the integrand envelope
can exceed the integral value by ten orders of magnitude, so the rounding
floor eps * integral(|f|) of plain double precision sits above sensible
tolerances.  The first panel evaluation measures that L1 mass; when the
floor crowds the convergence target, the refinement reruns the integral in
extended precision (np.longdouble, with Newton-refined nodes) where the
platform provides it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _check_lock_args, _check_moment_args
from .specfun import _legendre_upward, assoc_legendre, bessel_j

_EPS64 = float(np.finfo(np.float64).eps)
_EPS_LONG = float(np.finfo(np.longdouble).eps)
_HAS_EXTENDED = _EPS_LONG < _EPS64

# Escalate to extended precision when the double-precision rounding floor
# eps * integral(|f|) exceeds this fraction of the convergence target.
_NOISE_GUARD = 4.0

# Most nodes one panel pass may evaluate: 16 MB per float64 node array.
# The default seed at R = 1e4 and n = 170 needs 31 k nodes, 62 k after its
# first doubling.
MAX_NODES = 1 << 21

# Highest Gauss order per panel.  leggauss(order) builds an order x order
# companion matrix that MAX_NODES does not count: about 19 MB of peak RSS at
# order 1024 and 275 MB at 4000.
MAX_NODES_PER_PANEL = 1024

_gl_cache = {}


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel counts, node order and stopping tolerances for the oracle.

    ``base_panels = None`` selects the oscillation-aware seeding rule
    max(8, ceil(R/(4 pi)) + n) of the operation being integrated, on
    panels uniform in theta.  The field defaults below are the only place
    the oracle defaults are stated: the CLI passes just the flags a user
    sets and leaves the rest to them.
    """

    base_panels: int | None = None
    nodes_per_panel: int = 32
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_refinements: int = 12

    def __post_init__(self):
        if self.base_panels is not None and self.base_panels < 1:
            raise ValueError("base_panels must be >= 1")
        if self.nodes_per_panel < 1:
            raise ValueError("nodes_per_panel must be >= 1")
        if self.nodes_per_panel > MAX_NODES_PER_PANEL:
            raise ValueError(
                f"nodes_per_panel must be <= {MAX_NODES_PER_PANEL}")
        if not 0.0 < self.abs_tol < 1.0 or not 0.0 < self.rel_tol < 1.0:
            raise ValueError("tolerances must lie in (0, 1)")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    est_error: float
    panels_used: int
    converged: bool


def _legendre_pair(order, x):
    # P_order(x) and P'_order(x) from specfun's degree recurrence, any float
    # dtype.
    p = _legendre_upward(order, 0, x)
    dp = order * (x * p - _legendre_upward(order - 1, 0, x)) / (x * x - 1.0)
    return p, dp


def _gl_rule(order, dtype):
    key = (order, np.dtype(dtype))
    try:
        return _gl_cache[key]
    except KeyError:
        pass
    nodes, weights = np.polynomial.legendre.leggauss(order)
    if np.dtype(dtype) != np.dtype(np.float64):
        # Newton-refine the double-precision roots so node error does not
        # cap the extended-precision accuracy.
        x = nodes.astype(dtype)
        for _ in range(3):
            p, dp = _legendre_pair(order, x)
            x = x - p / dp
        p, dp = _legendre_pair(order, x)
        nodes = x
        weights = 2.0 / ((1.0 - x * x) * dp * dp)
    _gl_cache[key] = (nodes, weights)
    return nodes, weights


def _panel_eval(f, panels, order, dtype):
    nodes, weights = _gl_rule(order, dtype)
    edges = -np.cos(np.arange(panels + 1, dtype=dtype) * (np.pi / panels))
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    su = np.sqrt(np.maximum((1.0 - u) * (1.0 + u), 0.0))
    vals = f(u, su)
    return complex(np.dot(w.astype(vals.dtype), vals)), float(np.dot(w, np.abs(vals)))


def gauss_panels(f, panels, order):
    """Composite Gauss-Legendre sum of f(u, sqrt(1-u^2)) over u in [-1, 1]."""
    return _panel_eval(f, panels, order, np.float64)[0]


def _refine(f, spec, auto_panels):
    panels = spec.base_panels if spec.base_panels is not None else auto_panels
    # An error estimate needs the seed pass and its first doubling.
    if 2 * panels * spec.nodes_per_panel > MAX_NODES:
        raise ValueError(
            f"quadrature needs more than {MAX_NODES} nodes per pass "
            "(R, base_panels or nodes_per_panel too large)")
    prev, l1 = _panel_eval(f, panels, spec.nodes_per_panel, np.float64)
    target = max(spec.abs_tol, spec.rel_tol * abs(prev))
    dtype = np.float64
    if _HAS_EXTENDED and _NOISE_GUARD * _EPS64 * l1 > target:
        dtype = np.longdouble
        prev, l1 = _panel_eval(f, panels, spec.nodes_per_panel, dtype)
    eps = _EPS_LONG if dtype is np.longdouble else _EPS64
    est = math.inf
    for _ in range(spec.max_refinements):
        if 2 * panels * spec.nodes_per_panel > MAX_NODES:
            break
        panels *= 2
        cur, l1 = _panel_eval(f, panels, spec.nodes_per_panel, dtype)
        est = abs(cur - prev)
        if est <= max(spec.abs_tol, spec.rel_tol * abs(cur)):
            return QuadResult(cur, est, panels, True)
        prev = cur
        if est <= 2.0 * eps * l1:
            # Stalled at the rounding floor of this precision: further
            # panel doubling cannot reduce the estimate.
            break
    return QuadResult(prev, est, panels, False)


def _auto_panels(x, degree):
    # A theta-uniform panel of width pi/P carries a phase of at most about
    # x*pi/P; ceil(x/(4 pi)) panels hold that under ~4 pi^2 radians (about
    # 6 periods per 32-node panel), and degree adds one panel per zero of the
    # Legendre factor.
    return max(8, int(math.ceil(x / (4.0 * math.pi))) + degree)


def integrate_I(p, spec=QuadratureSpec()):
    """Quadrature of the main integral for ``IntegralParams`` p."""
    rc = p.R * math.cos(p.alpha)
    rs = p.R * math.sin(p.alpha)

    def f(u, su):
        return (np.exp(1j * rc * u)
                * assoc_legendre(p.n, p.m, u)
                * bessel_j(p.m, rs * su))

    return _refine(f, spec, _auto_panels(p.R, p.n))


def integrate_dI_dR(p, spec=QuadratureSpec()):
    """Quadrature of the analytic R-derivative of the main integrand.

    d/dR [exp(i R cos(a) u) J_m(R sin(a) su)] expands to the phase term
    i cos(a) u exp(.) J_m(.) plus exp(.) sin(a) su J_m'(.), with
    J_m' = (J_{m-1} - J_{m+1}) / 2.
    """
    ca = math.cos(p.alpha)
    sa = math.sin(p.alpha)
    rc = p.R * ca
    rs = p.R * sa

    def f(u, su):
        z = rs * su
        phase = np.exp(1j * rc * u)
        djm = 0.5 * (bessel_j(p.m - 1, z) - bessel_j(p.m + 1, z))
        return ((1j * ca * u * bessel_j(p.m, z) + sa * su * djm)
                * phase * assoc_legendre(p.n, p.m, u))

    return _refine(f, spec, _auto_panels(p.R, p.n))


def integrate_lock(n, m, R, sign, spec=QuadratureSpec()):
    """Quadrature of the on-axis integral: sin^{|m|+1} exp(+-iR cos) P_n^{|m|}."""
    _check_lock_args(n, m, R, sign)
    am = abs(m)

    def f(u, su):
        return su ** am * np.exp(sign * 1j * R * u) * assoc_legendre(n, am, u)

    return _refine(f, spec, _auto_panels(R, n))


def integrate_poisson_exp(s, x, spec=QuadratureSpec()):
    """Quadrature of sin(theta) exp(i x cos(theta)) sin^{2s}(theta)."""
    _check_moment_args(s, x)

    def f(u, su):
        return ((1.0 - u) * (1.0 + u)) ** s * np.exp(1j * x * u)

    return _refine(f, spec, _auto_panels(x, s))
