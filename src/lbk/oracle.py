"""Independent quadrature oracle for the angular integrals.

Every integral here carries the measure sin(theta) d(theta) on [0, pi], so
the engine works in u = cos(theta): the Jacobian absorbs the sin(theta)
factor and the domain becomes [-1, 1].  In u the integrands are entire
(the half-integer powers of 1 - u^2 contributed by P_n^m and J_m pair up),
so composite Gauss-Kronrod panels converge spectrally.  Each panel carries
the N-point Gauss-Legendre rule (N = nodes_per_panel), exact for
polynomials in cos(theta) up to degree 2N - 1, inside its (2N+1)-point
Kronrod extension, exact up to degree 3N + 1, on any panel layout.  The
panel edges are uniform in theta, u_k = -cos(k pi/P): in theta every
factor's phase advances at a rate of at most R, so each panel carries a
bounded phase, and the panels near u = +-1, where
J_m(R sin(alpha) sin(theta)) oscillates fastest in u, are the narrowest.

The layout is exact under u -> -u, and every integrand here has a parity
there: P_n^m(-u) = (-1)^(n+m) P_n^m(u), the Bessel argument
R sin(alpha) sqrt(1 - u^2) is even, and exp(i R cos(alpha) u) pairs with
its mirror image into a cosine or a sine.  So one pass evaluates the
integrand once on the u >= 0 half of the (2N+1) P nodes of a P-panel
layout: at each node it returns f(u) + f(-u) and |f(u)| + |f(-u)| (a node
at u = 0 counts half), in real arithmetic, with the unit phase 1 or i
applied to the sums.  The pass returns the Kronrod sum K, with |K - G|
against the embedded Gauss sum G as its error estimate (Piessens et al.,
QUADPACK, 1983).  The layout doubles only while that estimate misses the
tolerance; non-convergence is reported through ``QuadResult.converged``,
never raised.  No layout holds more than ``MAX_NODES`` nodes, both halves
counted: a seed pass past that cap is rejected with ValueError, and
doubling stops short of it as non-convergence.  Panel sums use a fixed
summation order (within each panel, then across panels), so results do
not depend on scheduling.

The rule is built at run time, in O(N) memory, from the Jacobi-Kronrod
recurrence coefficients of Laurie (Math. Comp. 66, 1997): Newton's method
on the three-term recurrence finds the Gauss nodes, then, deflated by
them, the N + 1 Kronrod nodes that interlace with them (Szego); the
weights are the Christoffel numbers of the recurrence.

Oscillatory cancellation: at large degree and order the integrand envelope
can exceed the integral value by ten orders of magnitude, so the rounding
floor eps * integral(|f|) of plain double precision sits above sensible
tolerances.  The first pass measures that L1 mass; when the floor crowds
the convergence target, the refinement reruns the integral in extended
precision (np.longdouble, with the rule's nodes Newton-refined in it)
where the platform provides it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _check_lock_args, _check_moment_args
from .specfun import assoc_legendre, bessel_j

_EPS64 = float(np.finfo(np.float64).eps)
_EPS_LONG = float(np.finfo(np.longdouble).eps)
_HAS_EXTENDED = _EPS_LONG < _EPS64

# Escalate to extended precision when the double-precision rounding floor
# eps * integral(|f|) exceeds this fraction of the convergence target.
_NOISE_GUARD = 4.0

# Most nodes one pass's layout may hold, (2N+1) P for P panels, counted in
# full although a pass evaluates only the u >= 0 half: 8 MB per float64
# array over that half.  The default seed at R = 1e4 and n = 170 is 966
# panels, 63 k nodes.
MAX_NODES = 1 << 21

# Highest Gauss order N per panel.  Building the rule takes O(N^2) time in
# O(N) memory: at N = 1024, 0.5 s and +0.5 MB of peak RSS in float64, plus
# 1.3 s for the longdouble refinement (leggauss(1024) alone took 1.1 s and
# +17 MB).
MAX_NODES_PER_PANEL = 1024

# Newton from the starting estimates in _gk_rule reaches a step of at most
# 8 eps within 5 steps in double (2 from double to longdouble) for every
# N <= MAX_NODES_PER_PANEL; the cap only bounds the loop.
_NEWTON_STEPS = 20

_gk_cache = {}


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel counts, node order and stopping tolerances for the oracle.

    ``base_panels = None`` selects the oscillation-aware seeding rule
    max(8, ceil(R/(4 pi)) + n) of the operation being integrated, on
    panels uniform in theta.  Each panel carries the ``nodes_per_panel``
    point Gauss rule inside its Kronrod extension, so one pass over P
    panels evaluates (2 nodes_per_panel + 1) P nodes.  A pass converges
    when |Kronrod - Gauss| <= max(abs_tol, rel_tol |Kronrod|);
    ``max_refinements`` bounds the doublings of the panel count after the
    seed pass.  The field defaults below are the only place the oracle
    defaults are stated: the CLI passes just the flags a user sets and
    leaves the rest to them.
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
    """Outcome of one oracle call.

    ``value`` is the Kronrod sum of the last pass and ``est_error`` its
    |Kronrod - Gauss|; ``panels_used`` is that pass's panel count (the
    seed count when the first pass is accepted).
    """

    value: complex
    est_error: float
    panels_used: int
    converged: bool


def _swap_rescaled(s, t):
    # Laurie's update is linear and homogeneous in (s, t), so a common
    # scale leaves the coefficients it yields unchanged; unscaled, double
    # precision overflows to nan near N = 1024.
    scale = max(np.abs(s).max(), np.abs(t).max())
    return t / scale, s / scale


def _kronrod_jacobi(n, dtype):
    # Laurie's algorithm, indexed as Gautschi's r_kronrod: the diagonal a
    # and squared off-diagonal b of the (2n+1)-point Jacobi-Kronrod matrix
    # of the Legendre weight.  Its leading entries are Legendre's (a = 0,
    # b_k = k^2/(4k^2 - 1), b_0 = 2 the weight's mass).
    a = np.zeros(2 * n + 1, dtype=dtype)
    b = np.zeros(2 * n + 1, dtype=dtype)
    k = np.arange(1, (3 * n + 1) // 2 + 1, dtype=dtype)
    b[0] = 2.0
    b[1:k.size + 1] = k * k / (4.0 * k * k - 1.0)
    s = np.zeros(n // 2 + 2, dtype=dtype)
    t = np.zeros(n // 2 + 2, dtype=dtype)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        i = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[i]) * t[k + 1]
                             + b[k + n + 1] * s[k] - b[i] * s[k + 1])
        s, t = _swap_rescaled(s, t)
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        i = m - k
        j = n - 1 - i
        s[j + 1] = np.cumsum(-(a[k + n + 1] - a[i]) * t[j + 1]
                             - b[k + n + 1] * s[j + 1] + b[i] * s[j + 2])
        j = j[-1]
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = _swap_rescaled(s, t)
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


def _recurrence(x, a, rb, degree):
    # q_degree(x) and its derivative from the three-term recurrence of the
    # Jacobi matrix with diagonal a and off-diagonal rb, and the Christoffel
    # sum of q_k(x)^2 over k < degree.  The q_k are orthonormal while rb
    # holds the off-diagonal; q_degree is scaled by 1/rb[degree].
    q_prev = np.zeros_like(x)
    q = np.full_like(x, 1.0 / rb[0])
    dq_prev = np.zeros_like(x)
    dq = np.zeros_like(x)
    christoffel = np.zeros_like(x)
    for k in range(degree):
        christoffel += q * q
        q_prev, q = q, ((x - a[k]) * q - rb[k] * q_prev) / rb[k + 1]
        dq_prev, dq = dq, ((x - a[k]) * dq + q_prev - rb[k] * dq_prev) / rb[k + 1]
    return q, dq, christoffel


def _newton(step, x):
    eps = np.finfo(x.dtype).eps
    for _ in range(_NEWTON_STEPS):
        dx = step(x)
        x = x - dx
        if np.max(np.abs(dx)) <= 8.0 * eps:
            break
    return x


def _gk_rule(n, dtype):
    """The (2n + 1)-point Gauss-Kronrod rule on [-1, 1] in ``dtype``.

    Returns the ascending nodes and a (2, 2n + 1) weight array: the
    Kronrod weights, then the weights of the embedded n-point Gauss rule,
    whose nodes are the odd-indexed ones (zero weight elsewhere).
    """
    key = (n, np.dtype(dtype))
    try:
        return _gk_cache[key]
    except KeyError:
        pass
    a, b = _kronrod_jacobi(n, dtype)
    # The top degree 2n + 1 only needs its zeros, so its scale is free.
    rb = np.append(np.sqrt(b), 1.0)

    def gauss_step(x):
        q, dq, _ = _recurrence(x, a, rb, n)
        return q / dq

    def kronrod_step(x):
        # Newton on q_(2n+1) / q_n, whose zeros are the Kronrod-only nodes.
        qk, dqk, _ = _recurrence(x, a, rb, 2 * n + 1)
        qg, dqg, _ = _recurrence(x, a, rb, n)
        return qk * qg / (dqk * qg - qk * dqg)

    if np.dtype(dtype) == np.dtype(np.float64):
        # Tricomi's estimate of the Gauss nodes; each Kronrod-only node
        # starts midway in theta between its two Gauss neighbours.
        gauss = _newton(gauss_step, np.cos(
            (np.arange(n, 0, -1) - 0.25) * (np.pi / (n + 0.5))))
        theta = np.concatenate(([np.pi], np.arccos(gauss), [0.0]))
        extra = np.cos(0.5 * (theta[:-1] + theta[1:]))
    else:
        # Newton-refine the double-precision nodes so node error does not
        # cap the extended-precision accuracy.
        start = _gk_rule(n, np.float64)[0].astype(dtype)
        gauss = _newton(gauss_step, start[1::2])
        extra = start[0::2]
    nodes = np.empty(2 * n + 1, dtype=dtype)
    nodes[1::2] = gauss
    nodes[0::2] = _newton(kronrod_step, extra)
    weights = np.zeros((2, 2 * n + 1), dtype=dtype)
    weights[0] = 1.0 / _recurrence(nodes, a, rb, 2 * n + 1)[2]
    weights[1, 1::2] = 1.0 / _recurrence(gauss, a, rb, n)[2]
    _gk_cache[key] = (nodes, weights)
    return nodes, weights


def _fold_sums(pair, panels, nodes, weights):
    # The rule's nodes mapped onto the u >= 0 half of the theta-uniform
    # layout: for odd P the central panel [-e, e], on its nodes t >= 0, then
    # the P // 2 panels above it.  The edges sin(i pi/(2P)), i = P, P - 2,
    # ..., are the -cos(k pi/P) of the full layout mirrored onto u >= 0, so
    # the layout is exact under u -> -u.  pair(u, su) returns f(u) + f(-u)
    # and |f(u)| + |f(-u)| there.  Returns the sums of the first under each
    # row of weights and the sum of the second under the first row.
    i = np.arange(panels % 2, panels + 1, 2, dtype=nodes.dtype)
    edges = np.sin(i * (np.pi / (2 * panels)))
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    first = nodes.size // 2 if panels % 2 else nodes.size
    centre = weights[:, first:].copy()
    if nodes.size % 2:
        # t = 0 is its own mirror image
        centre[:, :1] *= 0.5
    u = np.concatenate((edges[0] * nodes[first:],
                        (mid[:, None] + half[:, None] * nodes[None, :]).ravel()))
    su = np.sqrt(np.maximum((1.0 - u) * (1.0 + u), 0.0))
    vals, mass = pair(u, su)
    k = centre.shape[1]
    grid = (-1, nodes.size)
    sums = (edges[0] * (vals[:k] @ centre.T)
            + half @ (vals[k:].reshape(grid) @ weights.T))
    l1 = (edges[0] * (mass[:k] @ centre[0])
          + half @ (mass[k:].reshape(grid) @ weights[0]))
    return sums, float(l1)


def gauss_panels(f, panels, order):
    """Composite Gauss-Legendre sum of f(u, sqrt(1-u^2)) over u in [-1, 1].

    The order-point rule is the one embedded in the oracle's Kronrod rule,
    on ``panels`` panels uniform in theta.  f is called once, on the
    u >= 0 half of the layout and its mirror image, a node at u = 0 once.
    """
    nodes, weights = _gk_rule(order, np.float64)

    def pair(u, su):
        zero = int(u[0] == 0.0)
        vals = f(np.concatenate((u, -u[zero:])), np.concatenate((su, su[zero:])))
        plus = vals[:u.size]
        minus = np.concatenate((vals[:zero], vals[u.size:]))
        return plus + minus, np.abs(plus) + np.abs(minus)

    return complex(_fold_sums(pair, panels, nodes[1::2], weights[1:, 1::2])[0][0])


def _refine(pair, imaginary, spec, auto_panels):
    panels = spec.base_panels if spec.base_panels is not None else auto_panels
    width = 2 * spec.nodes_per_panel + 1
    if panels * width > MAX_NODES:
        raise ValueError(
            f"quadrature needs more than {MAX_NODES} nodes per pass "
            "(R, base_panels or nodes_per_panel too large)")

    def run(panels, dtype):
        nodes, weights = _gk_rule(spec.nodes_per_panel, dtype)
        (kronrod, gauss), l1 = _fold_sums(pair, panels, nodes, weights)
        value = complex(0.0, kronrod) if imaginary else complex(kronrod)
        return value, float(abs(kronrod - gauss)), l1

    dtype = np.float64
    value, est, l1 = run(panels, dtype)
    if (_HAS_EXTENDED and _NOISE_GUARD * _EPS64 * l1
            > max(spec.abs_tol, spec.rel_tol * abs(value))):
        dtype = np.longdouble
        value, est, l1 = run(panels, dtype)
    eps = _EPS_LONG if dtype is np.longdouble else _EPS64
    for doublings in range(spec.max_refinements + 1):
        if est <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            return QuadResult(value, est, panels, True)
        # More panels cannot reduce an estimate at the rounding floor of
        # this precision.
        if (doublings == spec.max_refinements or est <= 2.0 * eps * l1
                or 2 * panels * width > MAX_NODES):
            break
        panels *= 2
        value, est, l1 = run(panels, dtype)
    return QuadResult(value, est, panels, False)


def _auto_panels(x, degree):
    # A theta-uniform panel of width pi/P carries a phase of at most about
    # x*pi/P; ceil(x/(4 pi)) panels hold that under ~4 pi^2 radians (about
    # 6 periods per 32-node panel), and degree adds one panel per zero of the
    # Legendre factor.
    return max(8, int(math.ceil(x / (4.0 * math.pi))) + degree)


def _exp_times_even(amplitude, rate, odd, spec, auto_panels):
    # The integral of exp(i rate u) a(u, su) for a real amplitude a of
    # parity (-1)^odd: f(u) + f(-u) is 2 cos(rate u) a for even a and
    # 2 i sin(rate u) a for odd a, and |f(u)| + |f(-u)| is 2 |a|.
    trig = np.sin if odd else np.cos

    def pair(u, su):
        amp = 2.0 * amplitude(u, su)
        return trig(rate * u) * amp, np.abs(amp)

    return _refine(pair, odd, spec, auto_panels)


def integrate_I(p, spec=QuadratureSpec()):
    """Quadrature of the main integral for ``IntegralParams`` p."""
    rs = p.R * math.sin(p.alpha)

    def amplitude(u, su):
        return assoc_legendre(p.n, p.m, u) * bessel_j(p.m, rs * su)

    return _exp_times_even(amplitude, p.R * math.cos(p.alpha),
                           (p.n + p.m) % 2, spec, _auto_panels(p.R, p.n))


def integrate_dI_dR(p, spec=QuadratureSpec()):
    """Quadrature of the analytic R-derivative of the main integrand.

    d/dR [exp(i R cos(a) u) J_m(R sin(a) su)] expands to the phase term
    i cos(a) u exp(.) J_m(.) plus exp(.) sin(a) su J_m'(.), with
    J_m' = (J_{m-1} - J_{m+1}) / 2.  With A = cos(a) u J_m (odd in u) and
    B = sin(a) su J_m' (even), f(u) + f(-u) is 2 P (B cos - A sin) for
    even n + m and 2 i P (A cos + B sin) for odd, the trigonometric
    functions taken at R cos(a) u.
    """
    ca = math.cos(p.alpha)
    sa = math.sin(p.alpha)
    rc = p.R * ca
    rs = p.R * sa
    odd = (p.n + p.m) % 2

    def pair(u, su):
        z = rs * su
        djm = 0.5 * (bessel_j(p.m - 1, z) - bessel_j(p.m + 1, z))
        a = ca * u * bessel_j(p.m, z)
        b = sa * su * djm
        c = np.cos(rc * u)
        s = np.sin(rc * u)
        amp = 2.0 * assoc_legendre(p.n, p.m, u)
        folded = (a * c + b * s) if odd else (b * c - a * s)
        return amp * folded, np.abs(amp) * np.hypot(a, b)

    return _refine(pair, odd, spec, _auto_panels(p.R, p.n))


def integrate_lock(n, m, R, sign, spec=QuadratureSpec()):
    """Quadrature of the on-axis integral: sin^{|m|+1} exp(+-iR cos) P_n^{|m|}."""
    _check_lock_args(n, m, R, sign)
    am = abs(m)

    def amplitude(u, su):
        return su ** am * assoc_legendre(n, am, u)

    return _exp_times_even(amplitude, sign * R, (n + am) % 2, spec,
                           _auto_panels(R, n))


def integrate_poisson_exp(s, x, spec=QuadratureSpec()):
    """Quadrature of sin(theta) exp(i x cos(theta)) sin^{2s}(theta)."""
    _check_moment_args(s, x)

    def amplitude(u, su):
        return ((1.0 - u) * (1.0 + u)) ** s

    return _exp_times_even(amplitude, x, False, spec, _auto_panels(x, s))
