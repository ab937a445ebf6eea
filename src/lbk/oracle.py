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
where the platform provides it.  Near the floor an estimate under the
target can be luck, so a pass whose floor crowds the target is accepted
only where its value also agrees with the layout of half its panels.

Sweeps make many small ``integrate_I`` calls, where numpy's per-call cost
dominates.  Inside a block (``_blocks``, ``_seeded``), the float64 seed
passes of a run of cases are evaluated together, in one set of numpy calls,
each with the bits of its own call; each case's call then takes its seed
pass from the block and refines it alone, as a call outside a block does.
"""

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernel import _check_lock_args, _check_moment_args
from .specfun import _bessel_band, _bessel_j, assoc_legendre, bessel_j

_EPS64 = float(np.finfo(np.float64).eps)
_EPS_LONG = float(np.finfo(np.longdouble).eps)
_HAS_EXTENDED = _EPS_LONG < _EPS64

# A pass's rounding floor is eps * integral(|f|) in its precision, and it
# crowds a figure that _CROWD times the floor exceeds.  A double pass whose
# floor crowds the target escalates to extended precision, a pass whose
# floor crowds its own estimate stalls, and a crowded pass (escalated, or
# its floor crowding the target) is accepted only where its value agrees
# with the other layout.  On 1000 held-out cases over n <= 170, one stayed
# converged but wrong at 4; none did at 8 or 16, and no more right cases
# became unconverged.
_CROWD = 8.0

# Most nodes one pass's layout may hold, (2N+1) P for P panels, counted in
# full although a pass evaluates only the u >= 0 half: 8 MB per float64
# array over that half.  The default seed at R = 1e4 and n = 170 is 881
# panels, 57 k nodes.
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


def _check_tolerances(abs_tol, rel_tol):
    # Shared with verify.SweepConfig.
    if not 0.0 < abs_tol < 1.0 or not 0.0 < rel_tol < 1.0:
        raise ValueError("tolerances must lie in (0, 1)")


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel counts, node order and stopping tolerances for the oracle.

    ``base_panels = None`` selects the oscillation-aware seeding rule
    max(8, ceil(R/(4 pi)) + ceil(n/2)) of the operation being integrated, on
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
        _check_tolerances(self.abs_tol, self.rel_tol)
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


@functools.cache
def _gk_rule(n, dtype):
    """The (2n + 1)-point Gauss-Kronrod rule on [-1, 1] in ``dtype``.

    Returns the ascending nodes and a (2, 2n + 1) weight array: the
    Kronrod weights, then the weights of the embedded n-point Gauss rule,
    whose nodes are the odd-indexed ones (zero weight elsewhere).  Cached
    per (n, dtype) for the life of the process.
    """
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
    return nodes, weights


def _layout(panels, nodes, weights):
    # The rule's nodes mapped onto the u >= 0 half of the theta-uniform
    # layout: for odd P the central panel [-e, e], on its nodes t >= 0, then
    # the P // 2 panels above it.  The edges sin(i pi/(2P)), i = P, P - 2,
    # ..., are the -cos(k pi/P) of the full layout mirrored onto u >= 0, so
    # the layout is exact under u -> -u.  Returns u, su = sqrt(1 - u^2) and
    # the weights _sums takes.
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
    return u, su, (edges[0], centre, half, weights)


def _sums(vals, mass, folds):
    # With vals = f(u) + f(-u) and mass = |f(u)| + |f(-u)| on a layout's u,
    # the sums of vals under each row of the rule's weights and the sum of
    # mass under the first row; ``folds`` is the layout's weights.
    edge, centre, half, weights = folds
    k = centre.shape[1]
    grid = (-1, weights.shape[1])
    sums = (edge * (vals[:k] @ centre.T)
            + half @ (vals[k:].reshape(grid) @ weights.T))
    l1 = (edge * (mass[:k] @ centre[0])
          + half @ (mass[k:].reshape(grid) @ weights[0]))
    return sums, float(l1)


def _fold_sums(pair, panels, nodes, weights):
    # _sums of pair(u, su), which returns f(u) + f(-u) and |f(u)| + |f(-u)|
    # on the layout of ``panels`` panels.
    u, su, folds = _layout(panels, nodes, weights)
    return _sums(*pair(u, su), folds)


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


def _seed_panels(spec, auto_panels):
    # The seed pass's panel count; past MAX_NODES, the ValueError.
    panels = spec.base_panels if spec.base_panels is not None else auto_panels
    if panels * (2 * spec.nodes_per_panel + 1) > MAX_NODES:
        raise ValueError(
            f"quadrature needs more than {MAX_NODES} nodes per pass "
            "(R, base_panels or nodes_per_panel too large)")
    return panels


def _refine(pair, imaginary, spec, auto_panels, seed=None):
    # The passes from the seed layout on.  ``seed``, where given, is the
    # float64 seed pass's _sums, evaluated ahead in a block (_seeded).
    panels = _seed_panels(spec, auto_panels)
    width = 2 * spec.nodes_per_panel + 1

    def outcome(sums, l1):
        kronrod, gauss = sums
        value = complex(0.0, kronrod) if imaginary else complex(kronrod)
        return value, float(abs(kronrod - gauss)), l1

    def run(panels, dtype):
        nodes, weights = _gk_rule(spec.nodes_per_panel, dtype)
        return outcome(*_fold_sums(pair, panels, nodes, weights))

    def target(value):
        return max(spec.abs_tol, spec.rel_tol * abs(value))

    def crowds(l1, eps, figure):
        return _CROWD * eps * l1 > figure

    value, est, l1 = (run(panels, np.float64) if seed is None
                      else outcome(*seed))
    escalated = _HAS_EXTENDED and crowds(l1, _EPS64, target(value))
    dtype, eps = ((np.longdouble, _EPS_LONG) if escalated
                  else (np.float64, _EPS64))
    if escalated:
        value, est, l1 = run(panels, dtype)
    other = None
    for doublings in range(spec.max_refinements + 1):
        tol = target(value)
        # At the floor a small estimate can be luck, so a crowded pass must
        # also agree with the other layout (half its panels) within tol.
        if est <= tol and not ((escalated or crowds(l1, eps, tol)) and (
                other is None or abs(value - other) > tol)):
            return QuadResult(value, est, panels, True)
        # More panels cannot reduce an estimate at the floor; a pass that
        # met tol without a layout to compare with runs the next one.
        stalled = crowds(l1, eps, est) and not (est <= tol and other is None)
        if (doublings == spec.max_refinements or stalled
                or 2 * panels * width > MAX_NODES):
            break
        other = value
        panels *= 2
        value, est, l1 = run(panels, dtype)
    return QuadResult(value, est, panels, False)


def _check_finite(x, name):
    # The closed forms' error for an infinite argument; their domain checks,
    # shared with the oracle, have already turned nan away.
    if math.isinf(x):
        raise ValueError(f"{name} requires finite arguments")


def _auto_panels(x, degree):
    # A theta-uniform panel of width pi/P carries a phase of at most about
    # x*pi/P; ceil(x/(4 pi)) panels hold that under ~4 pi^2 radians (about
    # 6 periods per 32-node panel), and degree adds one panel per two zeros
    # of the Legendre factor, which the Kronrod rule, exact to degree 97,
    # resolves within one panel.
    return max(8, int(math.ceil(x / (4.0 * math.pi))) + (degree + 1) // 2)


def _folded(amp, phase, odd):
    # f(u) + f(-u) and |f(u)| + |f(-u)| of f(u) = exp(i phase) amp / 2 for
    # a real amp of parity (-1)^odd: cos(phase) amp where amp is even and
    # i sin(phase) amp where it is odd, the i applied to the sums, and
    # |amp|.  ``odd`` is one parity, or one per point in a block.
    if np.ndim(odd):
        trig = np.empty_like(phase)
        np.cos(phase, out=trig, where=~odd)
        np.sin(phase, out=trig, where=odd)
    else:
        trig = (np.sin if odd else np.cos)(phase)
    trig *= amp
    return trig, np.abs(amp)


def _exp_times_even(amplitude, rate, odd, spec, auto_panels, seed=None):
    # The integral of exp(i rate u) a(u, su) for a real amplitude a of
    # parity (-1)^odd.
    def pair(u, su):
        return _folded(2.0 * amplitude(u, su), rate * u, odd)

    return _refine(pair, odd, spec, auto_panels, seed)


def integrate_I(p, spec=QuadratureSpec()):
    """Quadrature of the main integral for ``IntegralParams`` p.

    Inside a block of cases (``_seeded``) the float64 seed pass is the
    block's, which holds the bits this call would compute.
    """
    rs = p.R * math.sin(p.alpha)

    def amplitude(u, su):
        return assoc_legendre(p.n, p.m, u) * bessel_j(p.m, rs * su)

    return _exp_times_even(amplitude, p.R * math.cos(p.alpha),
                           (p.n + p.m) % 2, spec, _auto_panels(p.R, p.n),
                           _block_seed(p, spec))


# The seed passes of the block in progress, keyed by (params, spec); None
# outside a block.
_SEEDS = contextvars.ContextVar("lbk_oracle_seeds", default=None)


def _block_seed(p, spec):
    seeds = _SEEDS.get()
    return seeds.get((p, spec)) if seeds else None

# Most seed-pass nodes (u >= 0 halves) one block evaluates together; a case
# whose layout alone holds more is a block of its own.  Pooled 1000-case
# sweeps (2 CPUs, alpha margin 0.5, median of 21) took 0.351 s unblocked
# and 0.212 / 0.206 / 0.197 s at 4096 / 8192 / 16384 nodes (serial, median
# of 11: 0.557 and 0.301 / 0.270 / 0.265 s), while each worker's peak RSS
# rose 0.75 / 1.05 / 1.85 MB: the block's arrays.
_BLOCK_NODES = 8192


def _blocks(cases, spec):
    # Consecutive runs of ``cases`` whose seed passes hold at most
    # _BLOCK_NODES nodes together, or one case, as one past MAX_NODES is.
    width = 2 * spec.nodes_per_panel + 1
    block, held = [], 0
    for p in cases:
        try:
            panels = _seed_panels(spec, _auto_panels(p.R, p.n))
            nodes = (panels * width + panels % 2) // 2
        except ValueError:
            nodes = _BLOCK_NODES + 1
        if block and held + nodes > _BLOCK_NODES:
            yield block
            block, held = [], 0
        block.append(p)
        held += nodes
    if block:
        yield block


@contextlib.contextmanager
def _seeded(cases, spec):
    # A block: within it, integrate_I(p, spec) for p in ``cases`` starts
    # from a seed pass evaluated with all the others (_seed_passes).  The
    # seeds are dropped when the block ends, whether or not it raised.
    token = _SEEDS.set(_seed_passes(cases, spec))
    try:
        yield
    finally:
        _SEEDS.reset(token)


def _seed_passes(cases, spec):
    # {(p, spec): _sums of the float64 seed pass} of integrate_I for the
    # cases, in one set of numpy calls.  Each case keeps its own layout,
    # P_n^m and sums, with the shapes of its own call; J_m comes from one
    # engine call over all the nodes, one order per point, which gives each
    # case the bits of its own bessel_j call; ``sizes`` spreads each case's
    # values over its points and cuts its sums back out.  A case whose seed
    # pass raises is left out, to raise in its own call.
    nodes, weights = _gk_rule(spec.nodes_per_panel, np.float64)
    layouts, kept = {}, []
    for p in cases:
        try:
            panels = _seed_panels(spec, _auto_panels(p.R, p.n))
            if panels not in layouts:
                layouts[panels] = _layout(panels, nodes, weights)
            u, su, folds = layouts[panels]
            kept.append((p, u, su, folds, assoc_legendre(p.n, p.m, u)))
        except (ValueError, OverflowError):
            continue
    if not kept:
        return {}
    params, u, su, folds, legendre = zip(*kept)
    sizes = np.array([x.size for x in u])

    def per_point(value):
        return np.repeat([value(p) for p in params], sizes)

    # The products of the lone call's pair, in its order, in place.
    amp = _bessel_j(per_point(lambda p: p.m),
                    per_point(lambda p: p.R * math.sin(p.alpha))
                    * np.concatenate(su))
    amp *= np.concatenate(legendre)
    amp *= 2.0
    vals, mass = _folded(
        amp, per_point(lambda p: p.R * math.cos(p.alpha)) * np.concatenate(u),
        per_point(lambda p: (p.n + p.m) % 2 == 1))
    ends = np.cumsum(sizes).tolist()
    return {(p, spec): _sums(vals[end - size:end], mass[end - size:end], f)
            for p, f, size, end in zip(params, folds, sizes.tolist(), ends)}


def integrate_dI_dR(p, spec=QuadratureSpec()):
    """Quadrature of the analytic R-derivative of the main integrand.

    d/dR [exp(i R cos(a) u) J_m(R sin(a) su)] expands to the phase term
    i cos(a) u exp(.) J_m(.) plus exp(.) sin(a) su J_m'(.), with
    J_m' = (J_{m-1} - J_{m+1}) / 2.  With A = cos(a) u J_m (odd in u) and
    B = sin(a) su J_m' (even), f(u) + f(-u) is 2 P (B cos - A sin) for
    even n + m and 2 i P (A cos + B sin) for odd, the trigonometric
    functions taken at R cos(a) u.  Each pass takes the orders
    |m|-1..|m|+1 (0..1 at m = 0, with J_{-1} = -J_1) from one band, one
    loop per Bessel regime, and J_{-k} = (-1)^k J_k carries both J_m and
    J_m' to m < 0.
    """
    am = abs(p.m)
    sign = -1.0 if p.m < 0 and am % 2 else 1.0
    ca = sign * math.cos(p.alpha)
    sa = sign * math.sin(p.alpha)
    rc = p.R * math.cos(p.alpha)
    rs = p.R * math.sin(p.alpha)
    odd = (p.n + p.m) % 2

    def pair(u, su):
        band = _bessel_band(max(am - 1, 0), am + 1, rs * su)
        below = band[0] if am else -band[1]
        a = ca * u * band[-2]
        b = sa * su * (0.5 * (below - band[-1]))
        c = np.cos(rc * u)
        s = np.sin(rc * u)
        amp = 2.0 * assoc_legendre(p.n, p.m, u)
        folded = (a * c + b * s) if odd else (b * c - a * s)
        return amp * folded, np.abs(amp) * np.hypot(a, b)

    return _refine(pair, odd, spec, _auto_panels(p.R, p.n))


def integrate_lock(n, m, R, sign, spec=QuadratureSpec()):
    """Quadrature of the on-axis integral: sin^{|m|+1} exp(+-iR cos) P_n^{|m|}."""
    _check_lock_args(n, m, R, sign)
    _check_finite(R, "integrate_lock")
    am = abs(m)

    def amplitude(u, su):
        return su ** am * assoc_legendre(n, am, u)

    return _exp_times_even(amplitude, sign * R, (n + am) % 2, spec,
                           _auto_panels(R, n))


def integrate_poisson_exp(s, x, spec=QuadratureSpec()):
    """Quadrature of sin(theta) exp(i x cos(theta)) sin^{2s}(theta)."""
    _check_moment_args(s, x)
    _check_finite(x, "integrate_poisson_exp")

    def amplitude(u, su):
        return ((1.0 - u) * (1.0 + u)) ** s

    return _exp_times_even(amplitude, x, False, spec, _auto_panels(x, s))
