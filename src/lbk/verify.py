"""Randomized and structured verification of the closed forms.

The main entry point is ``sweep_random``: it draws (n, m, alpha, R) tuples
deterministically from a seed, compares the closed form against the
quadrature oracle case by case and aggregates the failures.  The draw uses
CPython's ``random.Random`` (MT19937) through ``random()`` only, with the
mapping documented in ``draw_cases``, so any implementation of the same
generator reproduces the sweep bit for bit.  The case list is cut once into
blocks of consecutive cases whose oracle seed passes are evaluated together
(``oracle._blocks``, ``oracle._seeded``); each case still gets the report
of its own lone ``check_identity`` call, bit for bit.

Residual checks normalize by 1 + (largest term modulus): relative where the
recurrence terms are large, absolute where they all vanish together (for
example at alpha = pi/2 with n + m odd), with no special-casing.
"""

import math
import os
import random
import time
from dataclasses import dataclass
from functools import partial, reduce
from typing import NamedTuple

import numpy as np

from .kernel import (
    SERIES_S,
    IntegralParams,
    closed_form_dI_dR,
    closed_form_I,
    i00_series_partial,
    mult_theorem_partial,
)
from .oracle import (
    QuadratureSpec,
    _blocks,
    _check_tolerances,
    _gk_rule,
    _seeded,
    integrate_dI_dR,
    integrate_I,
)
from .specfun import (
    FACTORIAL_N_CAP,
    assoc_legendre,
    bessel_j,
    spherical_bessel_j,
)

WORKERS_ENV = "LBK_WORKERS"

# Oracle stopping rule for sweeps: one decade below the default pass
# tolerance, with the relative branch matching the 1 + |closed| error
# normalization.  High-cancellation draws (large n = |m|) have a rounding
# floor above the strict oracle defaults, which would report spurious
# non-convergence at any panel count.
SWEEP_ORACLE_SPEC = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8)


@dataclass(frozen=True)
class SweepConfig:
    """Seeded sweep domain and pass tolerances, each in (0, 1)."""

    seed: int
    cases: int
    n_max: int = 20
    R_max: float = 50.0
    alpha_margin: float = 0.05
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.cases < 1:
            raise ValueError(f"cases must be >= 1 (got {self.cases})")
        if not 0 <= self.n_max <= FACTORIAL_N_CAP:
            raise ValueError(
                f"n_max must lie in [0, {FACTORIAL_N_CAP}] (got {self.n_max})")
        if not self.R_max > 0.0:
            raise ValueError(f"R_max must be positive (got {self.R_max})")
        if not 0.0 < self.alpha_margin < math.pi / 2.0:
            raise ValueError(
                f"alpha_margin must lie in (0, pi/2) (got {self.alpha_margin})")
        _check_tolerances(self.abs_tol, self.rel_tol)


@dataclass(frozen=True)
class CaseReport:
    """One case of a sweep.

    A side that raised leaves its value and both errors None, and
    ``reason`` names the side and its message.
    """

    params: IntegralParams
    closed: complex | None
    oracle: complex | None
    abs_err: float | None
    rel_err: float | None
    passed: bool
    oracle_converged: bool
    reason: str | None = None


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    total: int
    failures: tuple
    max_abs_err: float
    max_rel_err: float
    wall_time: float


class RecurrenceResidual(NamedTuple):
    residual: float
    converged: bool


class DerivativeErrors(NamedTuple):
    fd_err: float
    quad_err: float


def resolve_workers(requested=None):
    """Worker count for sweeps: requested or CPU count, capped by LBK_WORKERS."""
    workers = requested if requested is not None else (os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"worker count must be positive (got {workers})")
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer (got {env!r})")
        if cap < 1:
            raise ValueError(f"{WORKERS_ENV} must be positive (got {env!r})")
        workers = min(workers, cap)
    return workers


def draw_cases(cfg):
    """The deterministic case list for a sweep config.

    One case consumes four MT19937 uniforms u1..u4 in [0, 1), in order:
    n = floor(u1 * (n_max + 1)), m = floor(u2 * (2n + 1)) - n,
    alpha = margin + u3 * (pi - 2 margin), R = R_max * (1 - u4),
    giving n in [0, n_max], m in [-n, n], alpha in the margin-clipped
    interval and R in (0, R_max].
    """
    rng = random.Random(cfg.seed)
    cases = []
    for _ in range(cfg.cases):
        n = int(rng.random() * (cfg.n_max + 1))
        m = int(rng.random() * (2 * n + 1)) - n
        alpha = cfg.alpha_margin + rng.random() * (math.pi - 2.0 * cfg.alpha_margin)
        R = cfg.R_max * (1.0 - rng.random())
        cases.append(IntegralParams(n, m, alpha, R))
    return cases


def check_identity(p, spec=QuadratureSpec(), abs_tol=SweepConfig.abs_tol,
                   rel_tol=SweepConfig.rel_tol):
    """Compare the closed form against the oracle for one parameter tuple.

    A side that raises ValueError or OverflowError (a value past the
    double range, say) fails the case instead of the sweep.
    """
    try:
        closed = closed_form_I(p)
    except (ValueError, OverflowError) as exc:
        return CaseReport(p, None, None, None, None, False, False,
                          f"closed form: {exc}")
    try:
        quad = integrate_I(p, spec)
    except (ValueError, OverflowError) as exc:
        return CaseReport(p, closed, None, None, None, False, False,
                          f"oracle: {exc}")
    abs_err = abs(closed - quad.value)
    rel_err = abs_err / (1.0 + abs(closed))
    passed = quad.converged and (abs_err <= abs_tol or rel_err <= rel_tol)
    return CaseReport(p, closed, quad.value, abs_err, rel_err, passed,
                      quad.converged)


def _check_block(block, spec, abs_tol, rel_tol):
    # check_identity over one oracle block (oracle._seeded).
    with _seeded(block, spec):
        return [check_identity(p, spec, abs_tol, rel_tol) for p in block]


def sweep_random(cfg, spec=SWEEP_ORACLE_SPEC, workers=None):
    """Run ``check_identity`` over the seeded case list and aggregate.

    A process pool maps the cases' oracle blocks (``oracle._blocks``) where
    there is more than one worker and more than one block; otherwise the
    blocks run in order in-process.  The report is assembled in case order,
    so equal seeds give equal reports apart from ``wall_time``.
    """
    start = time.perf_counter()
    blocks = list(_blocks(draw_cases(cfg), spec))
    run = partial(_check_block, spec=spec, abs_tol=cfg.abs_tol,
                  rel_tol=cfg.rel_tol)
    nworkers = resolve_workers(workers)
    if nworkers > 1 and len(blocks) > 1:
        # Built once here, the rule reaches every forked worker in its
        # cache instead of being rebuilt by each.
        _gk_rule(spec.nodes_per_panel, np.float64)
        # Imported here: it loads multiprocessing, which nothing else in
        # eval, quad or table needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            parts = list(pool.map(run, blocks))
    else:
        parts = map(run, blocks)
    reports = [r for part in parts for r in part]
    failures = tuple(r for r in reports if not r.passed)
    return SweepReport(
        config=cfg,
        total=len(reports),
        failures=failures,
        max_abs_err=max((r.abs_err for r in reports if r.abs_err is not None),
                        default=0.0),
        max_rel_err=max((r.rel_err for r in reports if r.rel_err is not None),
                        default=0.0),
        wall_time=time.perf_counter() - start,
    )


def _residual(lhs, terms):
    # |lhs - sum(terms)| / (1 + largest modulus of lhs and the terms),
    # elementwise for arrays, maximized over the elements.  The builtin abs
    # keeps the complex moduli of the five-term checks on Python's hypot.
    scale = 1.0 + reduce(np.maximum, (abs(t) for t in terms), abs(lhs))
    return float(np.max(abs(lhs - sum(terms)) / scale))


def _five_term(n, m, alpha, R, evaluate):
    # Residual of the five-term recurrence in (n, m) for the integral family,
    # with every term from evaluate(params) -> (value, converged).  The
    # Legendre factor vanishes identically for |m| > n, so the family
    # extends by zero there.
    if not 1 <= m <= n - 1:
        raise ValueError(f"require 1 <= m <= n-1 (got n={n}, m={m})")
    pref = R * math.sin(alpha) / (2.0 * m * (2.0 * n + 1.0))
    terms = ((n + 1, m - 1, pref * (n - m + 1.0) * (n - m + 2.0)),
             (n - 1, m - 1, -pref * (n + m) * (n + m - 1.0)),
             (n - 1, m + 1, pref),
             (n + 1, m + 1, -pref))
    lhs, converged = evaluate(IntegralParams(n, m, alpha, R))
    branches = []
    for k, j, coeff in terms:
        value, ok = ((0.0 + 0.0j, True) if abs(j) > k
                     else evaluate(IntegralParams(k, j, alpha, R)))
        branches.append(coeff * value)
        converged = converged and ok
    return RecurrenceResidual(_residual(lhs, branches), converged)


def check_recurrence_F(n, m, alpha, R):
    """Five-term recurrence residual of the closed form, near rounding."""
    return _five_term(n, m, alpha, R,
                      lambda p: (closed_form_I(p), True)).residual


def check_recurrence_I(n, m, alpha, R, spec=QuadratureSpec()):
    """Same five-term residual with every term evaluated by quadrature."""
    def quad(p):
        result = integrate_I(p, spec)
        return result.value, result.converged

    return _five_term(n, m, alpha, R, quad)


def check_derivative(p, spec=QuadratureSpec(), h=1e-5):
    """Finite-difference and quadrature errors of the R-derivative form."""
    if not p.R > h > 0.0:
        raise ValueError(f"require R > h > 0 (got R={p.R}, h={h})")
    exact = closed_form_dI_dR(p)
    plus = closed_form_I(IntegralParams(p.n, p.m, p.alpha, p.R + h))
    minus = closed_form_I(IntegralParams(p.n, p.m, p.alpha, p.R - h))
    fd_err = abs((plus - minus) / (2.0 * h) - exact)
    quad_err = abs(integrate_dI_dR(p, spec).value - exact)
    return DerivativeErrors(fd_err, quad_err)


def check_alpha_independence(R, alphas, spec=QuadratureSpec()):
    """Max pairwise spread of the oracle at n = m = 0 across alphas."""
    values = [integrate_I(IntegralParams(0, 0, a, R), spec).value
              for a in alphas]
    return max((abs(a - b) for i, a in enumerate(values)
                for b in values[i + 1:]), default=0.0)


_DEGREE_X_GRID = tuple(np.linspace(-1.0, 1.0, 21))
_ALPHA_GRID = tuple(np.linspace(0.1, math.pi - 0.1, 19))
_BESSEL_X_GRID = (0.5, 1.0, 2.0, 5.0, 12.0, 25.0, 50.0, 100.0)


def _legendre_table(top, lowest, x):
    # P_k^j(x) for 0 <= k <= top and lowest <= j <= k, one public call each,
    # as a lookup (k, j) -> values.  The family extends by zero where
    # |j| > k; an order inside the range but outside the table raises.
    zero = np.zeros_like(x)
    table = {(k, j): assoc_legendre(k, j, x) for k in range(top + 1)
             for j in range(max(lowest, -k), k + 1)}
    return lambda k, j: zero if abs(j) > k else table[k, j]


def check_specfun_recurrences(n_max=30, x_grid=None, alpha_grid=None,
                              bessel_x_grid=None):
    """Max normalized residual of each recurrence family over a fixed grid.

    Families: the degree-coupled Legendre pair (raising and lowering in
    order against sqrt(1-x^2)), the alpha-form Legendre pair (2m/sin(alpha)
    against the degree-(n+1) and degree-(n-1) combinations), the cylindrical
    Bessel three-term relation and the spherical Bessel three-term relation.
    Every value is its own public call, made once per grid: values from one
    recurrence band would check the recurrence against itself.
    """
    if n_max < 2:
        raise ValueError(f"require n_max >= 2 (got {n_max})")
    x = np.asarray(x_grid if x_grid is not None else _DEGREE_X_GRID, float)
    alphas = np.asarray(alpha_grid if alpha_grid is not None else _ALPHA_GRID,
                        float)
    bx = np.asarray(bessel_x_grid if bessel_x_grid is not None
                    else _BESSEL_X_GRID, float)

    res_degree = 0.0
    res_alpha = 0.0
    sx = np.sqrt((1.0 - x) * (1.0 + x))
    ca = np.cos(alphas)
    sa = np.sin(alphas)
    P = _legendre_table(n_max + 1, -1, x)
    Pa = _legendre_table(n_max + 1, 0, ca)
    for n in range(1, n_max + 1):
        for m in range(0, n + 1):
            lhs = (2.0 * n + 1.0) * sx * P(n, m)
            res_degree = max(res_degree, _residual(
                lhs, (P(n - 1, m + 1), -P(n + 1, m + 1))))
            res_degree = max(res_degree, _residual(
                lhs, ((n - m + 1.0) * (n - m + 2.0) * P(n + 1, m - 1),
                      -(n + m) * (n + m - 1.0) * P(n - 1, m - 1))))
            if m >= 1:
                lhs_a = 2.0 * m / sa * Pa(n, m)
                res_alpha = max(res_alpha, _residual(
                    lhs_a, (-(n - m + 1.0) * (n - m + 2.0) * Pa(n + 1, m - 1),
                            -Pa(n + 1, m + 1))))
                res_alpha = max(res_alpha, _residual(
                    lhs_a, (-(n + m) * (n + m - 1.0) * Pa(n - 1, m - 1),
                            -Pa(n - 1, m + 1))))

    J = [bessel_j(m, bx) for m in range(n_max + 2)]
    res_cyl = 0.0
    for m in range(1, n_max + 1):
        res_cyl = max(res_cyl, _residual(
            J[m], (bx / (2.0 * m) * J[m - 1], bx / (2.0 * m) * J[m + 1])))

    j = [spherical_bessel_j(n, bx) for n in range(n_max + 2)]
    res_sph = 0.0
    for n in range(1, n_max + 1):
        res_sph = max(res_sph, _residual(
            j[n], (bx / (2.0 * n + 1.0) * j[n - 1],
                   bx / (2.0 * n + 1.0) * j[n + 1])))

    return {
        "legendre_degree": res_degree,
        "legendre_alpha": res_alpha,
        "bessel_cyl": res_cyl,
        "bessel_sph": res_sph,
    }


_MULT_R_GRID = (0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0)
_MULT_ALPHA_GRID = (0.0, 0.15, 0.35, 0.55, math.pi / 4.0)


def check_mult_theorem(R_grid=None, alpha_grid=None, S=SERIES_S):
    """Max error of both series partial sums against the elementary targets."""
    if S < 1:
        raise ValueError(f"require S >= 1 (got S={S})")
    Rs = _MULT_R_GRID if R_grid is None else R_grid
    alphas = _MULT_ALPHA_GRID if alpha_grid is None else alpha_grid
    worst = 0.0
    for R in Rs:
        target = spherical_bessel_j(0, R)
        for alpha in alphas:
            worst = max(worst,
                        abs(mult_theorem_partial(R, alpha, S) - target),
                        abs(i00_series_partial(R, alpha, S) - 2.0 * target))
    return worst
