"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure (run with pytest -s to see them
inline; they also appear for failing runs)."""

import math
import random
import time

import pytest

from lbk.cli import bench_rows
from lbk.kernel import (
    IntegralParams,
    closed_form_dI_dR,
    i00_series_partial,
    lock_closed_form,
    mult_theorem_partial,
    poisson_closed_form,
)
from lbk.oracle import (
    integrate_I,
    integrate_lock,
    integrate_poisson_exp,
)
from lbk.specfun import factorial_ratio, spherical_bessel_j
from lbk.verify import (
    SWEEP_ORACLE_SPEC,
    SweepConfig,
    check_derivative,
    check_mult_theorem,
    check_recurrence_F,
    check_recurrence_I,
    check_specfun_recurrences,
    sweep_random,
)


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_main_identity_sweep(capsys):
    # `verify --seed 42 --cases 1000` over n <= 20, |m| <= n, alpha in
    # [0.05, pi-0.05], R in (0, 50]: exit 0, zero failures at
    # rel_err <= 1e-8 (denominator 1+|closed|), well under a minute
    import json

    from lbk.cli import main

    t0 = time.perf_counter()
    code = main(["verify", "--seed", "42", "--cases", "1000"])
    elapsed = time.perf_counter() - t0
    rep = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        report("main-identity-sweep",
               code == 0 and rep["total"] == 1000 and not rep["failures"],
               f"exit={code}, failures={len(rep['failures'])}, "
               f"max_rel={rep['max_rel_err']:.3e}, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_main_identity_sweep_library_path():
    # same criterion through the library API (what the CLI delegates to)
    rep = sweep_random(SweepConfig(seed=42, cases=1000))
    report("main-identity-sweep-lib",
           rep.total == 1000 and not rep.failures,
           f"failures={len(rep.failures)}, max_rel={rep.max_rel_err:.3e}")


def test_base_case_alpha_drops_out():
    # integrate_I(0,0,alpha,R) agrees with 2 j_0(R) within 1e-10 absolute for
    # 20 pairs including alpha near the interval ends; alpha-spread <= 1e-9
    alphas = [0.01, 0.3, 0.9, 1.5707963, 2.2, math.pi - 0.01]
    radii = [0.0, 0.5, 2.0, math.pi, 17.3, 50.0]
    pairs = [(a, R) for R in radii[:4] for a in alphas[:5]][:20]
    pairs[-2:] = [(alphas[-1], 17.3), (0.01, 50.0)]
    worst = 0.0
    for a, R in pairs:
        got = integrate_I(IntegralParams(0, 0, a, R)).value
        worst = max(worst, abs(got - 2.0 * spherical_bessel_j(0, R)))
    spread = 0.0
    for R in radii:
        vals = [integrate_I(IntegralParams(0, 0, a, R)).value for a in alphas]
        spread = max(spread, max(abs(x - y) for x in vals for y in vals))
    report("base-case", worst <= 1e-10 and spread <= 1e-9,
           f"worst |quad - 2 j0|={worst:.3e} over {len(pairs)} pairs, "
           f"alpha spread={spread:.3e}")


def test_lock_integral_family():
    # closed form vs quadrature for n <= 15, 0 <= |m| <= n, R in
    # {0, 0.5, 5, 50}, both signs, scaled by the family's own magnitude
    # 1 + |closed| + 2 (n+|m|)!/(n-|m|)! (the literal absolute 1e-9 is not
    # representable at the large-(n+m) values; see README on tolerances)
    worst = 0.0
    cases = 0
    for n in range(16):
        for m in range(n + 1):
            for R in (0.0, 0.5, 5.0, 50.0):
                for sign in (1, -1):
                    closed = lock_closed_form(n, m, R, sign)
                    quad = integrate_lock(n, m, R, sign).value
                    scale = 1.0 + abs(closed) + 2.0 * factorial_ratio(n, m)
                    worst = max(worst, abs(closed - quad) / scale)
                    cases += 1
    report("lock-integral", worst <= 1e-9,
           f"worst scaled err={worst:.3e} over {cases} cases")


def test_derivative_family():
    # analytic-derivative quadrature within 1e-8 and central differences
    # (h=1e-5) within 1e-6 of the closed form, 200 random cases,
    # R in [0.1, 50], scaled by 1 + |closed derivative|
    rng = random.Random(20240817)
    worst_quad = worst_fd = 0.0
    for _ in range(200):
        n = int(rng.random() * 21)
        m = int(rng.random() * (2 * n + 1)) - n
        alpha = 0.05 + rng.random() * (math.pi - 0.1)
        R = 0.1 + rng.random() * 49.9
        p = IntegralParams(n, m, alpha, R)
        errs = check_derivative(p, SWEEP_ORACLE_SPEC, h=1e-5)
        scale = 1.0 + abs(closed_form_dI_dR(p))
        worst_quad = max(worst_quad, errs.quad_err / scale)
        worst_fd = max(worst_fd, errs.fd_err / scale)
    report("derivative-family", worst_quad <= 1e-8 and worst_fd <= 1e-6,
           f"worst quad={worst_quad:.3e}, worst fd={worst_fd:.3e}")


def test_recurrence_residuals():
    # closed-form residual <= 1e-10 and quadrature residual <= 1e-7 over
    # 100 random interior cases (1 <= m <= n-1, n <= 20)
    rng = random.Random(1724)
    worst_f = worst_i = 0.0
    for _ in range(100):
        n = 2 + int(rng.random() * 19)
        m = 1 + int(rng.random() * (n - 1))
        alpha = 0.1 + rng.random() * (math.pi - 0.2)
        R = 0.5 + rng.random() * 49.5
        worst_f = max(worst_f, check_recurrence_F(n, m, alpha, R))
        worst_i = max(worst_i,
                      check_recurrence_I(n, m, alpha, R,
                                         SWEEP_ORACLE_SPEC).residual)
    report("recurrence-residuals", worst_f <= 1e-10 and worst_i <= 1e-7,
           f"closed-form worst={worst_f:.3e}, quadrature worst={worst_i:.3e}")


def test_specfun_recurrences():
    # all four families <= 1e-9 over the default deterministic grid, n <= 30
    res = check_specfun_recurrences(30)
    worst = max(res.values())
    report("specfun-recurrences", worst <= 1e-9,
           ", ".join(f"{k}={v:.3e}" for k, v in res.items()))


def test_series_machinery():
    # moment closed form vs quadrature <= 1e-10 (s <= 15, x <= 50),
    # parity-null <= 1e-10, both partial sums within 1e-10 by S = 40
    worst_poisson = worst_null = 0.0
    for s in range(16):
        for x in (0.0, 0.5, 2.0, 7.5, 20.0, 50.0):
            q = integrate_poisson_exp(s, x).value
            worst_poisson = max(worst_poisson,
                                abs(q - poisson_closed_form(s, x)))
            # the odd part of the integrand vanishes by parity
            worst_null = max(worst_null, abs(q.imag))
    worst_series = check_mult_theorem(S=40)
    for R in (0.0, 1.0, 5.0, 10.0):
        target = spherical_bessel_j(0, R)
        for alpha in (0.0, 0.2, 0.5, math.pi / 4):
            worst_series = max(
                worst_series,
                abs(mult_theorem_partial(R, alpha, 40) - target),
                abs(i00_series_partial(R, alpha, 40) - 2.0 * target))
    ok = worst_poisson <= 1e-10 and worst_null <= 1e-10 and worst_series <= 1e-10
    report("series-machinery", ok,
           f"poisson={worst_poisson:.3e}, parity-null={worst_null:.3e}, "
           f"series={worst_series:.3e}")


def test_benchmark_speedup():
    # closed form beats converged quadrature for every (n, R), n <= 20,
    # R <= 50; the table itself is the artifact (printed below)
    rows = bench_rows(n_max=20, R_max=50.0, reps=5)
    print("\nn,R,closed_us,quad_us,speedup,reps,noisy")
    for r in rows:
        print(f"{r['n']},{r['R']},{r['closed_us']:.2f},{r['quad_us']:.2f},"
              f"{r['speedup']:.1f},{r['reps']},{r['noisy']}")
    slowest = min(rows, key=lambda r: r["speedup"])
    report("benchmark-speedup", all(r["speedup"] > 1.0 for r in rows),
           f"min speedup={slowest['speedup']:.2f} at "
           f"(n={slowest['n']}, R={slowest['R']}), {len(rows)} rows")
