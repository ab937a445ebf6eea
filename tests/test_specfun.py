import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sp
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lbk import specfun
from lbk.oracle import _HAS_EXTENDED
from lbk.specfun import (
    assoc_legendre,
    bessel_j,
    factorial_ratio,
    spherical_bessel_j,
    spherical_bessel_j_prime,
    spherical_bessel_ratio,
)
from lbk.verify import _residual

J0_FIRST_ZERO = 2.404825557695773  # mpmath besseljzero(0, 1)

_EXTENDED_ONLY = pytest.mark.skipif(
    not _HAS_EXTENDED, reason="longdouble is plain double on this platform")


def _to_mp(v):
    # Exact: frexp's mantissa times 2^113 is an integer for every binary
    # float format numpy has, so no decimal repr rounds the value.
    mant, e = np.frexp(v)
    return mpmath.ldexp(mpmath.mpf(int(np.ldexp(mant, 113))), int(e) - 113)


def _ratio_mp(n, p, x):
    # j_n(x)/x^p = sqrt(pi/(2x)) J_{n+1/2}(x)/x^p, rounded to a double.
    with mpmath.workdps(40):
        if x == 0.0:
            return 0.0 if n > p else float(1 / mpmath.fac2(2 * n + 1))
        x = mpmath.mpf(float(x))
        return float(mpmath.sqrt(mpmath.pi / (2 * x))
                     * mpmath.besselj(n + 0.5, x) / x ** p)


def _jp_mp(n, x):
    # j_n'(x) = (n j_{n-1} - (n+1) j_{n+1})/(2n+1), j_k from J_{k+1/2}, in
    # 60 digits: the difference cancels where j_n' has a zero.
    if x == 0.0:
        return mpmath.mpf(1) / 3 if n == 1 else mpmath.mpf(0)
    with mpmath.workdps(60):
        x = _to_mp(x)

        def j(k):
            return mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(k + 0.5, x)

        return (n * j(n - 1) - (n + 1) * j(n + 1)) / (2 * n + 1)


@st.composite
def _order_and_points(draw):
    # An order |m| <= 171 and points on both sides of x = 25 and of
    # x = |m|, x = 0 and x < 0 among them.
    m = draw(st.integers(-171, 171))
    a = float(abs(m))
    point = (st.just(0.0) | st.floats(0.0, 5.0) | st.floats(0.0, 1e3)
             | st.floats(23.0, 27.0) | st.floats(max(a - 2.0, 0.0), a + 2.0))
    signed = st.tuples(point, st.booleans()).map(
        lambda t: -t[0] if t[1] else t[0])
    return m, draw(st.lists(signed, min_size=1, max_size=16))


class TestAssocLegendre:
    @pytest.mark.parametrize("n, m, x, want", [
        (0, 0, 0.3, 1.0),
        (1, 1, 0.5, -0.8660254037844386),      # -sqrt(1 - x^2), C-S phase
        (2, 1, 0.5, -1.299038105676658),       # -3x sqrt(1 - x^2)
        (2, -1, 0.5, 0.21650635094610965),     # (1/6) * 1.299038105676658
        (3, 0, -1.0, -1.0),
        (4, 4, 0.0, 105.0),                    # (2m-1)!!
    ])
    def test_goldens(self, n, m, x, want):
        assert assoc_legendre(n, m, x) == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_rodrigues_oracle(self):
        # (-1)^m (1-x^2)^{m/2} / (2^n n!) d^{n+m}/dx^{n+m} (x^2-1)^n
        xs = sympy.Symbol("x")
        for n in range(7):
            for m in range(n + 1):
                expr = sympy.diff((xs**2 - 1) ** n, xs, n + m) \
                    * (-1) ** m * (1 - xs**2) ** sympy.Rational(m, 2) \
                    / (2**n * sympy.factorial(n))
                for x in (-0.9, -0.25, 0.0, 0.37, 0.8):
                    want = float(expr.subs(xs, sympy.Rational(x).limit_denominator(10**6)))
                    got = assoc_legendre(n, m, x)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_against_scipy(self):
        x = np.linspace(-1.0, 1.0, 41)
        for n in range(31):
            for m in range(-n, n + 1):
                got = assoc_legendre(n, m, x)
                ref = sp.lpmv(m, n, x)
                np.testing.assert_allclose(got, ref, rtol=5e-12, atol=5e-12)

    @given(st.integers(0, 30), st.data(),
           st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=150, deadline=None)
    def test_parity_bit_exact(self, n, data, x):
        m = data.draw(st.integers(-n, n))
        left = assoc_legendre(n, m, -x)
        right = assoc_legendre(n, m, x)
        assert left == (right if (n + m) % 2 == 0 else -right)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 13, 21, 34, 55, 89,
                                   120, 144, 169, 170])
    def test_parity_bit_exact_to_degree_cap(self, n):
        # every order of degrees spread up to the cap, on a grid of [0, 1]
        # with both ends; the oracle folds its passes onto u >= 0 by this
        x = np.linspace(0.0, 1.0, 129)
        for m in range(-n, n + 1):
            try:
                right = assoc_legendre(n, m, x)
            except OverflowError:
                with pytest.raises(OverflowError):
                    assoc_legendre(n, m, -x)
                continue
            left = assoc_legendre(n, m, -x)
            np.testing.assert_array_equal(
                left, right if (n + m) % 2 == 0 else -right, err_msg=str(m))

    @given(st.integers(0, 25), st.data(), st.floats(-1.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_negative_order_relation(self, n, data, x):
        m = data.draw(st.integers(1, max(n, 1)))
        if m > n:
            return
        want = (-1.0) ** m / factorial_ratio(n, m) * assoc_legendre(n, m, x)
        assert assoc_legendre(n, -m, x) == pytest.approx(want, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("n, m, x", [
        (2, 3, 0.5), (2, -3, 0.5), (-1, 0, 0.5), (3, 1, 1.5), (3, 1, -1.5),
    ])
    def test_domain_errors(self, n, m, x):
        with pytest.raises(ValueError):
            assoc_legendre(n, m, x)

    @pytest.mark.parametrize("n, m, x", [
        (100, -100, math.cos(1.0)), (120, -100, math.cos(0.7)),
        (170, -100, math.cos(1.3)), (90, -60, math.cos(2.0)),
        (170, -140, 0.0), (150, -150, 0.0),
    ])
    def test_negative_order_past_factorial_range(self, n, m, x):
        # (n+|m|)!/(n-|m|)! overflows a double in all but (90, -60); mpmath's
        # legenp (type 2) carries the same Condon-Shortley phase.
        with mpmath.workdps(40):
            want = float(mpmath.legenp(n, m, mpmath.mpf(x), type=2))
        assert assoc_legendre(n, m, x) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_negative_order_bit_exact_in_double_range(self):
        # Inside the range of factorial_ratio the power-of-two scaling is
        # the plain formula, rounding for rounding; the ratio passes 1e300
        # (and is rescaled) in all but (170, 40).
        x = np.linspace(-1.0, 1.0, 41)
        for n, m in ((85, 85), (120, 74), (170, 68), (170, 40)):
            want = (-1.0) ** m / factorial_ratio(n, m) * assoc_legendre(n, m, x)
            assert np.array_equal(assoc_legendre(n, -m, x), want)

    @pytest.mark.parametrize("n, m, x", [
        (170, 170, 0.3), (170, 170, math.cos(1.0)), (160, 150, 0.0),
        (170, 160, np.array([0.999, 0.3])),
    ])
    def test_overflow_raises_without_warning(self, n, m, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                assoc_legendre(n, m, x)

    def test_largest_orders_stay_finite(self):
        # Near u = +-1 the sine factor keeps P_170^170 in range; negative
        # orders never leave it (|P_n^{-m}| <= 1).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(assoc_legendre(170, 170, 0.999))
            x = np.linspace(-1.0, 1.0, 21)
            for m in (-170, -151, -100):
                assert np.all(np.abs(assoc_legendre(170, m, x)) <= 1.0)

    @pytest.mark.parametrize("n, m, alpha", [
        (170, 90, 4e-6), (170, 100, 1e-5), (160, 135, 3e-5),
        (141, 139, 4.8065705968281075e-05)])
    def test_tiny_sine_keeps_precision(self, n, m, alpha):
        # Near x = +-1 at large |m|, P_m^m = (2m-1)!! (1-x^2)^(m/2) falls
        # below the normal range although P_n^m need not: seeded subnormal,
        # P_170^90(cos 4e-6) came out 3e-3 off.  Against the same
        # recurrence in mpmath at 80 digits; P_141^139 here is subnormal.
        x = math.cos(alpha)
        with mpmath.workdps(80):
            mx = mpmath.mpf(x)
            s = mpmath.sqrt((1 - mx) * (1 + mx))
            prev = mpmath.fprod(-(2 * i + 1) * s for i in range(m))
            want = (2 * m + 1) * mx * prev
            for k in range(m + 2, n + 1):
                prev, want = want, ((2 * k - 1) * mx * want
                                    - (k + m - 1) * prev) / (k - m)
            err = abs(mpmath.mpf(assoc_legendre(n, m, x)) - want)
            half_step = _to_mp(np.finfo(float).smallest_subnormal) / 2
            assert err <= 1e-13 * abs(want) + half_step, (n, m, alpha)

    def test_array_matches_scalars(self):
        x = np.array([-0.7, 0.0, 0.3, 1.0])
        got = assoc_legendre(7, 4, x)
        assert got.shape == x.shape
        for xi, gi in zip(x, got):
            assert gi == assoc_legendre(7, 4, float(xi))

    def test_preserves_longdouble(self):
        x = np.linspace(-1, 1, 5).astype(np.longdouble)
        assert assoc_legendre(6, 2, x).dtype == np.longdouble

    @pytest.mark.parametrize("degrees", [range(0, 21), (57, 101),
                                         (150, 169), (170,)])
    def test_array_matches_scalars_every_order(self, degrees):
        # The degree recurrence stepped on an array and on each of its points
        # alone, as numpy scalars, gives the same bits at every order of each
        # degree, up to the cap; where the array raises OverflowError, so
        # does the scalar call at some point.
        # (Every degree <= 170 takes ~13 s; these span the range.)
        x = np.array([-1.0, -0.93, -0.2, 0.0, 0.31, 0.55, 0.999])
        for n in degrees:
            for m in range(-n, n + 1):
                scalars = []
                for v in x:
                    try:
                        scalars.append(assoc_legendre(n, m, float(v)))
                    except OverflowError:
                        scalars.append(None)
                try:
                    got = assoc_legendre(n, m, x)
                except OverflowError:
                    assert None in scalars, (n, m)
                    continue
                assert list(got) == scalars, (n, m)


class TestBesselJ:
    def test_goldens(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(3, 0.0) == 0.0
        assert abs(bessel_j(0, J0_FIRST_ZERO)) < 1e-10

    def test_negative_order_symmetry(self):
        for m in range(1, 8):
            for x in (0.3, 2.0, 17.5, 60.0):
                assert bessel_j(-m, x) == (-1.0) ** m * bessel_j(m, x)

    def test_against_scipy(self):
        x = np.concatenate([np.linspace(0.0, 1.0, 11),
                            np.geomspace(1e-3, 100.0, 90),
                            [11.9, 12.0, 12.1],
                            # reaches the Miller rescale branch
                            np.geomspace(12.0, 2000.0, 400)])
        for m in range(0, 41):
            np.testing.assert_allclose(bessel_j(m, x), sp.jv(m, x),
                                       rtol=1e-9, atol=1e-12)

    def test_three_term_recurrence(self):
        # J_m = (x/2m)(J_{m-1} + J_{m+1}), residual vs largest term
        x = np.array([0.5, 1.0, 2.0, 5.0, 12.0, 25.0, 50.0, 100.0])
        for m in range(1, 31):
            lhs = bessel_j(m, x)
            a = x / (2.0 * m) * bessel_j(m - 1, x)
            b = x / (2.0 * m) * bessel_j(m + 1, x)
            scale = 1.0 + np.maximum.reduce([abs(lhs), abs(a), abs(b)])
            assert np.max(np.abs(lhs - (a + b)) / scale) < 1e-10

    @pytest.mark.parametrize("dtype, bound", [
        (np.float64, 5e-14),
        pytest.param(np.longdouble, 1e-17, marks=_EXTENDED_ONLY),
    ])
    def test_large_argument_against_mpmath(self, dtype, bound):
        # |error| <= bound * min(1, sqrt(2/(pi x))), the envelope of J_m,
        # from x = 1e-3 to 1e4, with both sides of x = 25 and of x = |m|,
        # the old series threshold [11.9, 12.1] and its weakest point,
        # J_3(11.99).
        grid = np.concatenate([np.geomspace(1e-3, 25.0, 50),
                               np.linspace(11.9, 12.1, 9), [11.99],
                               np.geomspace(25.0, 1e4, 40)])
        for m in (0, 1, 2, 3, 5, 40, 100, 170):
            x = np.concatenate([grid, [24.999999, 25.0, max(m, 1),
                                       np.nextafter(max(m, 1), np.inf)]])
            x = x.astype(dtype)
            got = bessel_j(m, x)
            assert got.dtype == x.dtype
            with mpmath.workdps(40):
                for g, v in zip(got, x):
                    v = _to_mp(v)
                    err = abs(_to_mp(g) - mpmath.besselj(m, v))
                    envelope = min(1, mpmath.sqrt(2 / (mpmath.pi * v)))
                    assert err <= bound * envelope, (m, v)

    @pytest.mark.parametrize("dtype, steps", [
        (np.float64, 60),
        pytest.param(np.longdouble, 65, marks=_EXTENDED_ONLY),
    ])
    def test_miller_start_follows_dtype(self, dtype, steps, loop_calls):
        # At the regime's edge big = max(25, hi) = 25 the loop starts where
        # the bound on J_N(25) falls below the dtype's eps: 60 steps in
        # double and 65 in extended precision, against 80 for both when
        # every dtype took the extended-precision margin 14 big^(1/3) + 14.
        bessel_j(25, np.array([3.0, 24.5], dtype=dtype))
        assert loop_calls == {"_backward": 1, "_upward": 0}
        assert loop_calls.miller_steps == [steps]

    @pytest.mark.parametrize("dtype", [
        np.float64, pytest.param(np.longdouble, marks=_EXTENDED_ONLY)])
    def test_miller_start_puts_truncation_below_eps(self, dtype):
        # The truncation error of the Miller loop started at N is about
        # |J_(N+1)(x)| <= |J_N(big)| for x <= big; mpmath puts it below eps.
        eps = float(np.finfo(dtype).eps)
        with mpmath.workdps(30):
            for big in (1, 2, 5, 25, 60, 100, 170, 1000):
                start = specfun._miller_start(big, np.dtype(dtype))
                assert big < start
                assert abs(mpmath.besselj(start, big)) <= eps, big

    @pytest.mark.parametrize("dtype, bound", [
        (np.float64, 1.5e-15),
        pytest.param(np.longdouble, 1e-18, marks=_EXTENDED_ONLY),
    ])
    def test_miller_regime_against_mpmath(self, dtype, bound):
        # |error| <= bound * min(1, sqrt(2/(pi x))) on (0, 25), README's
        # bound for the Miller regime, on a log grid below 1 and a grid of
        # step 1/8 above.  The loop runs on fl(x^2); without its one Taylor
        # step back to x^2 the double maximum here is 1.9e-15, near x = 24.
        x = np.concatenate([np.geomspace(1e-3, 1.0, 25),
                            np.linspace(0.0, 25.0, 201)[1:-1]]).astype(dtype)
        for m in (0, 1, 2, 3, 5, 40, 100, 170, 171):
            got = bessel_j(m, x)
            with mpmath.workdps(40):
                for g, v in zip(got, x):
                    v = _to_mp(v)
                    err = abs(_to_mp(g) - mpmath.besselj(m, v))
                    envelope = min(1, mpmath.sqrt(2 / (mpmath.pi * v)))
                    assert err <= bound * envelope, (m, v)

    @pytest.mark.parametrize("m", [10, 40, 100, 170])
    def test_miller_small_argument_against_mpmath(self, m):
        # x in (0, m/4], where J_m is far below 1 and the Miller loop runs
        # about m steps above it.  The loop divides by nothing, so the
        # relative error is a random walk of the steps' roundings, not a
        # drift of m eps: maximum 2.6e-15 at m = 170 here.
        x = np.linspace(0.0, m / 4.0, 201)[1:]
        errs = []
        with mpmath.workdps(40):
            for g, v in zip(bessel_j(m, x), x):
                want = mpmath.besselj(m, _to_mp(v))
                if abs(want) >= np.finfo(float).tiny:
                    errs.append(float(abs(_to_mp(g) - want) / abs(want)))
        assert len(errs) > 150
        assert np.median(errs) <= 1e-15
        assert max(errs) <= 3e-15

    @pytest.mark.parametrize("dtype", [
        np.float64, pytest.param(np.longdouble, marks=_EXTENDED_ONLY)])
    def test_tiny_and_zero_arguments(self, dtype):
        # The Miller loop runs on J_k/x^k, whose recurrence divides by
        # nothing, so it holds down to x = 0; 1/(2^171 171!) is past the
        # double range, so x^|m| enters as a mantissa and an exponent.
        # Values below the dtype's normal range come out 0 or subnormal,
        # within one subnormal step.
        x = np.array([0.0, 5e-324, 1e-300, 1e-60, 1e-12, 1e-8])
        x = np.concatenate([x, -x]).astype(dtype)
        info = np.finfo(dtype)
        tiny, step = _to_mp(info.tiny), _to_mp(info.smallest_subnormal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_j(0, dtype(0.0)) == 1.0
            for m in (0, 1, -3, 40, 170, 171):
                got = bessel_j(m, x)
                assert got.dtype == x.dtype
                assert np.all(np.isfinite(got))
                with mpmath.workdps(40):
                    for g, v in zip(got, x):
                        want = mpmath.besselj(m, _to_mp(v))
                        err = abs(_to_mp(g) - want)
                        if abs(want) < tiny:
                            assert err <= step, (m, v)
                        else:
                            assert err <= 1e-15 * abs(want), (m, v)

    @given(st.integers(-171, 171),
           st.floats(-1e4, 1e4) | st.floats(-30.0, 30.0)
           | st.floats(-1e-6, 1e-6))
    @settings(max_examples=300, deadline=None)
    def test_three_term_property(self, m, x):
        # Over the documented domain, across the Miller and Hankel
        # boundary and down to x = 0: finite, |J_m| <= 1, and
        # 2m J_m = x (J_{m-1} + J_{m+1}) to 1e-12 of the largest term.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            below, j, above = (bessel_j(k, x) for k in (m - 1, m, m + 1))
        assert math.isfinite(j) and abs(j) <= 1.0
        assert _residual(2.0 * m * j, (x * below, x * above)) <= 1e-12

    def test_large_arguments_skip_miller(self, monkeypatch):
        # Every point with |x| >= max(25, |m|) takes the Hankel regime; the
        # Miller loop sees only the points below it.
        calls = []

        def guarded(lo, hi, x, shift, edge):
            assert float(np.max(x)) < max(25.0, hi), (hi, np.max(x))
            calls.append(hi)
            return miller(lo, hi, x, shift, edge)

        miller = specfun._backward
        monkeypatch.setattr(specfun, "_backward", guarded)
        x = np.concatenate([np.linspace(-30.0, 30.0, 601),
                            np.geomspace(25.0, 1e4, 50)])
        for m in (0, 1, -3, 5, 24, 25, 40, 170):
            bessel_j(m, x)
            bessel_j(m, float(max(25, abs(m))))
        assert calls

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @given(case=_order_and_points())
    @example(case=(3, [2.0, 24.9]))
    @example(case=(-40, [30.0, 40.0, -39.5, 41.0, 0.0, 26.0, 3.0]))
    @settings(max_examples=150, deadline=None)
    def test_each_point_keeps_its_own_bits(self, dtype, case):
        # J_m at a point depends on m, the point and its dtype alone: every
        # point of an array, mixing both regimes, x = 0 and x < 0, equals
        # its own call (a one-element array in extended precision).  80-bit
        # values are compared by value and sign bit, as their padding bytes
        # are undefined.
        m, points = case
        x = np.array(points, dtype=dtype)
        got = bessel_j(m, x)
        for i, v in enumerate(x):
            if dtype is np.float64:
                assert got[i].tobytes() == np.float64(
                    bessel_j(m, float(v))).tobytes(), (m, v)
            else:
                lone = bessel_j(m, x[i:i + 1])[0]
                assert got[i] == lone and (
                    np.signbit(got[i]) == np.signbit(lone)), (m, v)

    def test_single_precision_input_runs_in_double(self):
        # The Miller loop's rescale limit (1e250) is past the float32 range,
        # so narrower floats are evaluated as float64, like integers.
        x = np.array([0, 1e-3, 0.5, 3.0, 11.0, 30.0], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (0, 5, 40):
                got = bessel_j(m, x)
                assert got.dtype == np.float64
                assert np.array_equal(got, bessel_j(m, x.astype(float)))

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            bessel_j(0, math.nan)
        with pytest.raises(ValueError):
            bessel_j(2, math.inf)

    @pytest.mark.parametrize("m", [2.5, -0.5, 1e-9, math.nan, math.inf])
    def test_non_integral_order_raises(self, m):
        # int(m) would silently give J_2(1) = 0.1149 for J_2.5(1) = 0.0495
        with pytest.raises(ValueError):
            bessel_j(m, 1.0)

    def test_integer_types_accepted(self):
        for m in (np.int64(3), np.int32(-3), 3.0, np.float64(-3.0)):
            assert bessel_j(m, 1.7) == bessel_j(int(m), 1.7)


class TestSphericalBessel:
    def test_goldens(self):
        assert abs(spherical_bessel_j(0, math.pi)) < 1e-15
        assert spherical_bessel_j(0, 0.0) == 1.0
        assert spherical_bessel_j(4, 0.0) == 0.0
        # elementary (3/z^2 - 1) sin z / z - 3 cos z / z^2 at z = 2
        assert spherical_bessel_j(2, 2.0) == pytest.approx(
            0.19844794905714658, rel=1e-13)

    def test_against_scipy(self):
        x = np.concatenate([np.linspace(0.0, 1.0, 11),
                            np.geomspace(1e-3, 100.0, 90)])
        for n in range(0, 41):
            np.testing.assert_allclose(spherical_bessel_j(n, x),
                                       sp.spherical_jn(n, x),
                                       rtol=1e-10, atol=0)
        # downward recurrence at large arguments; the rescale branch fires
        # here too (n >= 55), not only below x = 1
        x = np.geomspace(0.5, 150.0, 300)
        for n in range(0, 61):
            np.testing.assert_allclose(spherical_bessel_j(n, x),
                                       sp.spherical_jn(n, x),
                                       rtol=1e-10, atol=0)

    def test_half_integer_bridge(self):
        # j_n(x) = sqrt(pi/2x) J_{n+1/2}(x)
        x = np.geomspace(0.05, 100.0, 40)
        for n in range(0, 31):
            ref = np.sqrt(np.pi / (2.0 * x)) * sp.jv(n + 0.5, x)
            np.testing.assert_allclose(spherical_bessel_j(n, x), ref,
                                       rtol=1e-10, atol=0)

    def test_three_term_recurrence(self):
        x = np.array([0.5, 1.0, 2.0, 5.0, 12.0, 25.0, 50.0, 100.0])
        for n in range(1, 31):
            lhs = spherical_bessel_j(n, x)
            a = x / (2.0 * n + 1.0) * spherical_bessel_j(n - 1, x)
            b = x / (2.0 * n + 1.0) * spherical_bessel_j(n + 1, x)
            scale = 1.0 + np.maximum.reduce([abs(lhs), abs(a), abs(b)])
            assert np.max(np.abs(lhs - (a + b)) / scale) < 1e-10

    def test_branches_agree_with_scipy_at_threshold(self):
        # just below and above 1e-2, both in the Miller regime (x < max(n, 1))
        for n in range(0, 12):
            for x in (0.00999999, 0.01000001):
                got = spherical_bessel_j(n, x)
                assert got == pytest.approx(sp.spherical_jn(n, x),
                                            rel=1e-10, abs=1e-280)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            spherical_bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            spherical_bessel_j(2, -0.5)

    @pytest.mark.parametrize("N", [40, 80, 170])
    def test_band_matches_each_lone_order(self, N):
        # One band of orders 0..N per radius keeps each order on its own
        # exponent, so it stays finite where x^k or j_k alone would leave
        # the double range, and every order is the lone j_k to within
        # 1e-13 of the envelope min(1, 1/R), or 1e-13 relative where j_k
        # lies below 1e-20 of it.
        for R in np.linspace(0.0, 2.0 * N, 40):
            x = np.array([R])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                mant, e, up = specfun._sph_band(tuple(range(N + 1)), x)
                band = [np.ldexp(*specfun._times_power(
                    mant[k], e[k], x, np.where(up, 0, k)))[0]
                    for k in range(N + 1)]
            scale = min(1.0, 1.0 / R) if R > 0.0 else 1.0
            for k, got in enumerate(band):
                lone = spherical_bessel_j(k, R)
                assert np.isfinite(got)
                assert abs(got - lone) <= 1e-13 * scale, (k, R)
                if abs(lone) < 1e-20 * scale:
                    assert abs(got - lone) <= 1e-13 * abs(lone), (k, R)


class TestSphericalBesselPrime:
    def test_goldens(self):
        assert spherical_bessel_j_prime(0, math.pi) == pytest.approx(
            -1.0 / math.pi, rel=1e-14)
        assert spherical_bessel_j_prime(1, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert spherical_bessel_j_prime(0, 0.0) == 0.0
        assert spherical_bessel_j_prime(5, 0.0) == 0.0

    def test_against_finite_differences(self):
        # central difference with step 1e-6, <= 1e-7 relative on [0.1, 50]
        h = 1e-6
        x = np.concatenate([np.linspace(0.1, 1.0, 7), np.geomspace(1.0, 50.0, 15)])
        for n in range(0, 21):
            fd = (spherical_bessel_j(n, x + h) - spherical_bessel_j(n, x - h)) / (2 * h)
            got = spherical_bessel_j_prime(n, x)
            np.testing.assert_allclose(got, fd, rtol=1e-7, atol=1e-9)

    def test_against_scipy(self):
        x = np.geomspace(0.02, 100.0, 50)
        for n in range(0, 21):
            np.testing.assert_allclose(spherical_bessel_j_prime(n, x),
                                       sp.spherical_jn(n, x, derivative=True),
                                       rtol=1e-10, atol=0)

    def test_negative_order_raises(self):
        with pytest.raises(ValueError):
            spherical_bessel_j_prime(-2, 1.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 10, 20, 40, 80, 120, 169, 170])
    def test_against_mpmath(self, n):
        # x = 0, both sides of the regime edge x = n + 1 (and of the
        # spherical Bessel edge x = n), and a grid up to 1e4: relative
        # error <= 1e-13 wherever j_n' is in the normal range; below it, 0
        # or subnormal within one subnormal step, never nan.
        x = np.concatenate([[0.0, 1e-300, 1e-8, 0.3],
                            [max(n - 0.5, 0.0), n, n + 0.5, n + 1.0,
                             np.nextafter(n + 1.0, 0.0)],
                            np.geomspace(1e-3, 1e4, 25)])
        got = spherical_bessel_j_prime(n, x)
        tiny = np.finfo(float).tiny
        step = _to_mp(np.finfo(float).smallest_subnormal)
        for g, v in zip(got, x):
            want = _jp_mp(n, v)
            assert math.isfinite(g), (n, v)
            if abs(want) >= tiny:
                assert abs(_to_mp(g) - want) <= 1e-13 * abs(want), (n, v)
            else:
                assert abs(_to_mp(g) - want) <= step, (n, v)

    def test_regime_edges_against_mpmath(self):
        # every order at x = n - 1/2, n and n + 1/2, around the switch
        # between the Miller loop and the upward recurrence
        for n in range(0, 171):
            for v in (n - 0.5, n, n + 0.5):
                if v < 0.0:
                    continue
                want = _jp_mp(n, v)
                got = spherical_bessel_j_prime(n, v)
                assert abs(_to_mp(got) - want) <= 1e-13 * abs(want), (n, v)

    @pytest.mark.parametrize("x, loops", [
        (5.0, {"_backward": 1, "_upward": 0}),
        (50.0, {"_backward": 0, "_upward": 1}),
        (np.array([0.0, 5.0, 50.0]), {"_backward": 1, "_upward": 1}),
    ])
    def test_one_loop_per_regime(self, x, loops, loop_calls):
        # j_{n-1} and j_{n+1} come from one pass of each regime's loop
        spherical_bessel_j_prime(10, x)
        assert loop_calls == loops


class TestSphericalBesselRatio:
    def test_goldens(self):
        assert spherical_bessel_ratio(1, 1, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert spherical_bessel_ratio(2, 0, 2.0) == spherical_bessel_j(2, 2.0)
        assert spherical_bessel_ratio(3, 2, 0.0) == 0.0
        # limit 1/(2n+1)!!
        assert spherical_bessel_ratio(5, 5, 0.0) == pytest.approx(
            1.0 / 10395.0, rel=1e-14, abs=0.0)

    def test_matches_direct_division(self):
        x = np.geomspace(0.02, 50.0, 30)
        for n in range(0, 12):
            for p in range(0, n + 1):
                got = spherical_bessel_ratio(n, p, x)
                ref = sp.spherical_jn(n, x) / x ** p
                np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-300)

    def test_branches_agree_with_scipy_at_threshold(self):
        for n, p in ((1, 1), (3, 2), (6, 6)):
            for x in (0.00999999, 0.01000001):
                got = spherical_bessel_ratio(n, p, x)
                want = sp.spherical_jn(n, x) / x ** p
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_is_one_dispatch_with_j(self):
        # j_n is the p = 0 case; p > 0 agrees with mpmath in both regimes,
        # with values below the double range (n = 170) rounding to 0.
        x = np.concatenate([[0.0, 1e-5, 0.00999], np.geomspace(0.01, 2000.0, 200)])
        for n in (0, 1, 7, 40, 170):
            j = spherical_bessel_j(n, x)
            assert np.array_equal(spherical_bessel_ratio(n, 0, x), j)
            for p in {min(1, n), n // 2, n} - {0}:
                got = spherical_bessel_ratio(n, p, x)
                for g, v in zip(got, x):
                    want = _ratio_mp(n, p, v)
                    assert g == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_limits_at_zero_and_below_double_range(self):
        # 1/(2n+1)!! at x = 0.  For 162 <= n <= 170 on [0.01, 0.0125] both
        # j_n(x) and x^n underflow, so dividing them gives 0/0; the true
        # value (< 1e-330) rounds to 0, as mpmath's does.
        x = np.concatenate([[0.011], np.linspace(0.01, 0.0125, 51)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spherical_bessel_j(0, 0.0) == 1.0
            for n in range(0, 171):
                assert spherical_bessel_ratio(n, n, 0.0) == pytest.approx(
                    _ratio_mp(n, n, 0.0), rel=1e-13, abs=0.0)
            for n in range(162, 171):
                got = spherical_bessel_ratio(n, n, x)
                assert np.all(np.isfinite(got))
                assert list(got) == [_ratio_mp(n, n, v) for v in x]
                assert spherical_bessel_ratio(n, n, 0.011) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            spherical_bessel_ratio(2, 3, 1.0)
        with pytest.raises(ValueError):
            spherical_bessel_ratio(-1, 0, 1.0)
        with pytest.raises(ValueError):
            spherical_bessel_ratio(3, -1, 1.0)


class TestFactorialRatio:
    def test_goldens(self):
        assert factorial_ratio(5, 0) == 1.0
        assert factorial_ratio(2, 2) == 24.0
        assert factorial_ratio(2, -2) == 24.0

    @pytest.mark.parametrize("n, m", [(20, 10), (30, 1), (15, 15), (100, 3)])
    def test_exact_integer_oracle(self, n, m):
        want = math.factorial(n + m) // math.factorial(n - m)
        assert factorial_ratio(n, m) == pytest.approx(float(want), rel=1e-13)

    def test_errors(self):
        with pytest.raises(ValueError):
            factorial_ratio(3, 4)
        with pytest.raises(ValueError):
            factorial_ratio(-1, 0)
        with pytest.raises(OverflowError):
            factorial_ratio(171, 0)
        with pytest.raises(OverflowError):
            factorial_ratio(170, 170)


@pytest.mark.parametrize("dtype", [
    np.float64, pytest.param(np.longdouble, marks=_EXTENDED_ONLY)])
def test_array_arguments_left_unmodified(dtype):
    # The loops that update values in place (the cylindrical Miller loop,
    # the Hankel set-up, the Legendre recurrence) do so on their own arrays,
    # never on the caller's: every regime and the negative orders.
    x = np.concatenate([[0.0, 1e-9], np.linspace(0.5, 60.0, 40)]).astype(dtype)
    u = np.linspace(-1.0, 1.0, 41).astype(dtype)
    calls = [(bessel_j, (0,), x), (bessel_j, (-7,), x), (bessel_j, (40,), x),
             (spherical_bessel_j, (0,), x), (spherical_bessel_j, (9,), x),
             (spherical_bessel_j_prime, (9,), x),
             (spherical_bessel_ratio, (9, 4), x),
             (assoc_legendre, (0, 0), u), (assoc_legendre, (9, 4), u),
             (assoc_legendre, (9, -4), u), (assoc_legendre, (170, 30), u)]
    for fn, args, arr in calls:
        before = arr.copy()
        fn(*args, arr)
        assert np.array_equal(arr, before), (fn.__name__, args)


# The five evaluators of a real argument, each with integer arguments that
# take it through its main loop.
_EVALUATORS = [
    pytest.param(assoc_legendre, (9, 4), id="assoc_legendre"),
    pytest.param(bessel_j, (2,), id="bessel_j"),
    pytest.param(spherical_bessel_j, (2,), id="spherical_bessel_j"),
    pytest.param(spherical_bessel_j_prime, (2,), id="spherical_bessel_j_prime"),
    pytest.param(spherical_bessel_ratio, (2, 1), id="spherical_bessel_ratio"),
]


@pytest.mark.parametrize("fn, args", _EVALUATORS)
@pytest.mark.parametrize("x", [0.5 + 1j, 0.5 + 0j, np.array([0.25, 0.5 + 1j])],
                         ids=["scalar", "zero_imaginary", "array"])
def test_complex_argument_raises(fn, args, x):
    # Cast to float, 0.5+1j gave j_2(0.5) with only a ComplexWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=f"^{fn.__name__} requires real arguments$"):
            fn(*args, x)


@pytest.mark.parametrize("fn, args", _EVALUATORS)
@pytest.mark.parametrize("x", [math.nan, math.inf, np.array([0.25, math.nan])],
                         ids=["nan", "inf", "array"])
def test_non_finite_argument_raises(fn, args, x):
    # The error names the function called, not the one that evaluates it.
    with pytest.raises(ValueError,
                       match=f"^{fn.__name__} requires finite arguments$"):
        fn(*args, x)


@pytest.mark.parametrize("fn, args, name", [
    (assoc_legendre, (2.5, 1, 0.3), "n"),
    (assoc_legendre, (2, 1.5, 0.3), "m"),
    (bessel_j, (2.5, 1.0), "m"),
    (spherical_bessel_j, (2.5, 1.0), "n"),
    (spherical_bessel_j_prime, (2.5, 1.0), "n"),
    (spherical_bessel_ratio, (3.5, 1, 1.0), "n"),
    (spherical_bessel_ratio, (3, 1.5, 1.0), "p"),
    (spherical_bessel_ratio, (3, math.nan, 1.0), "p"),
    (factorial_ratio, (5.5, 2), "n"),
    (factorial_ratio, (5, 2.5), "m"),
    (factorial_ratio, (5, math.inf), "m"),
    (factorial_ratio, ("5", 2), "n"),
])
def test_non_integral_degree_order_or_power_raises(fn, args, name):
    with pytest.raises(ValueError, match=rf"must be an integer \(got {name}="):
        fn(*args)


@pytest.mark.parametrize("fn, ints, x", [
    (assoc_legendre, (9, -4), 0.3),
    (assoc_legendre, (170, 150), 0.9),
    (bessel_j, (-7,), 3.0),
    (spherical_bessel_j, (9,), 3.0),
    (spherical_bessel_j_prime, (9,), 12.0),
    (spherical_bessel_ratio, (9, 4), 3.0),
    (factorial_ratio, (20, 7), None),
])
@pytest.mark.parametrize("kind", [float, np.float64, np.longdouble, np.int64,
                                  np.int32])
def test_integral_values_give_the_int_calls_bits(fn, ints, x, kind):
    tail = () if x is None else (x,)
    want = fn(*ints, *tail)
    got = fn(*(kind(v) for v in ints), *tail)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


_SPHERICAL = [(spherical_bessel_j, (9,)), (spherical_bessel_j_prime, (9,)),
              (spherical_bessel_ratio, (9, 4))]


@pytest.mark.parametrize("fn, args, x", [
    (bessel_j, (3,), 1e-12),    # Miller, x^2 below eps
    (bessel_j, (3,), 3.0),      # Miller
    (bessel_j, (3,), 40.0),     # Hankel
    (bessel_j, (-5,), 3.0),
    (bessel_j, (5,), -3.0),
    (bessel_j, (-4,), -40.0),
    *[(fn, args, x) for fn, args in _SPHERICAL
      for x in (0.0, 3.0, 12.0)],  # x = 0, Miller (x < n), upward (x >= n)
    (assoc_legendre, (9, 4), 0.3),
    (assoc_legendre, (9, -4), -0.3),
    (assoc_legendre, (170, 150), 0.9),  # seeded: its bound 1073 > 1010
], ids=lambda v: getattr(v, "__name__", None))
@pytest.mark.parametrize("dtype", [
    np.float64, pytest.param(np.longdouble, marks=_EXTENDED_ONLY)])
def test_lone_point_matches_one_element_array(fn, args, x, dtype,
                                              monkeypatch):
    # The regime masks hand the loops one-element arrays; a lone point must
    # give the bits that point gives inside an array of one.
    array = fn(*args, np.array([x], dtype=dtype))
    assert array.shape == (1,) and array.dtype == dtype
    lone = fn(*args, dtype(x))
    assert type(lone) is (float if dtype is np.float64 else dtype)
    assert np.float64(lone).tobytes() == np.float64(array[0]).tobytes()
    # In x's dtype, before _maybe_scalar takes the lone value out.
    monkeypatch.setattr(specfun, "_maybe_scalar", lambda values, _: values)
    unrounded = fn(*args, dtype(x))
    assert unrounded.dtype == dtype
    assert unrounded == array[0]
    assert np.signbit(unrounded) == np.signbit(array[0])
