import math
import sys
import warnings
from dataclasses import astuple

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbk.kernel import (
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
from lbk.specfun import assoc_legendre, factorial_ratio, spherical_bessel_j

FOUR_OVER_PI = 1.2732395447351628


def _ratio_mp(n, p, x):
    # j_n(x)/x^p = sqrt(pi/(2x)) J_{n+1/2}(x)/x^p as an mpf (40 digits).
    if x == 0.0:
        return mpmath.mpf(0 if n > p else 1) / mpmath.fac2(2 * n + 1)
    x = mpmath.mpf(x)
    return (mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(n + 0.5, x)
            / x ** p)


def _lock_mp(n, m, R):
    with mpmath.workdps(40):
        return float(2 * mpmath.factorial(n + m) / mpmath.factorial(n - m)
                     * _ratio_mp(n, m, R))


def _legendre_mp(n, m, x):
    # P_n^m(x) as an mpf, from the terminating 2F1(a-n, a+n+1; a+1;
    # (1-x)/2), a = |m|, with the Condon-Shortley phase (DLMF 14.3.1);
    # legenp's general series stalls near x = 1 at high orders.
    a = abs(m)
    x = mpmath.mpf(x)
    fac = mpmath.factorial
    leg = ((-1) ** a * fac(n + a) / (2 ** a * fac(a) * fac(n - a))
           * (1 - x * x) ** (mpmath.mpf(a) / 2)
           * mpmath.hyp2f1(a - n, a + n + 1, a + 1, (1 - x) / 2))
    if m < 0:
        leg *= (-1) ** a * fac(n - a) / fac(n + a)
    return leg


def _closed_mp(n, m, alpha, R, prime=False):
    # 2 i^(n-m) P_n^m(x) j_n(R), or j_n'(R), as an mpc (40 digits), at the
    # double x = cos(alpha) that the closed form evaluates P_n^m at.
    with mpmath.workdps(40):
        if not prime:
            radial = _ratio_mp(n, 0, R)
        elif R == 0.0:
            radial = mpmath.mpf(1) / 3 if n == 1 else mpmath.mpf(0)
        else:
            radial = mpmath.diff(lambda r: _ratio_mp(n, 0, r), mpmath.mpf(R))
        leg = _legendre_mp(n, m, math.cos(alpha))
        return 2 * mpmath.mpc(0, 1) ** ((n - m) % 4) * leg * radial


def _condition(n, m, alpha, R):
    # |x P'/P| of P_n^m at x = cos(alpha) plus |R j_n'/j_n| at R: near a
    # zero of a factor its recurrence loses about eps times that, relative.
    x = math.cos(alpha)
    with mpmath.workdps(40):
        cond = mpmath.mpf(0)
        leg = _legendre_mp(n, m, x)
        if leg and abs(x) < 1.0:
            slope = mpmath.diff(lambda t: _legendre_mp(n, m, t), x)
            cond += abs(x * slope / leg)
        radial = _ratio_mp(n, 0, R)
        if radial and R:
            slope = mpmath.diff(lambda r: _ratio_mp(n, 0, r), R)
            cond += abs(R * slope / radial)
        return cond


def _assert_matches_mp(got, want, rel=1e-13):
    # Within rel of |want|, or within the subnormal spacing below the
    # normal range, where rounding once leaves an absolute error.
    err = abs(mpmath.mpc(got) - want)
    assert err <= rel * abs(want) + 5e-324, (got, complex(want))


def _bits(z):
    return z.real.hex(), z.imag.hex()


def _normal(v):
    return sys.float_info.min <= abs(v) < math.inf


def _poisson_mp(s, x):
    with mpmath.workdps(40):
        return 2 ** (s + 1) * mpmath.factorial(s) * _ratio_mp(s, s, x)


class TestIPhase:
    @pytest.mark.parametrize("k, want", [
        (0, 1 + 0j), (1, 1j), (2, -1 + 0j), (3, -1j),
        (4, 1 + 0j), (-1, -1j), (-2, -1 + 0j), (-7, 1j),
    ])
    def test_table(self, k, want):
        assert i_phase(k) == want

    @given(st.integers(-1000, 1000))
    def test_period_four(self, k):
        assert i_phase(k + 4) == i_phase(k)
        assert abs(i_phase(k)) == 1.0


class TestIntegralParams:
    @pytest.mark.parametrize("n, m, alpha, R", [
        (-1, 0, 1.0, 1.0), (2, 3, 1.0, 1.0), (2, -3, 1.0, 1.0),
        (2, 1, -0.1, 1.0), (2, 1, 3.2, 1.0), (2, 1, 1.0, -1.0),
        (2, 1, math.nan, 1.0), (2, 1, 1.0, math.nan),
    ])
    def test_invalid(self, n, m, alpha, R):
        with pytest.raises(ValueError):
            IntegralParams(n, m, alpha, R)

    def test_valid_boundaries(self):
        IntegralParams(0, 0, 0.0, 0.0)
        IntegralParams(3, -3, math.pi, 100.0)


class TestClosedFormI:
    def test_base_case_value(self):
        # n = m = 0: 2 j_0(pi/2) = 4/pi for any alpha
        for alpha in (0.0, 1.0, 2.5, math.pi):
            got = closed_form_I(IntegralParams(0, 0, alpha, math.pi / 2))
            assert got.imag == 0.0
            assert got.real == pytest.approx(FOUR_OVER_PI, rel=1e-15)

    def test_vanishes_at_origin_for_positive_degree(self):
        assert closed_form_I(IntegralParams(1, 0, 0.5, 0.0)) == 0.0

    def test_frozen_case(self):
        # 2 i P_2^1(1/2) j_2(2); mpmath 40-digit oracle
        got = closed_form_I(IntegralParams(2, 1, math.pi / 3, 2.0))
        assert got.real == 0.0
        assert got.imag == pytest.approx(-0.5155828956372273, rel=1e-13)

    def test_frozen_high_order_case(self):
        got = closed_form_I(IntegralParams(12, -7, 2.1, 30.0))
        assert got.imag == pytest.approx(-4.5565269915099733e-10, rel=1e-11,
                                         abs=0.0)

    @given(st.integers(0, 20), st.data(),
           st.floats(0.01, math.pi - 0.01), st.floats(0.0, 50.0))
    @settings(max_examples=120, deadline=None)
    def test_negative_order_symmetry(self, n, data, alpha, R):
        m = data.draw(st.integers(0, n))
        plus = closed_form_I(IntegralParams(n, m, alpha, R))
        minus = closed_form_I(IntegralParams(n, -m, alpha, R))
        want = plus / factorial_ratio(n, m)
        assert minus == pytest.approx(want, rel=1e-12, abs=1e-300)

    @given(st.integers(0, 20), st.data(),
           st.floats(0.05, math.pi - 0.05), st.floats(0.0, 50.0))
    @settings(max_examples=120, deadline=None)
    def test_reflection_in_alpha(self, n, data, alpha, R):
        m = data.draw(st.integers(-n, n))
        direct = closed_form_I(IntegralParams(n, m, alpha, R))
        mirror = closed_form_I(IntegralParams(n, m, math.pi - alpha, R))
        sign = 1.0 if (n + m) % 2 == 0 else -1.0
        assert mirror == pytest.approx(sign * direct, rel=1e-10, abs=1e-250)

    def test_alpha_independence_is_bitwise_at_00(self):
        for R in (0.0, 2.0, 37.5):
            vals = {closed_form_I(IntegralParams(0, 0, a, R))
                    for a in (0.1, 0.9, 1.7, 3.0)}
            assert len(vals) == 1


class TestClosedFormRange:
    # Values whose P_n^m(cos alpha) or j_n(R) alone leaves the double range
    # while I does not, against mpmath (I from 6.8e103 down to 9.9e-177).
    @pytest.mark.parametrize("n, m, alpha, R", [
        (170, 170, 1.0, 5.0), (167, 156, 2.039, 19.22),
        (170, 154, 2.283, 38.08), (170, 170, 1.0, 1.0),
        (150, 140, 1.0, 0.1), (120, 110, 1.0, 0.05),
    ])
    def test_value_fits_where_a_factor_does_not(self, n, m, alpha, R):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = closed_form_I(IntegralParams(n, m, alpha, R))
        _assert_matches_mp(got, _closed_mp(n, m, alpha, R))

    @pytest.mark.parametrize("n, m, alpha, R", [
        (170, 170, 1.0, 5.0), (150, 140, 1.0, 0.1),
    ])
    def test_derivative_fits_where_a_factor_does_not(self, n, m, alpha, R):
        got = closed_form_dI_dR(IntegralParams(n, m, alpha, R))
        _assert_matches_mp(got, _closed_mp(n, m, alpha, R, prime=True))

    def test_raises_only_past_the_double_range(self):
        # mpmath: |I(170, 170, 1, 100)| = 2.46e318
        p = IntegralParams(170, 170, 1.0, 100.0)
        assert abs(_closed_mp(*astuple(p))) > mpmath.mpf("2.4e318")
        with pytest.raises(OverflowError, match="I overflows double "
                           "precision for n=170, m=170, alpha=1.0, R=100.0"):
            closed_form_I(p)

    @given(st.integers(0, 170), st.data(), st.floats(0.0, math.pi),
           st.floats(0.0, 200.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_mpmath_over_the_domain(self, n, data, alpha, R):
        # A value within 1e-12 relative, subnormal or 0 included, or
        # OverflowError past the range.  Near a zero of P_n^m or j_n the
        # bound widens by 1e-15 times the condition number.
        m = data.draw(st.integers(-n, n))
        want = _closed_mp(n, m, alpha, R)
        try:
            got = closed_form_I(IntegralParams(n, m, alpha, R))
        except OverflowError:
            assert abs(want) >= 1e308
            return
        _assert_matches_mp(got, want,
                           rel=1e-12 + 1e-15 * _condition(n, m, alpha, R))


class TestClosedFormRow:
    @given(st.integers(0, 170), st.data(), st.floats(0.0, math.pi),
           st.floats(0.0, 1e4))
    @settings(max_examples=200, deadline=None)
    def test_each_order_is_closed_form_I(self, n, data, alpha, R):
        # Reference: the closed form written out per order, one P_n^m and
        # one j_n(R) each.  Wherever it and both its factors are normal and
        # nonzero, a row and closed_form_I keep its bits, signed zeros
        # included.  Elsewhere they match mpmath, and an order raises only
        # where |I| passes the double range.
        ms = data.draw(st.lists(st.integers(-n, n), min_size=1, max_size=4))
        x = math.cos(alpha)
        j = spherical_bessel_j(n, R)
        row = closed_form_row(n, ms, alpha, R)
        for m in ms:
            single = IntegralParams(n, m, alpha, R)
            try:
                got = next(row)
            except OverflowError:
                assert abs(_closed_mp(n, m, alpha, R)) > sys.float_info.max
                with pytest.raises(OverflowError):
                    closed_form_I(single)
                return
            assert _bits(closed_form_I(single)) == _bits(got)
            try:
                leg = assoc_legendre(n, m, x)
            except OverflowError:
                leg = math.inf
            want = 2.0 * i_phase(n - m) * leg * j
            size = max(abs(want.real), abs(want.imag))
            if all(_normal(v) for v in (leg, j, size)):
                assert _bits(got) == _bits(want)
            else:
                _assert_matches_mp(got, _closed_mp(n, m, alpha, R), rel=(
                    1e-12 + 1e-15 * _condition(n, m, alpha, R)))

    def test_raises_only_when_the_failing_order_is_taken(self):
        # I(165, 164, 1, 100) leaves the double range; the orders before it
        # come out with closed_form_I's bits, and building the row or
        # taking them raises nothing.
        ms = [0, -164, 163, 164, 1]
        row = closed_form_row(165, ms, 1.0, 100.0)
        for m in ms[:3]:
            want = closed_form_I(IntegralParams(165, m, 1.0, 100.0))
            got = next(row)
            assert (got.real.hex(), got.imag.hex()) \
                == (want.real.hex(), want.imag.hex())
        with pytest.raises(OverflowError, match="n=165, m=164"):
            next(row)

    @pytest.mark.parametrize("n, alpha, R, match", [
        (3, -1.0, 2.0, "alpha must lie in"),  # I(alpha) = (-1)^m I(-alpha)
        (3, 4.0, 2.0, "alpha must lie in"),   # sin(alpha) < 0
        (171, 1.0, 1.0, "degree above cap 170"),
        (3, 1.0, -2.0, "R must be finite"),
    ])
    def test_first_step_checks_the_ranges_of_integral_params(
            self, n, alpha, R, match):
        row = closed_form_row(n, [1], alpha, R)
        with pytest.raises(ValueError, match=match):
            next(row)


class TestClosedFormDIdR:
    def test_base_case(self):
        got = closed_form_dI_dR(IntegralParams(0, 0, 0.77, math.pi))
        assert got.real == pytest.approx(-2.0 / math.pi, rel=1e-14)
        assert got.imag == 0.0

    def test_zero_at_origin(self):
        assert closed_form_dI_dR(IntegralParams(2, 2, math.pi / 2, 0.0)) == 0.0

    def test_matches_finite_difference(self):
        h = 1e-6
        p = IntegralParams(2, 1, math.pi / 3, 2.0)
        fd = (closed_form_I(IntegralParams(2, 1, math.pi / 3, 2.0 + h))
              - closed_form_I(IntegralParams(2, 1, math.pi / 3, 2.0 - h))) / (2 * h)
        assert closed_form_dI_dR(p) == pytest.approx(fd, rel=1e-8)


class TestLockClosedForm:
    def test_goldens(self):
        assert lock_closed_form(0, 0, math.pi / 2, 1) == pytest.approx(
            FOUR_OVER_PI + 0j, rel=1e-15)
        assert lock_closed_form(1, 1, 0.0, 1) == pytest.approx(
            -4.0 / 3.0 + 0j, rel=1e-15)
        # mpmath oracle: 2 (-i)^3 * 6 * j_2(3)/3
        got = lock_closed_form(2, 1, 3.0, -1)
        assert got.real == 0.0
        assert got.imag == pytest.approx(1.1945499883029342, rel=1e-13)
        assert lock_closed_form(2, 1, 3.0, 1) == got.conjugate()

    def test_order_sign_irrelevant(self):
        assert lock_closed_form(5, -3, 2.0, 1) == lock_closed_form(5, 3, 2.0, 1)

    def test_finite_at_origin(self):
        # n > |m|: j_n(R)/R^{|m|} -> 0;  n = |m|: 1/(2n+1)!!
        assert lock_closed_form(4, 2, 0.0, 1) == 0.0
        want = 2.0 * factorial_ratio(2, 2) / 15.0  # (2 i^4) 4!/0! / (5!!)
        assert lock_closed_form(2, 2, 0.0, 1) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n, m, R", [
        (100, 100, 1e3), (170, 150, 1e4), (150, 150, 1.0),
    ])
    def test_past_factorial_range(self, n, m, R):
        # (n+m)!/(n-m)! overflows a double although the value does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lock_closed_form(n, m, R, 1) / i_phase(n + m)
        assert got.imag == 0.0
        assert got.real == pytest.approx(_lock_mp(n, m, R), rel=1e-13, abs=0.0)

    def test_overflow_only_past_double_range(self):
        # 2 * 340! j_170(R)/R^170 is 6.4e355 at R = 1 and 1.0e31 at R = 1e4.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"n=170, m=170, R=1\.0"):
                lock_closed_form(170, 170, 1.0, 1)
            got = lock_closed_form(170, 170, 1e4, 1)
        assert got.real == pytest.approx(_lock_mp(170, 170, 1e4), rel=1e-13,
                                         abs=0.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            lock_closed_form(2, 1, 1.0, 0)
        with pytest.raises(ValueError):
            lock_closed_form(2, 3, 1.0, 1)
        with pytest.raises(ValueError):
            lock_closed_form(2, 1, -1.0, 1)


class TestPoissonClosedForm:
    def test_goldens(self):
        assert abs(poisson_closed_form(0, math.pi)) <= 1e-15
        assert poisson_closed_form(0, 0.0) == 2.0
        # 2 j_1(2), elementary sin/cos form
        assert poisson_closed_form(1, 2.0) == pytest.approx(
            0.8707955499599832, rel=1e-13)

    def test_zero_argument_limit(self):
        # 2^{s+1} s!/(2s+1)!!
        assert poisson_closed_form(3, 0.0) == pytest.approx(
            2.0**4 * 6.0 / 105.0, rel=1e-14)

    @pytest.mark.parametrize("s, x", [
        (100, 0.011), (120, 0.1), (140, 0.5), (150, 0.5),
        (150, 160.0), (150, 200.0), (100, 1e4), (150, 1e4),
    ])
    def test_no_silent_zero(self, s, x):
        # j_s(x) underflows (small x) or x^s overflows (large x) on its own.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = poisson_closed_form(s, x)
        assert got == pytest.approx(float(_poisson_mp(s, x)), rel=1e-13,
                                    abs=0.0)

    @given(st.integers(0, 150), st.floats(0.0, 1e4))
    @settings(max_examples=150, deadline=None)
    def test_finite_and_nonzero_over_domain(self, s, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = poisson_closed_form(s, x)
        assert math.isfinite(got)
        if abs(_poisson_mp(s, x)) >= 1e-290:
            assert got != 0.0

    def test_errors(self):
        with pytest.raises(OverflowError):
            poisson_closed_form(151, 1.0)
        with pytest.raises(ValueError):
            poisson_closed_form(-1, 1.0)
        with pytest.raises(ValueError):
            poisson_closed_form(2, -1.0)


class TestSeriesPartials:
    def test_alpha_zero_is_single_term(self):
        for R in (0.0, 1.3, 9.0):
            for S in (0, 3, 40):
                assert mult_theorem_partial(R, 0.0, S) == spherical_bessel_j(0, R)

    def test_converges_to_j0(self):
        got = mult_theorem_partial(2.0, math.pi / 6, 40)
        assert got == pytest.approx(math.sin(2.0) / 2.0, abs=1e-12)

    def test_zero_radius(self):
        assert mult_theorem_partial(0.0, 0.7, 5) == 1.0
        assert i00_series_partial(0.0, 0.7, 3) == 2.0 + 0.0j

    def test_i00_converges_to_2j0(self):
        assert abs(i00_series_partial(math.pi, math.pi / 6, 40)) <= 1e-10
        got = i00_series_partial(2.0, math.pi / 4, 40)
        assert got.imag == 0.0
        assert got.real == pytest.approx(math.sin(2.0), abs=1e-10)

    def test_i00_is_twice_mult_series(self):
        for (R, alpha, S) in ((2.0, 0.5, 7), (9.5, 0.2, 31), (0.4, 0.78, 3)):
            assert i00_series_partial(R, alpha, S) == complex(
                2.0 * mult_theorem_partial(R, alpha, S), 0.0)

    def test_error_decreases_with_order(self):
        # monotone decrease beyond the first partial sum that is below 1e-3,
        # down to the rounding floor
        target = math.sin(7.0) / 7.0
        errs = [abs(mult_theorem_partial(7.0, 0.6, S) - target)
                for S in range(45)]
        started = False
        for prev, cur in zip(errs, errs[1:]):
            if not started and prev < 1e-3:
                started = True
            if started:
                assert cur <= prev * 1.01 + 1e-15
        assert errs[40] <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mult_theorem_partial(1.0, math.pi / 2, 10)
        with pytest.raises(ValueError):
            mult_theorem_partial(1.0, 2.0, 10)
        with pytest.raises(ValueError):
            mult_theorem_partial(1.0, -0.1, 10)
        with pytest.raises(ValueError):
            mult_theorem_partial(1.0, 0.3, 201)
        with pytest.raises(ValueError):
            i00_series_partial(-1.0, 0.3, 10)
