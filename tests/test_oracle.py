import math

import numpy as np
import pytest

import lbk.oracle
from lbk.kernel import (
    IntegralParams,
    closed_form_dI_dR,
    closed_form_I,
    lock_closed_form,
    poisson_closed_form,
)
from lbk.oracle import (
    _HAS_EXTENDED,
    QuadratureSpec,
    _gl_rule,
    gauss_panels,
    integrate_dI_dR,
    integrate_I,
    integrate_lock,
    integrate_poisson_exp,
)

FOUR_OVER_PI = 1.2732395447351628


class TestQuadratureSpec:
    @pytest.mark.parametrize("kwargs", [
        {"base_panels": 0}, {"nodes_per_panel": 0}, {"abs_tol": 0.0},
        {"abs_tol": 1.5}, {"rel_tol": -1e-3}, {"max_refinements": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_node_order_cap(self):
        # leggauss(order) allocates order^2 outside the node cap.
        assert lbk.oracle.MAX_NODES_PER_PANEL == 1024
        QuadratureSpec(nodes_per_panel=1024)
        with pytest.raises(ValueError, match="nodes_per_panel"):
            QuadratureSpec(nodes_per_panel=1025)

    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.base_panels is None
        assert spec.nodes_per_panel == 32
        assert spec.abs_tol == 1e-12
        assert spec.rel_tol == 1e-10
        assert spec.max_refinements == 12


class TestPanelRule:
    def test_monomial_exactness_single_panel(self):
        # one panel of 32 nodes integrates u^k exactly for k <= 63, and so
        # does the theta-graded composite rule
        for panels in (1, 7):
            for k in range(64):
                got = gauss_panels(lambda u, su: u ** k, panels, 32).real
                want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
                assert got == pytest.approx(want, abs=3e-15), (panels, k)

    @pytest.mark.skipif(not _HAS_EXTENDED,
                        reason="longdouble is plain double on this platform")
    def test_extended_rule_monomial_exactness(self):
        # the Newton-refined longdouble rule beats double precision on u^k
        nodes, weights = _gl_rule(32, np.longdouble)
        for k in range(64):
            got = np.dot(weights, nodes ** k)
            want = np.longdouble(2) / (k + 1) if k % 2 == 0 else 0.0
            assert abs(got - want) <= 1e-17

    def test_degrades_far_past_design_degree(self):
        got = gauss_panels(lambda u, su: u ** 150, 1, 32).real
        assert abs(got - 2.0 / 151.0) > 1e-8

    def test_weights_sum_to_interval(self):
        got = gauss_panels(lambda u, su: np.ones_like(u), 7, 32).real
        assert got == pytest.approx(2.0, abs=1e-14)


class TestIntegrateI:
    def test_radius_zero_reduces_to_measure(self):
        q = integrate_I(IntegralParams(0, 0, 1.0, 0.0))
        assert q.converged
        assert q.value == pytest.approx(2.0 + 0.0j, abs=1e-14)

    def test_base_case_known_value(self):
        q = integrate_I(IntegralParams(0, 0, 0.7, math.pi / 2))
        assert q.converged
        assert q.value.real == pytest.approx(FOUR_OVER_PI, abs=1e-10)
        assert abs(q.value.imag) < 1e-12

    def test_matches_closed_form_midrange(self):
        p = IntegralParams(2, 1, math.pi / 3, 2.0)
        q = integrate_I(p)
        assert q.converged
        assert abs(q.value - closed_form_I(p)) < 1e-9

    def test_node_order_cross_validation(self):
        p = IntegralParams(7, -4, 1.1, 23.0)
        a = integrate_I(p, QuadratureSpec(nodes_per_panel=32)).value
        b = integrate_I(p, QuadratureSpec(nodes_per_panel=64)).value
        assert a == pytest.approx(b, rel=1e-11, abs=1e-12)

    def test_high_cancellation_by_escalation(self):
        # envelope exceeds the value by ~1e10; double precision alone
        # cannot deliver this accuracy
        p = IntegralParams(20, 20, math.asin(0.1), 50.0)
        c = closed_form_I(p)
        q = integrate_I(p, QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8))
        assert q.converged
        assert abs(q.value - c) / (1.0 + abs(c)) < 1e-8

    def test_forced_non_convergence_is_reported(self):
        spec = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-30, max_refinements=1)
        q = integrate_I(IntegralParams(2, 1, 1.0, 2.0), spec)
        assert not q.converged
        assert q.est_error > 1e-30

    def test_oscillation_safety(self):
        # default panel rule converges across the oscillatory range
        for n in (0, 10, 30):
            for R in (1.0, 50.0, 100.0):
                q = integrate_I(IntegralParams(n, n // 2, 1.0, R))
                assert q.converged, (n, R)

    def test_refinement_monotonicity(self):
        p = IntegralParams(5, 3, 1.0, 20.0)
        e16 = integrate_I(p, QuadratureSpec(base_panels=16))
        e32 = integrate_I(p, QuadratureSpec(base_panels=32))
        assert e16.converged and e32.converged
        assert e32.est_error <= 2.0 * e16.est_error + 1e-15

    @pytest.mark.parametrize("R", [2000.0, 4000.0, 1e4, 2e4])
    @pytest.mark.parametrize("alpha", [0.3, 1.55, 2.9])
    def test_large_radius_default_seed(self, R, alpha):
        # the default seed resolves R in the thousands with one doubling
        p = IntegralParams(5, 2, alpha, R)
        c = closed_form_I(p)
        q = integrate_I(p)
        assert q.converged
        assert abs(q.value - c) / (1.0 + abs(c)) <= 1e-12
        assert q.panels_used <= 2 * max(8, math.ceil(R / (4 * math.pi)) + 5)

    def test_seed_past_node_cap_is_rejected(self):
        with pytest.raises(ValueError, match="nodes per pass"):
            integrate_I(IntegralParams(5, 2, 1.0, 1e300))

    def test_doubling_stops_at_node_cap(self, monkeypatch):
        # 8 panels of 32 nodes leave R = 200 under-resolved
        monkeypatch.setattr(lbk.oracle, "MAX_NODES", 32 * 8)
        q = integrate_I(IntegralParams(2, 1, 1.0, 200.0),
                        QuadratureSpec(base_panels=1))
        assert not q.converged
        assert q.panels_used == 8
        assert math.isfinite(q.est_error)

    def test_panels_used_doubles_from_base(self):
        q = integrate_I(IntegralParams(1, 0, 1.0, 1.0), QuadratureSpec(base_panels=3))
        assert q.panels_used % 3 == 0 and q.panels_used > 3

    def test_deterministic(self):
        p = IntegralParams(9, 5, 2.0, 31.0)
        a = integrate_I(p)
        b = integrate_I(p)
        assert a == b

    def test_converged_implies_tolerance(self):
        spec = QuadratureSpec()
        for p in (IntegralParams(3, 2, 1.2, 8.0), IntegralParams(0, 0, 0.4, 44.0)):
            q = integrate_I(p, spec)
            assert q.converged
            assert q.est_error <= max(spec.abs_tol, spec.rel_tol * abs(q.value))

    @pytest.mark.parametrize("n, m, R", [(3, 2, 5.0), (4, 1, 11.0), (6, -5, 2.5)])
    def test_imaginary_part_parity_at_right_angle(self, n, m, R):
        # at alpha = pi/2 the value is 2 i^{n-m} P_n^m(0) j_n(R): purely
        # real or purely imaginary depending on the phase parity
        p = IntegralParams(n, m, math.pi / 2, R)
        q = integrate_I(p)
        assert abs(q.value - closed_form_I(p)) < 1e-9
        if (n - m) % 2 == 0:
            assert abs(q.value.imag) < 1e-10
        else:
            assert abs(q.value.real) < 1e-10


class TestIntegrateDIdR:
    def test_zero_radius_odd_integrand(self):
        q = integrate_dI_dR(IntegralParams(0, 0, 1.1, 0.0))
        assert abs(q.value) < 1e-13

    def test_base_case(self):
        q = integrate_dI_dR(IntegralParams(0, 0, 0.7, math.pi))
        assert q.value.real == pytest.approx(-2.0 / math.pi, abs=1e-9)

    def test_matches_closed_form(self):
        p = IntegralParams(2, 1, math.pi / 3, 2.0)
        q = integrate_dI_dR(p)
        assert abs(q.value - closed_form_dI_dR(p)) < 1e-9


class TestIntegrateLock:
    def test_measure_only(self):
        q = integrate_lock(0, 0, 0.0, 1)
        assert q.value == pytest.approx(2.0 + 0.0j, abs=1e-14)

    def test_sine_cubed(self):
        # sin^2 P_1^1 integrand integrates to -4/3
        q = integrate_lock(1, 1, 0.0, 1)
        assert q.value == pytest.approx(-4.0 / 3.0 + 0.0j, abs=1e-13)

    def test_matches_closed_form_both_signs(self):
        for sign in (1, -1):
            c = lock_closed_form(2, 1, 3.0, sign)
            q = integrate_lock(2, 1, 3.0, sign)
            assert abs(q.value - c) < 1e-9

    def test_negative_order_matches_positive(self):
        a = integrate_lock(5, -3, 7.0, 1).value
        b = integrate_lock(5, 3, 7.0, 1).value
        assert a == b

    def test_invalid(self):
        with pytest.raises(ValueError):
            integrate_lock(2, 1, 1.0, 2)
        with pytest.raises(ValueError):
            integrate_lock(1, 2, 1.0, 1)
        with pytest.raises(ValueError):
            integrate_lock(1, 1, -1.0, 1)

    @pytest.mark.parametrize("args", [
        (2, 1, 1.0, 2), (2, 1, 1.0, 0), (1, 2, 1.0, 1), (-1, 0, 1.0, 1),
        (1, -2, 1.0, 1), (1, 1, -1.0, 1), (1, 1, math.nan, 1),
    ])
    def test_domain_shared_with_closed_form(self, args):
        with pytest.raises(ValueError) as closed:
            lock_closed_form(*args)
        with pytest.raises(ValueError) as quad:
            integrate_lock(*args)
        assert str(quad.value) == str(closed.value)


class TestIntegratePoissonExp:
    def test_trivials(self):
        assert integrate_poisson_exp(0, 0.0).value == pytest.approx(2.0, abs=1e-14)
        assert integrate_poisson_exp(1, 0.0).value == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_matches_closed_form(self):
        q = integrate_poisson_exp(1, 2.0)
        assert abs(q.value - poisson_closed_form(1, 2.0)) < 1e-10

    def test_imaginary_part_parity(self):
        for s, x in ((0, 3.0), (2, 11.0), (5, 47.0)):
            q = integrate_poisson_exp(s, x)
            assert abs(q.value.imag) <= 1e-12

    @pytest.mark.parametrize("s, x", [(-1, 1.0), (2, -1.0), (2, math.nan)])
    def test_domain_shared_with_closed_form(self, s, x):
        with pytest.raises(ValueError) as closed:
            poisson_closed_form(s, x)
        with pytest.raises(ValueError) as quad:
            integrate_poisson_exp(s, x)
        assert str(quad.value) == str(closed.value)

    def test_moment_cap_is_closed_form_only(self):
        with pytest.raises(OverflowError):
            poisson_closed_form(151, 1.0)
        with pytest.raises(OverflowError):
            poisson_closed_form(151, -1.0)
        assert integrate_poisson_exp(151, 0.0).converged


class TestIntegrateParityNull:
    # The parity-null integral of sin(theta) sin(x cos(theta)) sin^{2s}(theta)
    # is Im of the exponential moment integral; its odd integrand vanishes.
    def test_zero_integrand_is_exactly_zero(self):
        assert integrate_poisson_exp(2, 0.0).value.imag == 0.0

    @pytest.mark.parametrize("s, x, tol", [
        (0, 5.0, 1e-12), (3, 17.3, 1e-10), (5, 50.0, 1e-10),
    ])
    def test_vanishes_by_parity(self, s, x, tol):
        assert abs(integrate_poisson_exp(s, x).value.imag) <= tol
